"""Immutable symbolic expressions over jet/phase coordinates and named constants.

Everything downstream (total derivatives, Cartan forms, Legendre maps,
residual systems) is built on the four operations defined here: ``parse``,
``diff``, ``substitute`` and ``evaluate``.

Conventions
-----------
* Coordinates are written ``q<i>_<A>`` (jet coordinate of derivative order
  ``i`` on axis ``A``, 1-based) and ``p<i>_<A>`` (conjugate momentum of order
  ``i`` on axis ``A``).  The total order on coordinates is jet < momentum,
  then by ``(i, A)``.
* Coefficient arithmetic is exact rational.  Irrational values only enter
  through named constants and the unary functions ``sqrt sin cos exp ln``.
* Representation: a Laurent polynomial over QQ in the coordinates, the
  named constants, the placeholders and the square roots of polynomials
  (a polynomial divided by a monomial, such as ``p1_1/mu``, times powers
  of those roots) is held sparse, as a ``_Poly``: a dict from each
  monomial, the sorted (generator id, exponent) pairs of its nonzero
  exponents, to its coefficient in QQ.  A generator is a name, a
  placeholder (an unknown function ``s2_1(q0_1, …)`` of distinct
  coordinates, or sympy's ``Derivative`` of one) or a radical
  ``t = u^(1/2)``.  What the module needs of one (its print key and
  text, its place among generators, the names it depends on) is
  recorded once, in its ``_Gen``: a name by its name, a radical by its
  radicand's terms, a placeholder by its sympy tree.  So no polynomial
  needs a ring and any two meet as they are.  ``+ - *``, ``/`` by a
  single term (a product with its inverse), integer ``^`` (negative only
  of a single term), ``diff``, ``substitute`` with polynomial right-hand
  sides, ``==``, ``hash`` and the queries stay polynomials.  A
  placeholder differentiates to the generator of its partial, or to 0
  for a coordinate it does not take, and contributes its arguments to
  the free names.
* Radicals: ``u^(k/2)`` of a polynomial u is a power of the generator
  ``t = u^(1/2)``, recorded once for u's terms, when u is a polynomial
  in names of more than one term that sympy's term factoring leaves as
  it stands, which u's terms tell: integer coefficients without a
  common factor, not all negative, and no generator dividing every
  term.  t's text is the printer's of u's terms, and its place among
  radicals, which orders printed terms and evaluated factors, is
  ``default_sort_key`` of u's tree, computed from u's terms
  (``_sort_key``).  t contributes u's names to the free names.  After every
  operation t^(2k+r) becomes u^k·t^r, so a value is A·t⁻¹ + B + C·t,
  and a t part beside a t⁻¹ part folds into it, (A + C·u)·t⁻¹ + B:
  that is (A' + B·t)/t^e with e in {0, 1}, the form the tree path's
  common denominator gives.  ∂t/∂x = (∂u/∂x)/2 · t⁻¹, the derivation of
  the quadratic extension.  ``==`` stays structural: (u·y)/t and y·t
  are unequal, as their trees are.  The tree path is kept for
    - t⁻² and lower powers, whose denominator u is not a monomial;
    - A·t⁻¹ alone with A a one-term multiple of u, which the tree turns
      into that term times t along some paths and not along others,
      and a product or substitution where such a multiple of u meets
      t⁻¹ (``_reduce``, ``_meets_radicand``);
    - radicands that are not such polynomials: Laurent ones, one term,
      a content, common monomial or sign sympy splits out of the root,
      placeholders, or nested radicals;
    - roots other than square roots;
    - ``solve_linear`` with a radical entry, and ``substitute`` into a
      radicand's names.
* The tree path is also taken for ``substitute`` for a symbol with a
  negative exponent, ``solve_linear`` over a Laurent entry, and where
  a placeholder's argument is substituted.  Every Laurent polynomial is
  a ``_Poly``, whatever built it (a ``cancel`` that reduces to one, or
  ``Expression(sym)`` on a raw tree too), and so is every canonical tree
  in the radicals' form, so ``==`` and ``hash`` agree.  Everything else
  (``sin cos exp ln``, denominators that are not monomials,
  placeholders of other arguments, the radical fallbacks above) is its
  canonical sympy tree.
* A polynomial builds its tree (``.sym``), and a generator its own,
  only on demand: for arithmetic with a non-polynomial, solves over
  radicals or Laurent entries, and ``evaluate`` and ``step_texts`` of a
  placeholder (which walk and print the tree, so an error names the
  node it always named).  It is the tree ``_canon`` gives, the expanded
  sum (a monomial denominator is atomic).  Printing, ``evaluate`` and
  ``step_texts`` read the polynomial's terms and give the text, the
  values and errors, and the Python text that tree gives; a radical is
  the ``_root`` of its radicand's terms.  So the polynomial path calls
  nothing of sympy's but QQ's coefficient arithmetic.
  Polynomial and tree stay inside this module: no other module of the
  package reads them or imports sympy.
* ``Expression.of`` is the one way in for a value that is not parsed.
  It and the constructor refuse text, floats and bools.
* Canonical form of a tree: an expression whose denominator is a
  rational number is expanded and nothing more.  Any other fraction is
  reduced to a normal form p/q with ``together``/``cancel`` (expanded
  numerator, no common factors); when the denominator is a product of
  atomic factors the fraction is distributed over the numerator's terms,
  which for a monomial denominator is the Laurent polynomial's tree, so
  a polynomial never reaches this path.
  Function applications and fractional powers are opaque atoms — no
  radical or trig identities are applied beyond ``x^(1/2) == sqrt(x)``.
  The constructor is its one door; it is memoized, so an atom built from
  canonical children is canonicalized once.
* ``==`` and ``hash`` compare canonical forms (polynomials, or trees)
  and nothing else, so two forms of one radical expression
  (``1/(sqrt(x) + 1)`` and ``(sqrt(x) - 1)/(x - 1)``) are unequal;
  ``(a - b).is_zero`` is the semantic test.
* Printing is deterministic: terms are emitted in a fixed total order
  (coordinate content first — jets before momenta, then by (order, axis),
  exponents descending — named constants as tiebreak, pure-constant terms
  last) and ``parse(print(e)) == e`` for every expression the parser
  accepts.  The printer renders the canonical tree as it stands, without
  canonicalizing sub-trees again, and renders each sub-tree once: a
  sum's text is both its sort key and its output.  A polynomial is
  rendered from its terms, each term's sort key built from its exponents
  and each generator's key and text computed once.
  ``exp(x)`` is a function atom, sympy's ``E`` prints as ``exp(1)``, and
  a radical of a sum, product or power prints its base in parentheses.
* ``evaluate`` keeps the summation and multiplication order of a
  recursive walk over the tree (operands in ``default_sort_key`` order),
  so its bits are the walk's bits, and it checks and raises where the
  walk would.  A polynomial without placeholders is evaluated from its
  terms, put in the order that walk takes, and any other expression
  from its tree by that walk, one operation at a time over columns of
  floats, so ``sample_values`` and ``row_evaluator`` evaluate all their
  points at once and nothing is compiled.  ``evaluate`` is the
  one-point case.
* The parser builds every value with Expression arithmetic, so values
  enter canonical and ``parse(text)`` equals what that arithmetic builds
  from the text's atoms.  It bounds the number of terms an expansion may
  produce (``TERM_LIMIT``) before it expands or multiplies anything.
* ``solve_linear`` and ``determinant`` are the package's exact linear
  algebra: Bareiss's fraction-free elimination (``_eliminate``) over the
  polynomials when every entry is one without a negative exponent or a
  radical (``determinant`` also takes those, each row cleared of its
  monomial denominator, radicals as free generators), else sympy's
  ``DomainMatrix`` over the domain it picks for the trees.
  ``step_texts`` writes the Python source of the generated RK4 code, a
  polynomial's from its terms.

Expressions are immutable values; all operations are pure functions, so
instances are safe to share between threads.  The writes after
construction (the tree, the hash, a polynomial's terms in walk order,
a generator's tree) are idempotent stores of pure functions of the
value.  ``Immutable`` is the base of every immutable class of the
package: it refuses attribute assignment and deletion, and constructors
store their fields through ``_init`` (``Expression``, built far more
often than the rest, stores its three directly).
"""

from __future__ import annotations

import functools
import itertools
import keyword
import math
import operator
import random
import re
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence, Tuple

import sympy as sp
from sympy import QQ
from sympy.core.add import _unevaluated_Add
from sympy.core.basic import Basic
from sympy.core.cache import cacheit
from sympy.core.function import AppliedUndef
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.printing.pycode import PythonCodePrinter

__all__ = [
    "Immutable",
    "Coordinate",
    "Constant",
    "SymbolTable",
    "Expression",
    "ExprError",
    "ExprSyntaxError",
    "UnknownSymbolError",
    "UnboundSymbolError",
    "DomainEvalError",
    "SingularMatrixError",
    "parse",
    "diff",
    "derivation",
    "solve_linear",
    "determinant",
    "step_texts",
    "substitute",
    "evaluate",
    "row_evaluator",
    "probably_equal",
    "sample_values",
    "to_text",
    "placeholder",
    "placeholders",
    "placeholder_derivative",
    "jet",
    "momentum",
    "coordinate_of",
    "ZERO",
    "ONE",
]

_COORD_RE = re.compile(r"^([qp])(\d+)_([1-9]\d*)$")
_CONST_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_COMPONENT_RE = re.compile(r"^[sa]\d+_\d+$")  # a candidate component's key, a placeholder's name

_FUNCTIONS = {"sqrt": sp.sqrt, "sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "ln": sp.log}
_FUNC_LABEL = {sp.sin: "sin", sp.cos: "cos", sp.exp: "exp", sp.log: "ln"}


class ExprError(ValueError):
    """Base class for everything this module raises on bad input."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownSymbolError(ExprError):
    pass


class UnboundSymbolError(ExprError):
    pass


class DomainEvalError(ExprError):
    """Numeric evaluation hit a singularity; carries the offending subterm."""

    def __init__(self, message, subexpression):
        super().__init__("%s in %s" % (message, subexpression))
        self.subexpression = subexpression


class SingularMatrixError(ExprError):
    """An exact solve met a singular coefficient matrix."""


class Immutable:
    """Base of the package's immutable classes: assigning or deleting an
    attribute of an instance raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def _init(self, **fields):
        """Store the fields of an instance under construction."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# Coordinates and symbol universes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Coordinate:
    """A jet coordinate q_i^A or a momentum p_A^i.

    Field order matters: dataclass ordering gives exactly the canonical
    total order (kind "jet" < "momentum" alphabetically, then (order, axis)).
    """

    kind: str
    order: int
    axis: int
    name: str = field(init=False, repr=False, compare=False)  # formatted once

    def __post_init__(self):
        if self.kind not in ("jet", "momentum"):
            raise ExprError("coordinate kind must be 'jet' or 'momentum'")
        if self.order < 0 or self.axis < 1:
            raise ExprError("coordinate needs order >= 0 and axis >= 1")
        prefix = "q" if self.kind == "jet" else "p"
        object.__setattr__(self, "name", "%s%d_%d" % (prefix, self.order, self.axis))

    @classmethod
    def from_name(cls, name: str) -> "Coordinate":
        m = _COORD_RE.match(name)
        if not m:
            raise ExprError("not a coordinate name: %r" % name)
        return (jet if m.group(1) == "q" else momentum)(int(m.group(2)), int(m.group(3)))

    @property
    def symbol(self) -> sp.Symbol:
        return sp.Symbol(self.name)

    def __str__(self):
        return self.name


# jet, momentum and coordinate_of build one Coordinate per name and hand
# out that instance on every later call


@functools.cache
def jet(order: int, axis: int) -> Coordinate:
    return Coordinate("jet", order, axis)


@functools.cache
def momentum(order: int, axis: int) -> Coordinate:
    return Coordinate("momentum", order, axis)


@functools.cache
def coordinate_of(name: str):
    """The Coordinate a name names, or None for a named constant."""
    return Coordinate.from_name(name) if _COORD_RE.match(name) else None


@dataclass(frozen=True)
class Constant:
    """A named constant with an optional numeric value and a nonzero flag.

    The name is not a coordinate's, nor a candidate component's key
    (``s<j>_<A>``, ``a<i>_<A>``), which a placeholder prints as.  The
    value, when given, is finite, and not 0 for a nonzero constant.
    """

    name: str
    value: float | None = None
    nonzero: bool = False

    def __post_init__(self):
        if not _CONST_RE.match(self.name):
            raise ExprError("bad constant name %r (want [a-z][a-z0-9_]*)" % self.name)
        if _COORD_RE.match(self.name):
            raise ExprError("constant name %r collides with a coordinate" % self.name)
        if _COMPONENT_RE.match(self.name):
            raise ExprError("constant name %r collides with a candidate component" % self.name)
        if self.value is not None and not math.isfinite(self.value):
            raise ExprError("constant %r needs a finite value, not %r" % (self.name, self.value))
        if self.nonzero and self.value == 0:
            raise ExprError("constant %r is declared nonzero but its value is 0" % self.name)


class SymbolTable:
    """The coordinate universe + declared constants a parse is resolved in:
    ``parse`` refuses every other name."""

    def __init__(self, coordinates: Iterable[Coordinate], constants: Iterable[str] = ()):
        self.coordinates = frozenset(coordinates)
        self.constants = frozenset(constants)
        for c in self.constants:
            Constant(c)  # validates name and non-collision

    @property
    def has_momenta(self) -> bool:
        return any(c.kind == "momentum" for c in self.coordinates)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _denominator_is_atomic(d):
    # A denominator distributes over the numerator's terms without losing
    # canonical form when every factor is a power of a non-sum base or an
    # opaque radical (fractional power of anything).
    if d.is_Add:
        return False
    for base, exp in d.as_powers_dict().items():
        if base.is_Add and exp.is_Integer:
            return False
    return True


def _normalize_atoms(sym):
    # Canonicalize inside opaque atoms (function arguments, radical bases) so
    # that equal atoms built along different paths coincide structurally.
    if sym.is_Atom or isinstance(sym, (sp.Derivative, AppliedUndef)):
        return sym
    if sym.is_Function:
        return sym.func(*[_canon(a) for a in sym.args])
    if sym.is_Pow:
        base, exp = sym.args
        if not exp.is_Integer:
            return sp.Pow(_canon(base), exp)
        return sp.Pow(_normalize_atoms(base), exp)
    if sym.is_Add or sym.is_Mul:
        return sym.func(*[_normalize_atoms(a) for a in sym.args])
    return sym


@cacheit  # a pure function of an immutable tree; clear_cache() empties it
def _canon(sym):
    sym = _normalize_atoms(sym)
    if not sym.as_numer_denom()[1].is_Rational:
        try:
            sym = sp.cancel(sp.together(sym))
        except (sp.PolynomialError, AttributeError, NotImplementedError):
            pass
        num, den = sym.as_numer_denom()
        if not _denominator_is_atomic(den):
            return sp.expand(num) / den
    return sp.expand(sym)


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials
# ---------------------------------------------------------------------------


class _Poly(dict):
    """A Laurent polynomial over QQ: each monomial, a tuple of (generator
    id, exponent) pairs sorted by id with no zero exponent, maps to its
    nonzero coefficient.  A polynomial is never changed once built."""

    __slots__ = ("_gens", "_walk")

    def gens(self) -> frozenset:
        """The ids of the generators that occur, found once."""
        try:
            return self._gens
        except AttributeError:
            gens = self._gens = frozenset({g for m in self for g, _ in m})
            return gens

    def walk_order(self) -> list:
        """The terms as (coefficient, factors) pairs in the order a
        recursive walk over ``as_expr()`` visits them, found once: each
        factor a (generator id, exponent) pair, the coefficient None when
        it is 1 and the term has factors (then it is no operand).

        The tree's ``default_sort_key`` order of a Laurent polynomial's
        terms is the constant term, then the one-symbol terms by (name,
        exponent), then the products by their number of factors and
        their (name, exponent) pairs, a negative exponent ordering as the
        number it is, then a radical alone, by its radicand and exponent;
        a product's operands are its coefficient, unless it is 1, then
        its factors.  In the generators' order symbols come first, sorted
        by name, then radicals by their radicands, as the tree's factors
        order (a placeholder is evaluated from the tree).
        """
        try:
            return self._walk
        except AttributeError:
            def kind(f):  # the constant, a power of a symbol, a product, a radical
                return min(len(f), 2) if len(f) != 1 else 3 if _GEN[f[0][2]].kind == 2 else 1

            terms = sorted((kind(f), len(f), f, c) for f, c in (
                (tuple(sorted((_GEN[g].order, e, g) for g, e in m)), c) for m, c in self.items()))
            walk = self._walk = [(c if c != 1 or not f else None, [(g, e) for _, e, g in f])
                                 for _, _, f, c in terms]
            return walk

    def as_expr(self):
        """The tree sympy's ``PolyElement.as_expr()`` over the generators'
        trees gives: the sum of each term's ``Mul`` of its coefficient and
        powers."""
        to_sympy = QQ.to_sympy
        return sp.Add(*[sp.Mul(to_sympy(c), *[sp.Pow(_GEN[g].sym, e) for g, e in m])
                        for m, c in self.items()])


class _Gen:
    """What the module records once for each generator: its kind (0 for
    a name, 1 for a placeholder, 2 for a radical ``u^(1/2)``), a name's
    ``name``, a radical's radicand, its ``order`` (names by name, then
    placeholders by name, arguments and differentiations, then radicals
    by ``_sort_key``), the printer's sort key and text and ``printed``,
    the key and then the order, the names it depends on, its partial by
    each name taken so far (a placeholder's as its generator's id, a
    radical's as a polynomial), and its polynomial.  Its tree (``sym``)
    is a placeholder's own, and built on first read for the others."""

    __slots__ = ("_sym", "kind", "name", "order", "key", "text", "printed", "is_coordinate",
                 "free", "radicand", "partials", "poly")

    def __init__(self, i, name=None, tree=None, radicand=None):
        self._sym, self.name, self.radicand, self.partials = tree, name, radicand, {}
        if name is not None:
            self.kind, self.order, self.free = 0, (0, name), frozenset((name,))
            self.key, self.text = _name_atom(name)
        elif radicand is not None:
            self.kind, self.order, self.free = 2, (2, _sort_key(radicand)), frozenset(
                _free(radicand))
            text = _poly_text(radicand)
            self.key, self.text = (6, text), "sqrt(%s)" % text
        else:
            f = _function_of(tree)
            self.kind, self.free = 1, frozenset(a.name for a in f.args)
            self.order = (1, f.func.__name__, tuple(a.name for a in f.args), () if f is tree
                          else tuple((v.name, int(c)) for v, c in tree.variable_count))
            self.key, self.text = _atom(tree)
        self.printed = self.key, self.order
        self.is_coordinate = self.key[0] >= 2
        self.poly = _Poly({((i, 1),): QQ.one})

    @property
    def sym(self):
        if self._sym is None:  # a symbol, or u^(1/2) of u's tree
            self._sym = (sp.Symbol(self.name) if self.kind == 0
                         else sp.Pow(_radicand_tree(self.radicand), sp.S.Half))
        return self._sym


_GEN = []  # generator id -> its _Gen
_IDS = {}  # a name, a placeholder's tree, or a radicand's terms -> its id
_RADICAL_IDS = set()  # the ids of the radicals, which _reduce visits
_RECORDING = threading.RLock()  # threads that meet a new generator agree on its id


def _record(key, **fields) -> int:
    """The id of the generator recorded under ``key``, recorded with
    these ``_Gen`` fields on its first use."""
    with _RECORDING:
        if key not in _IDS:
            _GEN.append(_Gen(len(_GEN), **fields))
            _IDS[key] = len(_GEN) - 1
            if _GEN[-1].kind == 2:
                _RADICAL_IDS.add(_IDS[key])
        return _IDS[key]


def _gen(g) -> int:
    """The id of the generator g: a name, or the tree of a symbol or a
    placeholder."""
    i = _IDS.get(g)
    if i is not None:
        return i
    if isinstance(g, str):
        return _record(g, name=g)
    if g.is_Symbol:
        return _gen(g.name)
    return _record(g, tree=g)


_ZERO = _Poly()
_ONE = _Poly({(): QQ.one})
_HALF = QQ(1, 2)


def _number(q) -> _Poly:
    """The constant polynomial of a QQ element."""
    return _Poly({(): q}) if q else _ZERO


def _mono_mul(a, b):
    """The product of two monomials."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for g, e in b:
        e += exps.get(g, 0)
        if e:
            exps[g] = e
        else:
            del exps[g]
    return tuple(sorted(exps.items()))


def _add(P, Q, sign=1):
    """P + sign·Q."""
    if not Q:
        return P
    if not P and sign == 1:
        return Q
    out = _Poly(P)
    for m, c in Q.items():
        c = out.get(m, 0) + (c if sign == 1 else -c)
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _mul(P, Q):
    """P · Q."""
    if len(P) < len(Q):
        P, Q = Q, P
    if len(Q) == 1:
        (n, d), = Q.items()
        return _mul_term(P, n, d)
    out = _Poly()
    get = out.get
    for n, d in Q.items():
        for m, c in P.items():
            k = _mono_mul(m, n)
            out[k] = get(k, 0) + c * d
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


def _mul_term(P, n, d):
    """P times the term d·n (d nonzero)."""
    if not n:
        return P if d == 1 else _Poly({m: c * d for m, c in P.items()})
    return _Poly({_mono_mul(m, n): c * d for m, c in P.items()})


_OPS = {operator.add: _add, operator.sub: lambda P, Q: _add(P, Q, -1), operator.mul: _mul}


def _power(P, n):
    """P ** n, for a single-term P when n is negative."""
    if not n:
        return _ONE  # 0^0 = 1
    if len(P) == 1:
        (m, c), = P.items()
        return _Poly({tuple((g, n * e) for g, e in m): c ** n})
    result = P
    for _ in range(n - 1):
        result = _mul(result, P)
    return result


def _is_laurent(P):
    """Whether some exponent of P is negative."""
    return any(e < 0 for m in P for _, e in m)


def _holds(P, kind):
    """Whether a generator of this kind occurs in P."""
    return any(_GEN[g].kind == kind for g in P.gens())


def _free(P) -> set:
    """The names P depends on: a placeholder's arguments and a
    radicand's names too."""
    return set().union(*[_GEN[g].free for g in P.gens()])


def _is_placeholder(node):
    """Whether a tree is a generator that is not a symbol: an unknown
    function applied to distinct coordinate symbols, or a partial
    derivative of one."""
    f = _function_of(node)
    return (isinstance(f, AppliedUndef) and len(set(f.args)) == len(f.args)
            and all(a.is_Symbol and _COORD_RE.match(a.name) for a in f.args))


def _function_of(g):
    """The applied function of a placeholder generator (itself, or what a
    partial differentiates)."""
    return g.expr if isinstance(g, sp.Derivative) else g


def _as_poly(sym, radicals=False):
    """The polynomial of a sympy tree that is a Laurent polynomial over
    QQ in its symbols and placeholders (expanded or not; a negative power
    only of a symbol or a placeholder), or None.

    With ``radicals``, for a canonical tree: the powers of ``_radical``s
    are generators too, and the polynomial is returned when it is in the
    form ``_reduce`` gives, which is then the form of the tree."""
    roots, stack = {}, [sym]
    while stack:
        node = stack.pop()
        if node.is_Add or node.is_Mul:
            stack.extend(node.args)
        elif node.is_Pow and node.exp.is_Integer and (
                node.exp.is_positive or node.base.is_Symbol or _is_placeholder(node.base)):
            stack.append(node.base)
        elif node.is_Symbol or node.is_Rational or _is_placeholder(node):
            pass
        elif radicals and node.is_Pow and node.exp.is_Rational and node.exp.q == 2 and (
                node.base.is_Add):
            roots[node.base] = t = _radical(_as_poly(node.base))
            if t is None:
                return None
        else:
            return None

    def build(node):
        if node.is_Add or node.is_Mul:
            op, start = (_add, _ZERO) if node.is_Add else (_mul, _ONE)
            return functools.reduce(op, map(build, node.args), start)
        if node.is_Pow and node.exp.is_Integer:
            return _power(build(node.base), int(node.exp))
        if node.is_Pow:
            return _power(_GEN[roots[node.base]].poly, int(node.exp.p))
        if node.is_Rational:
            return _number(QQ(int(node.p), int(node.q)))
        return _GEN[_gen(node)].poly

    P = build(sym)
    return P if not radicals or _reduce(P) is P else None


def _partial(g, x):
    """The id of ∂g/∂x of a placeholder generator g that takes the name
    x, built once.  A first partial is the tree ``sp.diff`` gives, put
    together without its checks; a partial of a partial is ``sp.diff``'s."""
    partials = _GEN[g].partials
    if x not in partials:
        f, x_ = _GEN[g].sym, sp.Symbol(x)
        partials[x] = _gen(Basic.__new__(sp.Derivative, f, sp.Tuple(x_, sp.S.One))
                           if isinstance(f, AppliedUndef) else sp.diff(f, x_))
    return partials[x]


def _pdiff(P, x):
    """∂P/∂x by the name x, before ``_reduce``.  A placeholder that takes x
    differentiates to the generator of its partial, and a radical
    t = u^(1/2) to (∂u/∂x)/2 · t⁻¹."""
    out = _Poly()
    for m, c in P.items():
        for k, (g, e) in enumerate(m):
            G = _GEN[g]
            if x not in G.free:
                continue
            rest = m[:k] + ((g, e - 1),) + m[k + 1:] if e != 1 else m[:k] + m[k + 1:]
            if G.kind == 0:
                terms = ((rest, c * e),)
            elif G.kind == 1:
                terms = ((_mono_mul(rest, ((_partial(g, x), 1),)), c * e),)
            else:
                if x not in G.partials:
                    G.partials[x] = _mul_term(_pdiff(G.radicand, x), ((g, -1),), _HALF)
                terms = ((_mono_mul(rest, n), c * e * d) for n, d in G.partials[x].items())
            for n, d in terms:
                out[n] = out.get(n, 0) + d
    for n in [n for n, d in out.items() if not d]:
        del out[n]
    return out


def _compose(P, values):
    """P with the generators of ``values`` replaced by their polynomials,
    or None where one of them has a negative exponent in P."""
    out, powers = _ZERO, {}
    for m, c in P.items():
        rest, term = [], _ONE
        for g, e in m:
            if g not in values:
                rest.append((g, e))
            elif e < 0:
                return None
            else:
                if (g, e) not in powers:
                    powers[g, e] = _power(values[g], e)
                term = _mul(term, powers[g, e])
        out = _add(out, _mul_term(term, tuple(rest), c))
    return out


def _is_radicand(U):
    """Whether the tree path keeps ``sqrt(U)`` as it stands: U is a
    polynomial in symbols of more than one term that sympy's term
    factoring leaves alone, with integer coefficients without a common
    factor, not all negative, and no generator dividing every term."""
    if len(U) < 2 or _is_laurent(U) or any(_GEN[g].kind for g in U.gens()):
        return False
    coeffs = U.values()
    return (all(c.denominator == 1 for c in coeffs) and math.gcd(*map(int, coeffs)) == 1
            and any(c > 0 for c in coeffs)
            and not frozenset.intersection(*[frozenset(g for g, _ in m) for m in U]))


def _radicand_tree(U):
    """``U.as_expr()`` for a polynomial U in symbols of two or more terms,
    built without an evaluated sum: each term is the ``Mul`` of its coefficient and
    powers, and ``_unevaluated_Add`` puts the number first and sorts the
    rest with ``_addsort``, as ``Add.flatten`` does.  The first evaluated
    sum of a process imports sympy's tensor and combinatorics packages."""
    return _unevaluated_Add(*[
        sp.Mul(QQ.to_sympy(c), *[sp.Pow(_GEN[g].sym, e) for g, e in m]) for m, c in U.items()])


def _radical(U):
    """The id of the generator ``sqrt(U)`` of a polynomial U, or None
    where U is None or not a radicand the tree path keeps whole
    (``_is_radicand``), recorded once for U's terms."""
    if U is None:
        return None
    key = frozenset(U.items())
    i = _IDS.get(key)
    return i if i is not None or not _is_radicand(U) else _record(key, radicand=U)


_NUMBER = (1, 0, "Number")  # sympy's class key of a number


def _sort_key(U, renames=None):
    """``sp.default_sort_key`` of the tree of a radicand U
    (``_radicand_tree``), its names renamed by ``renames``, from U's
    terms, with ``Fraction``s for sympy's numbers: (class key, (number of
    args, their keys), the exponent's key, the coefficient).  A sum's
    args are its terms in ``as_ordered_terms`` order, their exponents
    over the sorted names largest first (lex order), except a positive
    number beside one negative multiple of one power, which goes first;
    a power is keyed by its base's class, a product by its factors."""
    renames = renames or {}

    def power(name, e, c=1):
        return (2, 0, "Symbol"), (1, (name,)), (_NUMBER, (0, ()), (), e), c

    terms = [(tuple(sorted((renames.get(_GEN[g].name, _GEN[g].name), e) for g, e in m)),
              Fraction(int(c.numerator), int(c.denominator))) for m, c in U.items()]
    names = sorted({name for factors, _ in terms for name, _ in factors})
    terms.sort(key=lambda t: [dict(t[0]).get(name, 0) for name in names], reverse=True)
    if (len(terms) == 2 and not terms[1][0] and terms[1][1] > 0 and terms[0][1] < 0
            and len(terms[0][0]) == 1):
        terms.reverse()
    one = power(None, 1)[2]
    keys = tuple((_NUMBER, (0, ()), (), c) if not factors else power(*factors[0], c)
                 if len(factors) == 1 else ((3, 0, "Mul"), (len(factors), tuple(
                     power(*f) for f in factors)), one, c) for factors, c in terms)
    return (3, 1, "Add"), (len(keys), keys), one, 1


def _radicals_in(P):
    """The radicals that occur in P, in their order."""
    radicals = P.gens() & _RADICAL_IDS
    return sorted(radicals, key=lambda g: _GEN[g].order) if radicals else ()


def _is_multiple(P, U):
    """Whether P is a one-term multiple of U: P is its leading term over
    U's times U, leading in the lex order of the generators' ids."""
    if len(P) != len(U):
        return False
    gens = sorted(P.gens() | U.gens())

    def leading(F):
        return max(F.items(), key=lambda t: [dict(t[0]).get(g, 0) for g in gens])

    (m, c), (n, d) = leading(P), leading(U)
    return P == _mul_term(U, _mono_mul(m, tuple((g, -e) for g, e in n)), c / d)


def _reduce(P):
    """P in the form of the tree path, or None where that form leaves the
    polynomials.  For each radical t = u^(1/2) of P, t^(2k+r) becomes u^k·t^r,
    so P is A·t⁻¹ + B + C·t; a t part beside a t⁻¹ part folds into it,
    (A + C·u)·t⁻¹ + B, as the tree's common denominator t does.  None
    for a power t⁻² or lower, whose denominator u is not a monomial, and
    for A·t⁻¹ alone with A a one-term multiple of u, which the tree may
    or may not turn into that term times t.  P itself when it is in
    that form already."""
    for j in _radicals_in(P):
        parts = {}
        for m, c in P.items():
            e = dict(m).get(j, 0)
            parts.setdefault(e, _Poly())[tuple(f for f in m if f[0] != j)] = c
        low, high = min(parts), max(parts)
        U = _GEN[j].radicand
        if low < -1:
            return None
        if high <= 1 and not (low == -1 and high == 1):
            if low == -1 and high == -1 and _is_multiple(parts[-1], U):
                return None
            continue
        A, B, C = parts.get(-1, _ZERO), _ZERO, _ZERO
        for e, part in parts.items():
            if e >= 0:
                part = _mul(part, _power(U, e // 2))
                B, C = (B, _add(C, part)) if e % 2 else (_add(B, part), C)
        if A:
            A, C = _add(A, _mul(C, U)), _ZERO
            if not B and _is_multiple(A, U):
                return None
        P = _add(_add(_mul_term(A, ((j, -1),), 1), B), _mul_term(C, ((j, 1),), 1))
    return P


def _meets_radicand(*factors):
    """Whether a product of these factors may let the tree cancel a
    radicand against its radical: one factor is a one-term multiple of a
    radicand u and another holds 1/u^(1/2).  The tree path decides
    those."""
    inverted = {g for F in factors for m in F for g, e in m if e < 0 and _GEN[g].kind == 2}
    return any(_is_multiple(F, _GEN[j].radicand) for j in inverted for F in factors)


# ---------------------------------------------------------------------------
# Fraction-free elimination, for linear algebra
# ---------------------------------------------------------------------------


def _divide(P, D):
    """P / D for a nonzero D that divides the polynomial P exactly, by
    taking off leading terms, in the lex order of the generators' ids."""
    def lex(m):
        return [(-g, e) for g, e in m]

    lead = max(D, key=lex)
    inverse, c, quotient = tuple((g, -e) for g, e in lead), D[lead], _Poly()
    while P:
        m = max(P, key=lex)
        q, qc = _mono_mul(m, inverse), P[m] / c
        quotient[q] = qc
        P = _add(P, _mul_term(D, q, qc), -1)
    return quotient


def _eliminate(rows, n):
    """Bareiss's fraction-free Gaussian elimination of the first n
    columns of ``rows`` (lists of polynomials), in place: below each
    pivot, row i becomes (pivot·row i − its entry·pivot row) / the
    previous pivot, an exact division, so the last pivot is the
    determinant of the rows in their final order.  A zero pivot is
    swapped with the first nonzero one below it.  Returns the sign of
    the swaps, or 0 where a column has none (a singular matrix)."""
    sign, previous = 1, _ONE
    for k in range(n):
        if not rows[k][k]:
            i = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if i is None:
                return 0
            rows[k], rows[i], sign = rows[i], rows[k], -sign
        pivot = rows[k]
        for row in rows[k + 1:n]:
            for j in range(k + 1, len(row)):
                row[j] = _divide(_add(_mul(pivot[k], row[j]), _mul(row[k], pivot[j]), -1),
                                 previous)
        previous = pivot[k]
    return sign


# ---------------------------------------------------------------------------
# Expression
# ---------------------------------------------------------------------------


class Expression(Immutable):
    """An immutable expression in canonical form.

    A Laurent polynomial is held as a ``_Poly`` (``_poly``) and its
    sympy tree is built on first use; anything else is held as its
    canonical sympy tree (``_poly`` is None).  The wrapper is the public
    contract; the tree (``.sym``) is for this module and for tests.
    """

    __slots__ = ("_poly", "_sym", "_hash")

    def __init__(self, sym):
        if isinstance(sym, (str, float, bool)):
            raise ExprError("cannot build an exact expression from %r; parse text with "
                            "parse(), give numbers as int or Fraction" % (sym,))
        sym = sp.sympify(sym)
        poly = _as_poly(sym)
        if poly is None:
            sym = _canon(sym)
            # a fraction that reduced to a polynomial, or a radical's form
            poly = _as_poly(sym, radicals=True)
        self._set(poly, None if poly is not None else sym)

    def _set(self, poly, sym):
        object.__setattr__(self, "_poly", poly)
        object.__setattr__(self, "_sym", sym)  # for a polynomial, None until .sym
        object.__setattr__(self, "_hash", None)  # filled by hash()
        return self

    @classmethod
    def from_poly(cls, poly) -> "Expression":
        """The expression of a ``_Poly``."""
        return object.__new__(cls)._set(poly, None)

    def __reduce__(self):
        return Expression, (self.sym,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, value) -> "Expression":
        """``value`` if it is an Expression, else the Expression of an int,
        a Fraction or a sympy tree; text, floats and bools raise ExprError."""
        if isinstance(value, Expression):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return cls.number(value)
        return cls(value)

    @classmethod
    def number(cls, value) -> "Expression":
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ExprError("a number is an int or a Fraction, not %r; parse text "
                            "with parse()" % (value,))
        value = Fraction(value)
        return cls.from_poly(_number(QQ(value.numerator, value.denominator)))

    @classmethod
    def constant(cls, name: str) -> "Expression":
        Constant(name)
        return _generator(name)

    @classmethod
    def coordinate(cls, c: Coordinate) -> "Expression":
        return _generator(c.name)

    # -- introspection -----------------------------------------------------

    @property
    def sym(self):
        """The canonical sympy tree; for a polynomial, the tree ``sp.expand``
        gives, built from the polynomial once."""
        if self._sym is None:
            object.__setattr__(self, "_sym", self._poly.as_expr())
        return self._sym

    @property
    def is_zero(self) -> bool:
        return self._poly is not None and not self._poly

    @property
    def is_sum(self) -> bool:
        """Whether the canonical form has more than one term."""
        return len(self._poly) > 1 if self._poly is not None else self._sym.is_Add

    @property
    def is_rational_function(self) -> bool:
        """Whether there are no function atoms (placeholders are) and no
        fractional powers."""
        if self._poly is not None:
            return not any(_GEN[g].kind for g in self._poly.gens())
        return not self._sym.atoms(sp.Function) and all(
            p.exp.is_Integer for p in self._sym.atoms(sp.Pow))

    @property
    def has_placeholders(self) -> bool:
        P = self._poly
        if P is None:
            return bool(self._sym.atoms(AppliedUndef) or self._sym.atoms(sp.Derivative))
        return _holds(P, 1)

    def free_names(self) -> set:
        """The names the value depends on: a placeholder's arguments too."""
        P = self._poly
        return {s.name for s in self._sym.free_symbols} if P is None else _free(P)

    def free_coordinates(self) -> set:
        return {c for c in map(coordinate_of, self.free_names()) if c is not None}

    def free_constants(self) -> set:
        return {name for name in self.free_names() if coordinate_of(name) is None}

    # -- algebra -----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Expression):
            return other
        if isinstance(other, bool) or isinstance(other, float):
            raise TypeError("cannot mix %r into an exact expression" % other)
        if isinstance(other, (int, Fraction)):
            return Expression.number(other)
        return NotImplemented

    def _apply(self, other, op, swap=False):
        """``op`` on the polynomials when both sides are polynomials (and a
        divisor is a single term: ``/`` multiplies by its inverse), else on
        the trees.  Without a radical on either side the result is in the
        tree path's form already, so it needs no ``_reduce``."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = (o, self) if swap else (self, o)
        P, Q = a._poly, b._poly
        if P is not None and Q is not None and (op is not operator.truediv or len(Q) == 1):
            poly_op = op
            if op is operator.truediv:
                poly_op, Q = operator.mul, _power(Q, -1)
            if _RADICAL_IDS.isdisjoint(P.gens()) and _RADICAL_IDS.isdisjoint(Q.gens()):
                return Expression.from_poly(_OPS[poly_op](P, Q))
            if poly_op is not operator.mul or not _meets_radicand(P, Q):
                result = _reduce(_OPS[poly_op](P, Q))
                if result is not None:
                    return Expression.from_poly(result)
        return Expression(op(a.sym, b.sym))

    def __add__(self, other):
        return self._apply(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, operator.sub)

    def __rsub__(self, other):
        return self._apply(other, operator.sub, swap=True)

    def __mul__(self, other):
        return self._apply(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(other, operator.truediv)

    def __rtruediv__(self, other):
        return self._apply(other, operator.truediv, swap=True)

    def __pow__(self, other):
        if isinstance(other, Expression):
            other = _rational(other._poly)
            if other is None:
                raise ExprError("exponent must be rational")
        elif isinstance(other, (int, Fraction)):
            other = Fraction(other)
        else:
            return NotImplemented
        P, (p, q) = self._poly, (other.numerator, other.denominator)
        result = None
        if P is not None and q == 1 and (p >= 0 or len(P) == 1):
            result = _reduce(_power(P, p))
        elif P is not None and q == 2:
            t = _radical(P)
            if t is not None:
                result = _reduce(_power(_GEN[t].poly, p))
        if result is not None:
            return Expression.from_poly(result)
        return Expression(sp.Pow(self.sym, sp.Rational(p, q)))

    def __neg__(self):
        if self._poly is not None:
            return Expression.from_poly(_mul_term(self._poly, (), -1))
        return Expression(-self._sym)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression.number(other)
        if not isinstance(other, Expression):
            return NotImplemented
        P, Q = self._poly, other._poly
        if P is None or Q is None:
            return P is Q and self._sym == other._sym
        return P == Q

    def __hash__(self):
        if self._hash is None:
            P = self._poly
            object.__setattr__(self, "_hash", hash(self._sym) if P is None
                               else hash(frozenset(P.items())))
        return self._hash

    # -- operations --------------------------------------------------------

    def diff(self, v) -> "Expression":
        return diff(self, v)

    def subs(self, rules) -> "Expression":
        return substitute(self, rules)

    def evaluate(self, bindings) -> float:
        return evaluate(self, bindings)

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return "Expression(%s)" % to_text(self)


ZERO = Expression(0)
ONE = Expression(1)


def _generator(g) -> Expression:
    """A name or a placeholder's tree as a generator."""
    return Expression.from_poly(_GEN[_gen(g)].poly)


def _rational(P):
    """The Fraction a constant polynomial is, or None."""
    if P is not None and set(P) <= {()}:
        c = P.get((), QQ.zero)
        return Fraction(int(c.numerator), int(c.denominator))


def placeholders(names: Sequence[str], args: Sequence[Coordinate]) -> List[Expression]:
    """Opaque unknown functions of the given distinct coordinates, one
    per name.  The model reader declares a model's unknowns when a
    command first reads a candidate that holds one."""
    symbols = [c.symbol for c in args]
    if len(set(symbols)) != len(symbols):
        raise ExprError("a placeholder takes distinct coordinates")
    return [_generator(sp.Function(name)(*symbols)) for name in names]


def placeholder(name: str, args: Sequence[Coordinate]) -> Expression:
    """An opaque unknown function of the given distinct coordinates.

    Used by the residual reports when a candidate's components are left
    symbolic (the "?" components of a model file); prints as the bare name,
    with partial derivatives printed as d(name)/d(coord).
    """
    return placeholders([name], args)[0]


def placeholder_derivative(name: str, args: Iterable[Coordinate], wrt: Coordinate) -> Expression:
    f = sp.Function(name)(*[c.symbol for c in args])
    return Expression(sp.Derivative(f, wrt.symbol))


# ---------------------------------------------------------------------------
# diff / substitute / evaluate
# ---------------------------------------------------------------------------


def _as_name(v) -> str:
    """The name of a Coordinate, a name, or a sympy symbol."""
    if isinstance(v, str):
        return v
    if isinstance(v, (Coordinate, sp.Symbol)):
        return v.name
    raise ExprError("cannot differentiate/bind with respect to %r" % (v,))


def diff(e: Expression, v) -> Expression:
    """Exact partial derivative; distinct coordinates are independent."""
    x = _as_name(v)
    d = None if e._poly is None else _reduce(_pdiff(e._poly, x))
    return Expression(sp.diff(e.sym, sp.Symbol(x))) if d is None else Expression.from_poly(d)


def derivation(e: Expression, pairs) -> Expression:
    """Σ c·∂e/∂u over the (u, c) pairs, u a coordinate and c an Expression.

    On the polynomials when ``e`` and the ``c`` of the symbols it depends
    on (a placeholder's arguments and a radicand's names too) are
    polynomials; otherwise the sympy sum is built from the raw partials
    and canonicalized once.  With radicals, the sum is reduced once, as
    the tree is, and the tree path is taken where a partial or a product
    may take another form there (see ``_reduce`` and ``_meets_radicand``).
    """
    pairs = [(_as_name(u), c) for u, c in pairs]
    P = e._poly
    free = () if P is None else _free(P)
    hits = [(x, c) for x, c in pairs if x in free]
    if P is not None and all(c._poly is not None for _, c in hits):
        total = _poly_derivation(P, hits)
        if total is not None:
            return Expression.from_poly(total)
    total = sp.S.Zero
    for x, c in pairs:
        total += c.sym * sp.diff(e.sym, sp.Symbol(x))
    return Expression(total)


def _poly_derivation(P, hits):
    """Σ c·∂P/∂x over the hits, or None where the tree path decides: a
    partial or a product that ``_reduce`` or ``_meets_radicand`` sends
    there, or a t⁻² in a product."""
    total = _ZERO
    for x, c in hits:
        d = _pdiff(P, x)
        if not d:
            continue
        if _reduce(d) is None:
            return None
        c = c._poly
        term = _mul(c, d)
        radicals = _radicals_in(term)
        if _meets_radicand(c, d) or any(g in radicals and e < -1 for m in term for g, e in m):
            return None
        total = _add(total, term)
    return _reduce(total)


def substitute(e: Expression, rules: Mapping) -> Expression:
    """Simultaneous substitution; right-hand sides are not re-substituted.

    On the polynomials when ``e`` and the right-hand sides of the
    symbols that occur in it are polynomials, no substituted symbol has
    a negative exponent in ``e``, none is an argument of a placeholder or
    a name of a radicand of ``e``, and the result over radicals is in the
    form the tree takes (``_reduce``, ``_meets_radicand``); on the tree
    otherwise.  A rule that maps a variable of a placeholder's partial
    derivative to anything but a symbol raises ExprError naming that
    partial: the derivative of an unknown function by an expression is
    not defined.  A substitution that makes a denominator zero (or takes
    ln(0)), or takes a root or ln of a negative number, raises ExprError,
    as the parser does."""
    table = {_as_name(key): Expression.of(value) for key, value in rules.items()}
    P = e._poly
    if P is not None and not any(_GEN[g].kind and not _GEN[g].free.isdisjoint(table)
                                 for g in P.gens()):
        hits = {_IDS[x]: v._poly for x, v in table.items() if _IDS.get(x) in P.gens()}
        if not hits:
            return e
        if None not in hits.values():
            result = None if _meets_radicand(P, *hits.values()) else _compose(P, hits)
            result = None if result is None else _reduce(result)
            if result is not None:
                return Expression.from_poly(result)
    tree = e.sym
    for d in tree.atoms(sp.Derivative):
        for x in d.variables:
            if x.name in table and not table[x.name].sym.is_Symbol:
                raise ExprError("cannot substitute %s for %s in %s: a partial derivative is "
                                "taken by a coordinate" % (to_text(table[x.name]), x.name,
                                                           _derivative_text(d)))
    out = Expression(tree.xreplace({sp.Symbol(x): v.sym for x, v in table.items()}))
    # sympy evaluates a zero denominator to zoo (and 0*zoo to nan), and the
    # root or ln of a negative number to a multiple of I, without raising
    if out._poly is None and out._sym.has(sp.zoo, sp.nan):
        raise ExprError("division by zero (or ln(0)) substituting into %s" % to_text(e))
    if out._poly is None and out._sym.has(sp.I):
        raise ExprError("substituting into %s leaves the real numbers" % to_text(e))
    return out


def _domain_matrix(rows: Sequence[Sequence[Expression]]):
    """``(M, back)``: the rows' trees as a DomainMatrix ``M`` over the
    domain ``from_list_sympy`` picks for them, and ``back``, the map from
    its domain to Expressions."""
    M = DomainMatrix.from_list_sympy(len(rows), len(rows[0]) if rows else 0,
                                     [[e.sym for e in row] for row in rows])
    return M, lambda x: Expression(M.domain.to_sympy(x))


def solve_linear(rows: Sequence[Sequence[Expression]],
                 rhs: Sequence[Expression]) -> Tuple[Expression, ...]:
    """The exact solution x of rows · x = rhs.

    The augmented matrix [rows | rhs] is solved fraction-free, and each
    x_i is its numerator over the common denominator: over polynomials
    by ``_eliminate``, the last pivot, and back substitution, each
    numerator an exact quotient by its row's pivot.  A nonsingular
    system has one solution, so the result does not depend on the
    elimination order.  Raises SingularMatrixError when the matrix is
    singular.
    """
    n = len(rows)
    if len(rhs) != n or any(len(row) != n for row in rows):
        raise ExprError("solve_linear needs a square system")
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    polys = [[e._poly for e in row] for row in aug]
    if all(P is not None and not _is_laurent(P) and not _holds(P, 2)
           for row in polys for P in row):
        if n and not _eliminate(polys, n):
            raise SingularMatrixError("singular coefficient matrix in exact solve")
        den, num = polys[-1][n - 1] if n else _ONE, [None] * n
        for i in reversed(range(n)):
            total = _mul(den, polys[i][n])
            for j in range(i + 1, n):
                total = _add(total, _mul(polys[i][j], num[j]), -1)
            num[i] = _divide(total, polys[i][i])
        num, den = [Expression.from_poly(x) for x in num], Expression.from_poly(den)
    else:
        M, back = _domain_matrix(aug)
        try:
            num, den = M[:, :n].solve_den(M[:, n:])
        except DMNonInvertibleMatrixError:
            raise SingularMatrixError("singular coefficient matrix in exact solve") from None
        num, den = map(back, num.to_list_flat()), back(den)
    return tuple(x / den for x in num)


def determinant(rows: Sequence[Sequence[Expression]]) -> Expression:
    """The exact determinant of a square matrix of Expressions.

    When every entry is a polynomial, over the polynomials, radicals
    free generators: each row is multiplied by the monomial that clears
    its negative exponents, and the last pivot of ``_eliminate``, with
    the sign of its swaps, divided by those monomials, is reduced by
    ``_reduce``, which maps t² to u as the quotient ring QQ[…, t]/(t² − u)
    does, so the result is exact.  The entries' trees are taken where
    the result would leave the polynomials or a radicand may cancel
    against its radical (``_meets_radicand``)."""
    polys = [e._poly for row in rows for e in row]
    if polys and all(P is not None for P in polys) and not _meets_radicand(*polys):
        cleared, scale, entries = [], {}, iter(polys)
        for row in [[next(entries) for _ in row] for row in rows]:
            low = {}
            for g, e in (f for P in row for m in P for f in m if f[1] < 0):
                low[g] = min(low.get(g, 0), e)
            for g, e in low.items():
                scale[g] = scale.get(g, 0) + e
            clear = tuple(sorted((g, -e) for g, e in low.items()))
            cleared.append([_mul_term(P, clear, 1) for P in row])
        sign = _eliminate(cleared, len(rows))
        det = _mul_term(cleared[-1][-1], tuple(sorted(scale.items())), sign) if sign else _ZERO
        result = _reduce(det)
        if result is not None:
            return Expression.from_poly(result)
    M, back = _domain_matrix(rows)
    return back(M.det())


def _subtext(sym):
    if isinstance(sym, str):  # evaluated from a polynomial: the text itself
        return sym
    try:
        return _tree_text(sym)
    except ExprError:
        return sp.srepr(sym)


# Evaluation, at one point or at many at once.  A value is a float when
# it is the same at every point, else a column: a sequence of one float
# per point.  A point where a checked step fails holds NaN from there on,
# and its first error is kept in ``failures`` (point index -> exception);
# steps run in the order a recursive walk over the tree takes them, so
# that error is the one evaluating the point alone raises.  ``sym`` names
# the node, or its text, an error is raised in.

def _int_power(b, n, sym):
    if b == 0.0 and n < 0:
        raise DomainEvalError("division by zero", _subtext(sym))
    try:
        return b ** n
    except OverflowError:
        raise DomainEvalError("overflow", _subtext(sym)) from None


def _root(b, p, q, sym):
    if b < 0.0:
        raise DomainEvalError("fractional power of a negative value", _subtext(sym))
    if b == 0.0 and p < 0:
        raise DomainEvalError("division by zero", _subtext(sym))
    return b ** (p / q)


def _exp(x, sym):
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainEvalError("overflow", _subtext(sym)) from None


def _log(x, sym):
    if x <= 0.0:
        raise DomainEvalError("log of a non-positive value", _subtext(sym))
    return math.log(x)


def _fail_all(err, n, failures):
    """A step that fails alike at every point: its value, NaN."""
    for i in range(n):
        failures.setdefault(i, err)
    return math.nan


def _load(env, name, n, failures):
    """The value ``env`` binds to ``name``; an unbound name fails at every
    point."""
    try:
        return env[name]
    except KeyError:
        return _fail_all(UnboundSymbolError("unbound symbol %r" % name), n, failures)


def _ratio(p, q, n, failures):
    """p/q as a float; a number beyond the floats fails at every point."""
    try:
        return p / q
    except OverflowError as err:
        return _fail_all(err, n, failures)


def _each(step, base, args, n, failures):
    """``step(b, *args)`` at every point of ``base``."""
    if type(base) is float:
        try:
            return step(base, *args)
        except (ArithmeticError, ValueError) as err:
            return _fail_all(err, n, failures)
    out = []
    for i, b in enumerate(base):
        try:
            out.append(step(b, *args))
        except (ArithmeticError, ValueError) as err:
            failures.setdefault(i, err)
            out.append(math.nan)
    return out


def _int_powers(base, e, sym, n, failures):
    """``_int_power(b, e, sym)`` at every point of ``base``."""
    if type(base) is not float and (e > 0 or 0.0 not in base):
        try:  # the common case: no zero divisor and no overflow
            return [b ** e for b in base]
        except OverflowError:
            pass
    return _each(_int_power, base, (e, sym), n, failures)


def _pointwise(op, a, b):
    """op(a, b) at every point, a on the left."""
    if type(a) is float:
        if type(b) is float:
            return op(a, b)
        a = itertools.repeat(a)
    elif type(b) is float:
        b = itertools.repeat(b)
    return list(map(op, a, b))


def _children(sym, sort_key):
    """The sub-trees evaluating ``sym`` visits, in the order it visits them."""
    if sym.is_Add or sym.is_Mul:
        return sorted(sym.args, key=sort_key)
    if sym.is_Pow or sym.func in (sp.sin, sp.cos, sp.exp, sp.log):
        return sym.args[:1]
    return ()


@functools.lru_cache(maxsize=1024)
def _tree_walk(sym) -> list:
    """The distinct sub-trees of ``sym``, ``sym`` last, in the order a
    depth-first walk over ``_children`` first finishes them, each with
    the positions of its children in that list.

    So every operation, check and error comes in the order a recursive
    walk has them, and a repeated sub-tree is computed once.  The walks
    keep their own stacks and sort keys are computed leaves first, each
    from its children's cached keys, so no depth of nesting reaches the
    recursion limit.  Equal trees share one walk through a bounded memo.
    """
    keys = {}
    stack = [(sym, False)]
    while stack:
        node, done = stack.pop()
        if done:
            keys[node] = sp.default_sort_key(node)
        elif node not in keys:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    walk, position = [], {}
    stack = [(sym, None)]
    while stack:
        node, children = stack.pop()
        if node in position:
            continue
        if children is None:
            children = _children(node, keys.__getitem__)
            stack.append((node, children))
            stack.extend((c, None) for c in reversed(children))
        else:
            position[node] = len(walk)
            walk.append((node, [position[c] for c in children]))
    return walk


def _tree_values(sym, env, n, failures):
    """The value of the canonical tree ``sym`` at the n points of ``env``,
    which binds each name to a float or a column: its sub-trees in
    ``_tree_walk`` order, each computed from its children's values."""
    values = []
    for node, children in _tree_walk(sym):
        values.append(_node_values(node, [values[i] for i in children], env, n, failures))
    return values[-1]


def _node_values(node, args, env, n, failures):
    """The value of one node, its children's values being ``args``: each
    sum from 0.0 and each product from 1.0, operands in order."""
    if node.is_Rational:
        return _ratio(node.p, node.q, n, failures)
    if node.is_Symbol:
        return _load(env, node.name, n, failures)
    if node.is_Add or node.is_Mul:
        op, value = (operator.add, 0.0) if node.is_Add else (operator.mul, 1.0)
        for arg in args:
            value = _pointwise(op, value, arg)
        return value
    if node.is_Pow:
        exp = node.args[1]
        if not exp.is_Rational:
            template = "non-rational exponent in %s"
        elif exp.is_Integer:
            return _int_powers(args[0], exp.p, node, n, failures)
        else:
            return _each(_root, args[0], (exp.p, exp.q, node), n, failures)
    elif isinstance(node, (AppliedUndef, sp.Derivative)):
        template = "placeholder %s cannot be evaluated numerically"
    elif node.func in (sp.sin, sp.cos):
        return _each(getattr(math, node.func.__name__), args[0], (), n, failures)
    elif node.func is sp.exp:
        return _each(_exp, args[0], (node,), n, failures)
    elif node.func is sp.log:
        return _each(_log, args[0], (node,), n, failures)
    elif node is sp.E:
        return math.e
    else:
        template = "cannot evaluate %s"
    return _fail_all(ExprError(template % _subtext(node)), n, failures)


def _poly_values(P, env, n, failures, values):
    """The value of P, a polynomial without placeholders, at the n points
    of ``env``, which binds each name to a float or a column.

    These are the operations, checks and errors ``_tree_values`` takes
    over P's tree: the terms in ``P.walk_order()``, each product from 1.0
    (its coefficient, then its factors), the sum of two or more terms
    from 0.0.  A negative power is one ``_int_power`` of its name, named
    ``1/x^n`` as the tree's node is; a radical's power is one ``_root``
    of its radicand, computed from the radicand's terms, named
    ``sqrt(u)`` or ``1/sqrt(u)``.  Each load and power is computed once
    (``values``), the first time the walk reaches it, inside a radicand
    or outside it, as ``_tree_walk`` computes each distinct sub-tree
    once.  A number beyond the floats fails at every point where the
    walk first reaches it, so reaching it again changes nothing.
    """
    def number(c):
        return _ratio(int(c.numerator), int(c.denominator), n, failures)

    def power(g, e):
        if ("p", g, e) not in values:
            G = _GEN[g]
            if G.kind == 2:
                if ("u", g) not in values:
                    values["u", g] = _poly_values(G.radicand, env, n, failures, values)
                values["p", g, e] = _each(_root, values["u", g], (
                    e, 2, G.text if e == 1 else "1/" + G.text), n, failures)
            elif e == 1:
                values["p", g, e] = _load(env, G.text, n, failures)
            else:
                text = _power_text(G.text, abs(e))
                values["p", g, e] = _int_powers(power(g, 1), e, text if e > 0 else "1/" + text,
                                                n, failures)
        return values["p", g, e]

    operands = []
    for c, factors in P.walk_order():
        if not factors:
            operands.append(number(c))
        elif len(factors) == 1 and c is None:
            operands.append(power(*factors[0]))
        else:
            value = 1.0 if c is None else 1.0 * number(c)
            for g, e in factors:
                value = _pointwise(operator.mul, value, power(g, e))
            operands.append(value)
    if len(operands) < 2:
        return operands[0] if operands else 0.0
    value = 0.0
    for operand in operands:
        value = _pointwise(operator.add, value, operand)
    return value


def _values(e: Expression, env, n, failures):
    """The value of e at the n points of ``env``: from its terms if it is
    a polynomial without placeholders, else from its tree."""
    if e._poly is not None and not e.has_placeholders:
        return _poly_values(e._poly, env, n, failures, {})
    return _tree_values(e.sym, env, n, failures)


def evaluate(e: Expression, bindings: Mapping) -> float:
    """Pointwise IEEE-double evaluation; same bindings give the same bits.

    The one-point case of ``_values``: a polynomial without placeholders
    is evaluated from its terms, any other expression from its canonical
    tree.  Both keep the summation and multiplication order of a
    recursive walk over the tree (each sum starts from 0.0 and each
    product from 1.0, operands in ``default_sort_key`` order), so the bits
    do not depend on the path.

    Raises UnboundSymbolError for a missing binding (the first one the
    walk reaches) and DomainEvalError (carrying the offending
    subexpression) for a fractional power of a negative value, division
    by zero, overflow in a power or ``exp``, or log of a non-positive
    value.
    """
    failures = {}
    value = _values(e, _env(bindings), 1, failures)
    if failures:
        raise failures[0]
    return value


def _env(bindings) -> dict:
    """Bindings by name, as floats."""
    return {_as_name(key): float(value) for key, value in bindings.items()}


def _column(value, n):
    """A value as a column of n floats."""
    return [value] * n if type(value) is float else value


def row_evaluator(exprs: Sequence[Expression], names: Sequence[str]):
    """A function ``run(columns, bindings)`` that evaluates ``exprs`` at
    rows of points given as columns: ``columns`` holds one list of
    floats per name of ``names`` (at least one), and ``bindings`` binds
    the rest.

    It returns ``(values, good, error)``: one list of floats per
    expression, the number of rows before the first row at which some
    expression fails, and what ``evaluate`` raises at that row, the error
    of the first expression, in the order of ``exprs``, that fails there
    (None when none fails).  The columns are evaluated at once
    (``_values``), so every value has ``evaluate``'s bits.
    """
    def run(columns, bindings):
        env, n, failures = _env(bindings), len(columns[0]), {}
        env.update(zip(names, columns))
        values = [_column(_values(e, env, n, failures), n) for e in exprs]
        good = min(failures, default=n)
        return values, good, failures.get(good)

    return run


def sample_values(exprs: Sequence[Expression], samples: int, seed: int,
                  fixed: Mapping[str, object] = None):
    """Yield the tuple of values of ``exprs`` at seeded random points.

    Names free in ``exprs`` and not bound by ``fixed`` are drawn in sorted
    order, uniform in [-2, 2].  The points are drawn a batch at a time,
    as many as are still wanted, and evaluated as columns (``_values``).
    A point where some expression raises DomainEvalError, OverflowError
    (an exact number beyond the floats) or a bare ValueError (``sin`` or
    ``cos`` of an infinity), or where some value is NaN (``inf - inf``
    after an overflow), is skipped: a NaN compares false with everything,
    so the max or min of a list holding one depends on its order.  An
    infinity is a value.  Every other ExprError, an unbound symbol first
    of all, is raised at the first point where it is the first error.
    Stops after ``samples`` points or ``200 * samples`` attempts,
    whichever comes first.  With no name to draw every attempt is the
    same point, which is evaluated once.
    """
    fixed = fixed or {}
    names = sorted(set().union(*(e.free_names() for e in exprs)) - set(fixed))
    try:
        env = _env(fixed)
    except ExprError:
        raise
    except (ValueError, OverflowError):  # no point can be evaluated
        return
    draw = random.Random(seed).random
    got = attempts = 0
    while got < samples and attempts < 200 * samples:
        n = min(samples - got, 200 * samples - attempts) if names else 1
        attempts += n
        draws = [-2.0 + 4.0 * draw() for _ in range(n * len(names))]  # uniform(-2, 2)'s bits
        env.update((name, draws[j::len(names)]) for j, name in enumerate(names))
        failures = {}
        columns = [_column(_values(e, env, n, failures), n) for e in exprs]
        skipped = set(failures).union(*({i for i, v in enumerate(c) if v != v}  # NaN
                                         for c in columns))
        for i, values in enumerate(zip(*columns)):
            if i in skipped:
                err = failures.get(i)
                if isinstance(err, ExprError) and not isinstance(err, DomainEvalError):
                    raise err
                if not names:
                    return
                continue
            got += 1
            yield values
            if not names:
                yield from itertools.repeat(values, samples - 1)
                return
            if got == samples:
                return


def probably_equal(a: Expression, b: Expression, samples: int = 20,
                   rel_tol: float = 1e-9, seed: int = 42) -> bool:
    """Randomized numeric equality fallback (never silently replaces ==):
    the two sides agree at `samples` points drawn by ``sample_values``."""
    good = 0
    for va, vb in sample_values((a, b), samples, seed):
        scale = max(1.0, abs(va), abs(vb))
        if abs(va - vb) > rel_tol * scale:
            return False
        good += 1
    if good < samples:
        raise ExprError("could not find enough domain-valid sample points")
    return True


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+(?:\.\d+)?)|(?P<name>[a-z][a-z0-9_]*)|(?P<op>[-+*/^()])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprSyntaxError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# The most terms canonicalizing one parsed expression may expand to.
TERM_LIMIT = 1000
_COUNT_CAP = TERM_LIMIT ** 2  # term counts stop growing past this


def _power_count(m, n):
    """C(m+n-1, n), the terms of an m-term sum to the power n, computed one
    factor at a time and at most one past _COUNT_CAP."""
    a, b = max(n, m - 1), min(n, m - 1)
    count = 1
    for i in range(1, b + 1):
        count = count * (a + i) // i
        if count > _COUNT_CAP:
            break
    return min(count, _COUNT_CAP + 1)


class _Parser:
    """Recursive descent; each rule returns (value, count).

    A value is an Expression, built with the library's own arithmetic
    (``+ - * /``, ``**`` by an int or a Fraction, functions applied to
    its tree), so it is canonical when it enters and ``parse`` returns
    what building the text from its atoms with those operations gives.
    The checks read operands that are already canonical.  ``count``
    bounds the terms expanding the value gives: counts add over a sum (a
    polynomial sum counts its own terms), multiply over a product or
    quotient, an m-term base to the integer power ±n counts C(m+n-1, n),
    and anything else counts one.
    """

    def __init__(self, tokens, table: SymbolTable):
        self.tokens = tokens
        self.table = table
        self.i = 0

    def bounded(self, count, pos):
        """``count``, unless it passes TERM_LIMIT terms."""
        if count > TERM_LIMIT:
            shown = "more than %d" % _COUNT_CAP if count > _COUNT_CAP else "%d" % count
            raise ExprSyntaxError("expanding this gives %s terms, over the limit of %d"
                                  % (shown, TERM_LIMIT), pos)
        return count

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ExprSyntaxError("expected %r" % op, pos)

    def parse(self):
        e, _ = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected %r" % value, pos)
        return e

    def expr(self):
        e, count = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs, n = self.term()
                e = e + rhs if value == "+" else e - rhs
                count = len(e._poly) if e._poly is not None else min(
                    count + n, _COUNT_CAP + 1)
            else:
                return e, count

    def term(self):
        e, count = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs_pos = self.peek()[2]
                rhs, n = self.factor()
                if value == "/" and rhs.is_zero:
                    raise ExprSyntaxError("division by zero", rhs_pos)
                count = self.bounded(min(count * n, _COUNT_CAP + 1), rhs_pos)
                e = e * rhs if value == "*" else e / rhs
            else:
                return e, count

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            inner, count = self.factor()
            return (inner if value == "+" else -inner), count
        return self.power()

    def power(self):
        base_pos = self.peek()[2]
        base, count = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exp = self.exponent()
            if exp < 0 and base.is_zero:
                raise ExprSyntaxError("division by zero", base_pos)
            if exp.denominator == 1:
                count = self.bounded(_power_count(count, abs(exp.numerator)), base_pos)
            else:
                _require_real_root(base, base_pos)
                count = 1
            return base ** exp, count
        return base, count

    def exponent(self):
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            if value == "-":
                sign = -1
            kind, value, pos = self.peek()
        if kind == "num":
            self.next()
            return sign * Fraction(value)
        if kind == "op" and value == "(":
            self.next()
            inner, _ = self.expr()
            self.expect_op(")")
            value = _rational(inner._poly)
            if value is None:
                raise ExprSyntaxError("exponent must be a rational number", pos)
            return sign * value
        raise ExprSyntaxError("expected an exponent", pos)

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return Expression.number(Fraction(value)), 1
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in _FUNCTIONS:
                    raise ExprSyntaxError("unknown function %r" % value, pos)
                self.next()
                arg_pos = self.peek()[2]
                arg, _ = self.expr()
                self.expect_op(")")
                if value == "sqrt":
                    _require_real_root(arg, arg_pos)
                    return arg ** Fraction(1, 2), 1
                if value == "ln" and arg.sym.is_number and not arg.sym.is_positive:
                    raise ExprSyntaxError("ln of a non-positive number", pos)
                return Expression(_FUNCTIONS[value](arg.sym)), 1
            return self.resolve(value, pos), 1
        raise ExprSyntaxError("unexpected %r" % value, pos)

    def resolve(self, name, pos):
        if _COORD_RE.match(name):
            coord = Coordinate.from_name(name)
            if coord in self.table.coordinates:
                return _generator(name)
            if coord.kind == "momentum" and not self.table.has_momenta:
                raise UnknownSymbolError(
                    "momentum coordinate %r is not available in this jet-only context" % name
                )
            raise UnknownSymbolError("coordinate %r is outside the declared universe" % name)
        if name in self.table.constants:
            return _generator(name)
        raise UnknownSymbolError("unknown identifier %r" % name)


def _require_real_root(base, pos):
    P = base._poly  # a polynomial is read without building its tree
    negative = (len(P) == 1 and P.get((), 0) < 0) if P is not None else (
        base.sym.is_number and base.sym.is_negative)
    if negative:
        raise ExprSyntaxError("root of a negative number", pos)


def parse(text: str, table: SymbolTable) -> Expression:
    """Parse the expression grammar against a coordinate universe: a
    SymbolTable, or a space, whose coordinates make a table without
    constants.

    Grammar: rational/decimal literals, named constants, coordinates
    q<i>_<A> / p<i>_<A>, operators + - * / ^ (with ^ binding tighter than *),
    functions sqrt sin cos exp ln, parentheses, unary minus.  Each value
    is built with Expression arithmetic as it is parsed, so it enters
    canonical.  Division by a divisor whose
    canonical form is 0, ln of a number that is not positive, sqrt or a
    fractional power of a negative number, a power or product whose
    expansion would pass TERM_LIMIT terms (counted by the parser before
    anything is multiplied), and nesting deeper than the interpreter's
    recursion limit raise ExprSyntaxError.
    """
    if not isinstance(table, SymbolTable):
        table = SymbolTable(table.coordinates)
    tokens = _tokenize(text)
    parser = _Parser(tokens, table)
    try:
        return parser.parse()
    except RecursionError:
        pos = tokens[min(parser.i, len(tokens) - 1)][2]
        raise ExprSyntaxError("expression nested too deeply", pos) from None


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _atom_label(f):
    if isinstance(f, AppliedUndef):
        return f.func.__name__
    return _FUNC_LABEL.get(f.func, getattr(f.func, "__name__", "?"))


def _name_atom(name):
    """(sort key, text) of a name: constants first by name, then jet
    coordinates, then momenta, by (order, axis)."""
    c = coordinate_of(name)
    if c is None:
        return (1, name), name
    return (2 if c.kind == "jet" else 3, (c.order, c.axis)), name


def _atom(base):
    """(sort key, text) of a base that is not a number, sum, product or power."""
    if base.is_Symbol:
        return _name_atom(base.name)
    if isinstance(base, sp.Derivative):
        key = (5, _atom_label(base.expr), tuple(map(_name, base.variables)))
        return key, _derivative_text(base)
    if isinstance(base, AppliedUndef):
        return (4, _atom_label(base), tuple(map(_name, base.args))), base.func.__name__
    if base.is_Function and base.func in _FUNC_LABEL:
        label = _FUNC_LABEL[base.func]
        key = (4, label, tuple(str(a) for a in base.args))
        return key, "%s(%s)" % (label, _tree_text(base.args[0]))
    if base is sp.E:  # what exp(1) evaluates to
        return (7, sp.srepr(base)), "exp(1)"
    raise ExprError("cannot print %s" % sp.srepr(base))


def _name(x) -> str:
    """``str(x)``, read off a symbol without the printer."""
    return x.name if type(x) is sp.Symbol else str(x)


def _derivative_text(d):
    label = _atom_label(d.expr)
    variables = []
    for v, count in d.variable_count:
        variables.extend([_name(v)] * int(count))
    if len(variables) == 1:
        return "d(%s)/d(%s)" % (label, variables[0])
    return "d%d(%s)/(%s)" % (
        len(variables),
        label,
        "*".join("d(%s)" % v for v in variables),
    )


def _factor(base, exp):
    """(sort key of the base, text of base^exp) for a positive rational
    exponent.  The base is rendered once; a sum's text is also its key."""
    if base.is_Rational:
        key = (0, _frac(base))
        text = str(base.p) if base.q == 1 else "%d/%d" % (base.p, base.q)
        bare = base.q == 1 and base.p >= 0
    elif base.is_Add or base.is_Mul or base.is_Pow:
        text = _tree_text(base)
        key = (6, text) if base.is_Add else (7, sp.srepr(base))
        bare = False
    else:
        key, text = _atom(base)
        bare = True
    if exp == sp.S.Half:
        return key, "sqrt(%s)" % text
    body = text if bare else "(%s)" % text
    if exp == 1:
        return key, body
    if exp.q == 1:
        return key, "%s^%d" % (body, exp.p)
    return key, "%s^(%d/%d)" % (body, exp.p, exp.q)


def _term(term):
    """(sort key, negative, text) of one term of a canonical sum."""
    coeff, rest = term.as_coeff_Mul(rational=True)
    if not coeff.is_Rational:
        raise ExprError("non-rational coefficient %s" % coeff)
    factors = []
    for f in sp.Mul.make_args(rest):
        if f == 1:
            continue
        # exp(x) is a function atom, not the base E to the power x
        base, exp = (f, sp.S.One) if isinstance(f, sp.exp) else f.as_base_exp()
        if not exp.is_Rational:
            raise ExprError("non-rational exponent in %s" % f)
        key, text = _factor(base, abs(exp))
        factors.append(((key, -_frac(exp)), exp > 0, text))
    factors.sort(key=lambda item: item[0])
    nonconst = tuple(k for k, _, _ in factors if k[0][0] >= 2)
    const = tuple(k for k, _, _ in factors if k[0][0] < 2)
    key = (1 if not nonconst else 0, nonconst, const, _frac(coeff))
    num_parts = [text for _, up, text in factors if up]
    den_parts = [text for _, up, text in factors if not up]
    return key, coeff < 0, _product_text(abs(int(coeff.p)), int(coeff.q), num_parts, den_parts)


def _product_text(p, q, num_parts, den_parts) -> str:
    """The text of the coefficient p/q (p >= 0) times the numerator's
    factor texts over the denominator's."""
    if not den_parts:
        if q > 1:
            num_parts = ["%d/%d" % (p, q)] + num_parts
        elif p != 1 or not num_parts:
            num_parts = [str(p)] + num_parts
        return "*".join(num_parts)
    if p != 1 or not num_parts:
        num_parts = [str(p)] + num_parts
    den_items = ([str(q)] if q > 1 else []) + den_parts
    den_text = den_items[0] if len(den_items) == 1 else "(%s)" % "*".join(den_items)
    return "%s/%s" % ("*".join(num_parts), den_text)


def _sum_text(terms) -> str:
    """The text of a sum of ``_term`` triples, in the order of their keys."""
    pieces = []
    for idx, (_, negative, body) in enumerate(sorted(terms, key=lambda t: t[0])):
        if idx == 0:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


def _tree_text(sym) -> str:
    """Render a canonical tree: every sub-tree is rendered once, as it
    stands, without canonicalizing it again."""
    if sym == 0:
        return "0"
    return _sum_text(_term(t) for t in sp.Add.make_args(sym))


def _power_text(name, e) -> str:
    return name if e == 1 else "%s^%d" % (name, e)


def _poly_text(P) -> str:
    """``_tree_text(P.as_expr())``, rendered from the terms of P: each
    term's ``_term`` key and text, built from its exponents (a negative
    one goes to the denominator)."""
    if not P:
        return "0"
    terms = []
    for monom, coeff in P.items():
        nonconst, const, num, den = [], [], [], []
        for G, e in sorted(((_GEN[g], e) for g, e in monom), key=lambda f: f[0].printed):
            (nonconst if G.is_coordinate else const).append((G.key, -e))
            (num if e > 0 else den).append(_power_text(G.text, abs(e)))
        key = (1 if not nonconst else 0, tuple(nonconst), tuple(const), coeff)
        text = _product_text(abs(int(coeff.numerator)), int(coeff.denominator), num, den)
        terms.append((key, coeff < 0, text))
    return _sum_text(terms)


def to_text(e) -> str:
    """Deterministic canonical rendering in the module grammar."""
    e = Expression.of(e)
    return _tree_text(e._sym) if e._poly is None else _poly_text(e._poly)


# ---------------------------------------------------------------------------
# Python source for generated numeric code
# ---------------------------------------------------------------------------


class _StepPrinter(PythonCodePrinter):
    def __init__(self):
        super().__init__({"fully_qualified_modules": False, "inline": True,
                          "allow_unknown_functions": True})

    def _module_format(self, fqn, register=True):
        name = super()._module_format(fqn, register)
        return "_math." + name if fqn.startswith("math.") else name


def _python_key(g, renames):
    """Where ``_StepPrinter`` sorts the generator g: names as printed,
    so a renamed keyword first, then placeholders, then radicals by
    their renamed radicands' ``default_sort_key``."""
    G = _GEN[g]
    if G.kind == 0:
        return 0, renames.get(G.name, G.name)
    if G.kind == 2 and not G.free.isdisjoint(renames):
        return 2, _sort_key(G.radicand, renames)
    return G.order


def _rational_python(c) -> str:
    p, q = int(c.numerator), int(c.denominator)
    return str(p) if q == 1 else "%d/%d" % (p, q)


def _python_text(P, renames, texts) -> str:
    """``_StepPrinter().doprint(P.as_expr())`` written from the terms of P,
    its names renamed by ``renames``; ``texts`` holds the text of each
    generator printed so far: a name as printed, a radical's
    ``_math.sqrt`` of its radicand.

    The printer orders a sum's terms by their exponents over the
    generators in ``_python_key`` order, largest first (lex order),
    except a positive number beside one negative multiple of one power,
    which goes first.  A term is its number, a lone power (``x``,
    ``x**2``, ``1/x``, ``x**(-2)``), or a product: the sign, the
    coefficient unless it is 1 (a fraction in parentheses unless the
    sign precedes it and other factors follow it), the positive powers,
    then ``/`` and the negative ones, in parentheses when there are
    several."""
    def text(g):
        if g not in texts:
            G = _GEN[g]
            texts[g] = (renames.get(G.name, G.name) if G.kind == 0 else
                        "_math.sqrt(%s)" % _python_text(G.radicand, renames, texts))
        return texts[g]

    def power(g, e):
        return text(g) if e == 1 else "%s**%d" % (text(g), e)

    if not P:
        return "0"
    order = sorted(P.gens(), key=lambda g: _python_key(g, renames))
    terms = sorted(((tuple(dict(m).get(g, 0) for g in order), c) for m, c in P.items()),
                   reverse=True)
    if (len(terms) == 2 and not any(terms[1][0]) and terms[1][1] > 0 and terms[0][1] < 0
            and sum(map(bool, terms[0][0])) == 1):
        terms.reverse()
    pieces = []
    for monom, c in terms:
        factors = [(g, e) for g, e in zip(order, monom) if e]
        if not factors:
            text_ = _rational_python(c)
        elif c == 1 and len(factors) == 1:
            (g, e), = factors
            text_ = (power(g, e) if e > 0 else "1/" + text(g) if e == -1
                     else "%s**(%d)" % (text(g), e))
        else:
            sign = "-" if c < 0 else ""
            num = [power(g, e) for g, e in factors if e > 0]
            den = [power(g, -e) for g, e in factors if e < 0]
            if abs(c) != 1:
                coeff = _rational_python(abs(c))
                num.insert(0, coeff if "/" not in coeff or sign and num else "(%s)" % coeff)
            text_ = sign + "*".join(num or ["1"]) + (
                "" if not den else "/" + den[0] if len(den) == 1 else "/(%s)" % "*".join(den))
        pieces += ["-", text_[1:]] if text_.startswith("-") else ["+", text_]
    return ("-" if pieces[0] == "-" else "") + " ".join(pieces[1:])


def step_texts(exprs: Sequence[Expression],
               constant_names: Sequence[str]) -> Tuple[List[str], List[str]]:
    """``(texts, params)``: the Python source of each expression, and the
    parameter name of each constant, for a generated function that binds
    the coordinates by name and ``_math`` to the math module.

    A text is what sympy prints for a math-module function
    (``PythonCodePrinter`` with ``fully_qualified_modules=False``,
    ``inline=True``, ``allow_unknown_functions=True``), with each math
    function as ``_math.<name>``.  A polynomial without
    placeholders is written from its terms (``_python_text``) without
    building its tree; the printer, built only for them, prints the
    rest.  A constant whose name is a keyword is renamed ``_<name>``, a
    name that sorts before every other name, in the text and in
    ``params``.
    """
    renames = {n: "_" + n for n in constant_names if keyword.iskeyword(n)}
    printer, texts, generators = None, [], {}
    for e in exprs:
        P = e._poly
        if P is None or e.has_placeholders:
            printer = printer or _StepPrinter()
            texts.append(printer.doprint(e.sym.xreplace(
                {sp.Symbol(n): sp.Symbol(new) for n, new in renames.items()})))
        else:
            texts.append(_python_text(P, renames, generators))
    return texts, [renames.get(n, n) for n in constant_names]
