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
  of those roots) is *ring-backed*, an element of a
  ``sympy.polys.rings`` ring over QQ whose monomials may carry negative
  exponents.  Each ring is a ``_Ring``: sympy's ``PolyRing``, equal to
  it and hashing the same, whose monomial arithmetic is generic instead
  of the code sympy generates and compiles for each generator count, so
  a ring costs little to build cold.  Its generators are symbols,
  sorted by name, then placeholders: an unknown function ``s2_1(q0_1,
  …)`` of distinct coordinates, or sympy's ``Derivative`` of one, then
  radicals ``t = u^(1/2)`` by their radicands.  ``+ - *``, ``/`` by a single
  term (a product with its inverse), integer ``^`` (negative only of a
  single term), ``diff``, ``substitute`` with ring-backed right-hand
  sides, ``==``, ``hash`` and the queries (free names,
  ``has_placeholders``, ``is_rational_function``) stay in the ring.  A
  placeholder differentiates to the generator of its partial, or to 0
  for a coordinate it does not take; the partial joins the ring, with
  the placeholder's other first partials, when it is not in it yet.  A
  placeholder contributes its arguments to the free names.
* Radicals: ``u^(k/2)`` of a ring element u is a power of the generator
  ``t = u^(1/2)``, built once for u's terms (with u's canonical tree,
  its sympy symbol), when u is a polynomial in symbols of more than one
  term that sympy's term factoring leaves as it stands, which u's terms
  tell: integer coefficients without a common factor, not all
  negative, and no generator dividing every term.  Its ring holds u's
  names, and t contributes them to the free names.  After every
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
* The tree path is also taken where sympy's ring code assumes
  non-negative exponents (``substitute`` for a substituted symbol with
  a negative exponent, ``solve_linear`` over a Laurent entry) and where
  a placeholder's argument is substituted.  ``parse`` builds into one
  ring per SymbolTable, over the names of the table it was restricted
  from, which becomes those names' *home*: ``Expression.coordinate``
  and ``constant`` give a name as a generator of the ring of the table
  that last built one over it (else of a ring of its own).  The model
  reader gives a model's tables one ring over every name its objects
  can carry, so a model's polynomials and the coordinates library code
  builds share one ring (with a radical, that ring and the radical),
  and its placeholders another: their home, that ring with the
  placeholders and their first partials, which ``placeholders`` builds
  when it declares them.  Elements of two
  rings meet in their union, and no result depends on the ring that
  holds an element.  Every Laurent polynomial is ring-backed, whatever
  built it (a ``cancel`` that reduces to one, or ``Expression(sym)`` on
  a raw tree too), and so is every canonical tree in the radicals'
  form, so ``==`` and ``hash`` agree.  Everything else (``sin cos exp
  ln``, denominators that are not monomials, placeholders of other
  arguments, the radical fallbacks above) is its canonical sympy tree.
* A ring-backed expression builds its tree (``.sym``) only on demand:
  for arithmetic with a non-polynomial, solves over non-polynomials or
  Laurent entries, and ``evaluate`` and ``step_texts`` of a placeholder
  (which compile and print the tree, so an error names the node it
  always named).  It is the tree ``_canon`` gives, the expanded sum (a
  monomial denominator is atomic).  Printing, ``evaluate`` and
  ``step_texts`` read the ring element's terms and give the text, the
  compiled source and the Python text that tree gives; a radical
  compiles as the ``_root`` of its radicand's terms.
  Ring and tree stay inside this module: no other module of the package
  reads them or imports sympy.
* ``Expression.of`` is the one way in for a value that is not parsed.
  It and the constructor refuse text, floats and bools.
* Canonical form of a tree: an expression whose denominator is a
  rational number is expanded and nothing more.  Any other fraction is
  reduced to a normal form p/q with ``together``/``cancel`` (expanded
  numerator, no common factors); when the denominator is a product of
  atomic factors the fraction is distributed over the numerator's terms,
  which for a monomial denominator is the Laurent element's tree, so a
  ring-backed value never reaches this path.
  Function applications and fractional powers are opaque atoms — no
  radical or trig identities are applied beyond ``x^(1/2) == sqrt(x)``.
  The constructor is its one door; it is memoized, so an atom built from
  canonical children is canonicalized once.
* ``==`` and ``hash`` compare canonical forms (ring elements, or trees)
  and nothing else, so two forms of one radical expression
  (``1/(sqrt(x) + 1)`` and ``(sqrt(x) - 1)/(x - 1)``) are unequal;
  ``(a - b).is_zero`` is the semantic test.
* Printing is deterministic: terms are emitted in a fixed total order
  (coordinate content first — jets before momenta, then by (order, axis),
  exponents descending — named constants as tiebreak, pure-constant terms
  last) and ``parse(print(e)) == e`` for every expression the parser
  accepts.  The printer renders the canonical tree as it stands, without
  canonicalizing sub-trees again, and renders each sub-tree once: a
  sum's text is both its sort key and its output.  A ring-backed
  expression is rendered from its terms, each term's sort key built from
  its exponents and each generator's key and text computed once per ring.
  ``exp(x)`` is a function atom, sympy's ``E`` prints as ``exp(1)``, and
  a radical of a sum, product or power prints its base in parentheses.
* ``evaluate`` compiles an expression into straight-line Python the first
  time it is called on it and caches the function on the instance.  The
  compiled form keeps the summation and multiplication order of a
  recursive walk over the tree (operands in ``default_sort_key`` order),
  so its bits are the walk's bits, and it checks and raises where the
  walk would.  A ring-backed expression is compiled from its terms, put
  in the order that walk takes, into the same source.
* The parser builds every value with Expression arithmetic, so values
  enter canonical and ``parse(text)`` equals what that arithmetic builds
  from the text's atoms.  It bounds the number of terms an expansion may
  produce (``TERM_LIMIT``) before it expands or multiplies anything.
* ``solve_linear`` and ``determinant`` are the package's exact linear
  algebra, over the entries' polynomial ring when every entry is a
  polynomial (no negative exponent, no radical), else over the domain
  sympy picks for their trees; ``determinant`` also takes ring-backed
  Laurent and radical entries over their polynomial ring, each row
  cleared of its monomial denominator first; and ``step_texts`` and
  ``row_evaluator`` write the Python source of generated numeric code,
  a ring element's from its terms.

Expressions are immutable values; all operations are pure functions, so
instances are safe to share between threads.  The writes after
construction (the tree, the hash and ``evaluate``'s function) are
idempotent stores of pure functions of the value.  ``Immutable`` is the
base of every immutable class of the package: it refuses attribute
assignment and deletion, and constructors store their fields through
``_init`` (``Expression``, built far more often than the rest, stores its
four directly).
"""

from __future__ import annotations

import functools
import keyword
import math
import operator
import random
import re
from dataclasses import dataclass
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
from sympy.polys.orderings import lex
from sympy.polys.rings import PolyElement, PolyRing
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

    def __post_init__(self):
        if self.kind not in ("jet", "momentum"):
            raise ExprError("coordinate kind must be 'jet' or 'momentum'")
        if self.order < 0 or self.axis < 1:
            raise ExprError("coordinate needs order >= 0 and axis >= 1")

    @property
    def name(self) -> str:
        prefix = "q" if self.kind == "jet" else "p"
        return "%s%d_%d" % (prefix, self.order, self.axis)

    @classmethod
    def from_name(cls, name: str) -> "Coordinate":
        m = _COORD_RE.match(name)
        if not m:
            raise ExprError("not a coordinate name: %r" % name)
        kind = "jet" if m.group(1) == "q" else "momentum"
        return cls(kind, int(m.group(2)), int(m.group(3)))

    @property
    def symbol(self) -> sp.Symbol:
        return _symbol(self.name)

    def __str__(self):
        return self.name


_SYMBOLS = {}  # name -> its one sympy Symbol: rings find it by identity


def _symbol(name: str) -> sp.Symbol:
    s = _SYMBOLS.get(name)
    if s is None:
        s = _SYMBOLS[name] = sp.Symbol(name)
    return s


def jet(order: int, axis: int) -> Coordinate:
    return Coordinate("jet", order, axis)


def momentum(order: int, axis: int) -> Coordinate:
    return Coordinate("momentum", order, axis)


def coordinate_of(symbol: sp.Symbol):
    """The Coordinate a sympy symbol names, or None for a named constant."""
    m = _COORD_RE.match(symbol.name)
    if not m:
        return None
    kind = "jet" if m.group(1) == "q" else "momentum"
    return Coordinate(kind, int(m.group(2)), int(m.group(3)))


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
    """The coordinate universe + declared constants a parse is resolved in.

    ``parse`` builds every polynomial in one ring: the ring over this
    table's names, or, for a table made by ``restricted_to``, the ring of
    the table it was made from.  The ring is built by the first parse.
    """

    def __init__(self, coordinates: Iterable[Coordinate], constants: Iterable[str] = ()):
        self.coordinates = frozenset(coordinates)
        self.constants = frozenset(constants)
        for c in self.constants:
            Constant(c)  # validates name and non-collision
        self._owner = self  # the table whose ring parse builds into
        self._ring = None  # built by the first parse

    def restricted_to(self, coordinates: Iterable[Coordinate]) -> "SymbolTable":
        """The table of some of these coordinates, with the same constants,
        whose parses build into this table's ring."""
        table = SymbolTable(coordinates, self.constants)
        if not table.coordinates <= self.coordinates:
            raise ExprError("a restricted table takes only coordinates of its own table")
        table._owner = self._owner
        return table

    @property
    def has_momenta(self) -> bool:
        return any(c.kind == "momentum" for c in self.coordinates)

    def _parse_ring(self) -> PolyRing:
        """The ring parse builds into, over the owner table's names: their home."""
        owner = self._owner
        if owner._ring is None:
            R = owner._ring = _ring([c.symbol for c in owner.coordinates]
                                    + [_symbol(c) for c in owner.constants])
            _HOMES.update(dict.fromkeys(R.symbols, R))
        return owner._ring


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
# Polynomial rings
# ---------------------------------------------------------------------------

class _Generators:
    """What the module keeps for each of its rings: each generator's
    position and text (a symbol's name), for the printer each
    generator's sort key (``_atom``'s), whether it is a coordinate, and
    the positions in the order of those keys; for the placeholders and
    then the radicals, which come after the symbols, the first one's
    position, the symbols each generator depends on (a placeholder's
    arguments, a radicand's names) and the generators depending on each
    symbol; and each radical's radicand, an element of the ring."""

    __slots__ = ("index", "names", "keys", "is_coordinate", "printed", "first_placeholder",
                 "first_radical", "free", "dependents", "widened", "radicands")

    def __init__(self, symbols):
        self.index = {s: i for i, s in enumerate(symbols)}
        atoms = [_radical_atom(s) if s.is_Pow else _atom(s) for s in symbols]
        self.names = [text for _, text in atoms]
        self.keys = [key for key, _ in atoms]
        self.is_coordinate = [key[0] >= 2 for key in self.keys]
        self.printed = sorted(range(len(symbols)), key=self.keys.__getitem__)
        self.first_placeholder = sum(s.is_Symbol for s in symbols)
        self.first_radical = len(symbols) - sum(s.is_Pow for s in symbols)
        self.free = [(s,) if s.is_Symbol else _RADICANDS[s][1] if s.is_Pow
                     else _function_of(s).args for s in symbols]
        self.dependents = {}
        for j in range(self.first_placeholder, len(symbols)):
            for x in self.free[j]:
                self.dependents.setdefault(x, []).append(j)
        self.widened = {}  # placeholder -> this ring with its first partials
        self.radicands = {}  # radical's position -> its radicand in this ring


def _monomial_div(a, b):
    quotient = tuple(map(operator.sub, a, b))
    return None if any(e < 0 for e in quotient) else quotient


# sympy's seven monomial functions, for monomials of any length
_MONOMIAL_OPS = {
    "monomial_mul": lambda a, b: tuple(map(operator.add, a, b)),
    "monomial_pow": lambda a, k: tuple([e * k for e in a]),
    "monomial_mulpow": lambda a, b, k: tuple([e + f * k for e, f in zip(a, b)]),
    "monomial_ldiv": lambda a, b: tuple(map(operator.sub, a, b)),
    "monomial_div": _monomial_div,
    "monomial_lcm": lambda a, b: tuple(map(max, a, b)),
    "monomial_gcd": lambda a, b: tuple(map(min, a, b)),
}


class _Ring(PolyRing):
    """sympy's ``PolyRing`` over QQ in lex order, equal to it and hashing
    the same, whose monomial functions are generic: sympy's constructor
    generates and compiles seven of them for each ring's generator
    count, which costs a cold ring several times what the rest of it
    costs.  Any other domain or order (sympy's own code may ask for one
    through ``clone``) is sympy's ``PolyRing``."""

    def __new__(cls, symbols, domain=QQ, order=lex):
        if domain is not QQ or order is not lex:
            return PolyRing(symbols, domain, order)
        obj = object.__new__(cls)
        obj.symbols = symbols = tuple(symbols)
        obj.ngens, obj.domain, obj.order = len(symbols), QQ, lex
        obj._hash_tuple = ("PolyRing", symbols, len(symbols), QQ, lex)  # as sympy's ring's
        obj._hash = hash(obj._hash_tuple)
        obj.dtype = PolyElement(obj, ()).new
        obj.zero_monom = (0,) * len(symbols)
        obj.gens = obj._gens()
        obj._gens_set = set(obj.gens)
        obj._one = [(obj.zero_monom, QQ.one)]
        obj.__dict__.update(_MONOMIAL_OPS)
        obj.leading_expv = max
        for symbol, generator in zip(symbols, obj.gens):
            if isinstance(symbol, sp.Symbol) and not hasattr(obj, symbol.name):
                setattr(obj, symbol.name, generator)
        return obj


_RINGS = {}  # sorted generators -> _Ring
_GENS = {}  # ring -> its _Generators
# a name's symbol -> the ring of the table that last built one over it, and
_HOMES = {}  # a placeholder -> the ring of the last ``placeholders`` call that declared it
_PARTIALS = {}  # (placeholder generator, symbol) -> its partial derivative
# radical generator -> (its radicand over the radicand's names, those names,
# its place among radicals); and a radicand's terms -> its radical or None
_RADICANDS = {}
_RADICALS = {}


def _order(g):
    """A generator's place in its ring: symbols by name, then the
    placeholders by name, arguments and differentiations, then the
    radicals by their radicands."""
    if g.is_Symbol:
        return 0, g.name
    if g.is_Pow:
        return 2, _RADICANDS[g][2]
    f = _function_of(g)
    return (1, f.func.__name__, tuple(a.name for a in f.args),
            () if f is g else tuple((v.name, int(c)) for v, c in g.variable_count))


def _ring(symbols) -> PolyRing:
    """The one ring over QQ whose generators are ``symbols`` in ``_order``,
    with the names of each radical's radicand."""
    gens = set(symbols)
    for g in [g for g in gens if g.is_Pow]:
        gens.update(_RADICANDS[g][1])
    gens = tuple(sorted(gens, key=_order))
    if gens not in _RINGS:  # described first: a published ring always is
        R = _Ring(gens)
        gens_info = _GENS[R] = _Generators(gens)
        for j in range(gens_info.first_radical, len(gens)):
            gens_info.radicands[j] = _into(_RADICANDS[gens[j]][0], R)
        _RINGS[gens] = R
    return _RINGS[gens]


def _into(P, R):
    """P as an element of R, whose generators include those that occur
    in P."""
    index, symbols = _GENS[R].index, P.ring.symbols
    out = R.zero
    for monom, coeff in P.items():
        m = [0] * R.ngens
        for s, e in zip(symbols, monom):
            if e:  # looked up only where it occurs: P's ring may be a model's
                m[index[s]] = e
        out[tuple(m)] = coeff
    return out


@functools.cache  # a model's rings, its placeholders' home among them, meet again and again
def _union(R, S):
    """The ring of the union of two rings' generators: one of them if it holds the other's."""
    r, s = _GENS[R].index.keys(), _GENS[S].index.keys()
    return R if r >= s else S if s >= r else _ring(R.symbols + S.symbols)


def _unify(*polys):
    """The elements over the ring of the union of their generators; a
    zero or a number becomes that ring's constant without a copy."""
    R = polys[0].ring
    for P in polys[1:]:
        R = R if P.ring is R else _union(R, P.ring)
    return [P if P.ring is R else R.zero if not P else _into(P, R) if P.ring.ngens
            else R.ground_new(P[()]) for P in polys]


def _is_placeholder(node):
    """Whether a tree is a ring generator that is not a symbol: an
    unknown function applied to distinct coordinate symbols, or a
    partial derivative of one."""
    f = _function_of(node)
    return (isinstance(f, AppliedUndef) and len(set(f.args)) == len(f.args)
            and all(a.is_Symbol and _COORD_RE.match(a.name) for a in f.args))


def _function_of(g):
    """The applied function of a placeholder generator (itself, or what a
    partial differentiates)."""
    return g.expr if isinstance(g, sp.Derivative) else g


def _as_poly(sym, radicals=False):
    """The ring element of a sympy tree that is a Laurent polynomial over
    QQ in its symbols and placeholders (expanded or not; a negative power
    only of a symbol or a placeholder), or None.  It is built with ring
    arithmetic: sympy's ``from_expr`` refuses negative powers.

    With ``radicals``, for a canonical tree: the powers of ``_radical``s
    are generators too, and the element is returned when it is in the
    form ``_reduce`` gives, which is then the form of the tree."""
    symbols, roots, stack = set(), {}, [sym]
    while stack:
        node = stack.pop()
        if node.is_Symbol:
            symbols.add(node)
        elif node.is_Add or node.is_Mul:
            stack.extend(node.args)
        elif node.is_Pow and node.exp.is_Integer and (
                node.exp.is_positive or node.base.is_Symbol or _is_placeholder(node.base)):
            stack.append(node.base)
        elif node.is_Rational:
            pass
        elif _is_placeholder(node):
            symbols.add(node)
        elif radicals and node.is_Pow and node.exp.is_Rational and node.exp.q == 2 and (
                node.base.is_Add):
            roots[node.base] = t = _radical(_as_poly(node.base), node.base)
            if t is None:
                return None
            symbols.add(t)
        else:
            return None
    R = _ring(symbols)
    gens = dict(zip(R.symbols, R.gens))

    def build(node):
        if node.is_Add or node.is_Mul:
            args = [build(a) for a in node.args]
            return sum(args, R.zero) if node.is_Add else math.prod(args, start=R.one)
        if node.is_Pow and node.exp.is_Integer:
            return _power(build(node.base), int(node.exp))
        if node.is_Pow:
            return _power(gens[roots[node.base]], int(node.exp.p))
        if node.is_Rational:
            return R.ground_new(QQ(int(node.p), int(node.q)))
        return gens[node]

    P = build(sym)
    return P if not radicals or _reduce(P) is P else None


def _power(P, n):
    """P ** n, for a single-term P when n is negative."""
    if n >= 0:
        return P ** n if n else P.ring.one  # 0^0 = 1
    (monom, coeff), = P.items()
    return P.ring.from_dict({tuple(n * e for e in monom): coeff ** n})


def _is_laurent(P):
    """Whether some exponent of P is negative."""
    return any(e < 0 for monom in P.itermonoms() for e in monom)


def _holds_atoms(P):
    """Whether a generator that is not a symbol (a placeholder or a
    radical) occurs in P."""
    first = _GENS[P.ring].first_placeholder
    return first < P.ring.ngens and any(any(m[first:]) for m in P.itermonoms())


def _present(P, positions):
    """The positions among ``positions`` of generators that occur in P."""
    if not positions:
        return []
    monoms = list(P.itermonoms())
    return [j for j in positions if any(m[j] for m in monoms)]


def _partial(g, x):
    """sympy's ∂g/∂x of a placeholder generator g that takes x, built
    once.  A first partial is the tree ``sp.diff`` gives, put together
    without its checks; a partial of a partial is ``sp.diff``'s."""
    if (g, x) not in _PARTIALS:
        _PARTIALS[g, x] = (Basic.__new__(sp.Derivative, g, sp.Tuple(x, sp.S.One))
                           if isinstance(g, AppliedUndef) else sp.diff(g, x))
    return _PARTIALS[g, x]


def _widened(R, g):
    """R with the first partials of its placeholder generator g."""
    wider = _GENS[R].widened
    if g not in wider:
        wider[g] = _ring(R.symbols + tuple(_partial(g, x) for x in _function_of(g).args))
    return wider[g]


def _pdiff(P, x):
    """∂P/∂x, before ``_reduce``.  A radical t = u^(1/2) differentiates
    to (∂u/∂x)/2 · t⁻¹.  A placeholder generator that takes x
    differentiates to the generator of its partial, which joins the
    ring, with the placeholder's other first partials, when it is not in
    it yet."""
    R = P.ring
    gens = _GENS[R]
    i = gens.index.get(x)
    d = R.zero if i is None else P.diff(i)
    moved = _present(P, gens.dependents.get(x, ()))
    for j in [j for j in moved if j >= gens.first_radical]:
        du = _pdiff(gens.radicands[j], x).mul_monom(_unit(R, j, -1))
        d += P.diff(j) * du * QQ(1, 2)
    moved = [j for j in moved if j < gens.first_radical]
    if not moved:
        return d
    S = R
    for j in moved:
        if _partial(R.symbols[j], x) not in _GENS[S].index:
            S = _widened(S, R.symbols[j])
    if S is not R:
        P, d = _into(P, S), _into(d, S)
    index = _GENS[S].index
    for j in moved:
        g = R.symbols[j]
        d = d + P.diff(index[g]) * S.gens[index[_partial(g, x)]]
    return d


def _terms(P):
    """P's terms, each monomial as its (symbol, exponent) pairs: equal for
    equal elements of any two rings."""
    symbols = P.ring.symbols
    return frozenset((tuple((s, e) for s, e in zip(symbols, m) if e), c) for m, c in P.items())


def _is_radicand(U):
    """Whether the tree path keeps ``sqrt(U)`` as it stands: U is a
    polynomial in symbols of more than one term that sympy's term
    factoring leaves alone, with integer coefficients without a common
    factor, not all negative, and no generator dividing every term."""
    if len(U) < 2 or _is_laurent(U) or _holds_atoms(U):
        return False
    coeffs = U.values()
    return (all(c.denominator == 1 for c in coeffs) and math.gcd(*map(int, coeffs)) == 1
            and any(c > 0 for c in coeffs) and not any(map(min, zip(*U.itermonoms()))))


def _radicand_tree(U):
    """``U.as_expr()`` for a polynomial U in symbols of two or more terms,
    built without an evaluated sum: each term is the ``Mul`` of its coefficient and
    powers, and ``_unevaluated_Add`` puts the number first and sorts the
    rest with ``_addsort``, as ``Add.flatten`` does.  The first evaluated
    sum of a process imports sympy's tensor and combinatorics packages."""
    symbols, to_sympy = U.ring.symbols, U.ring.domain.to_sympy
    return _unevaluated_Add(*[
        sp.Mul(to_sympy(c), *[sp.Pow(s, e) for s, e in zip(symbols, m) if e])
        for m, c in U.iterterms()])


def _radical(U, base=None):
    """The generator ``sqrt(U)`` of a ring element U, or None where U is
    None or not a radicand the tree path keeps whole (``_is_radicand``).
    It is built once for U's terms, whatever ring holds them, from
    ``base``, U's canonical tree; a caller that holds no tree passes
    none, and ``_radicand_tree`` builds it from U's terms."""
    if U is None:
        return None
    key = _terms(U)
    if key not in _RADICALS:
        g = None
        if _is_radicand(U):
            base = _radicand_tree(U) if base is None else base
            g = sp.Pow(base, sp.S.Half)
            names = tuple(U.ring.symbols[i] for i in _present(U, range(U.ring.ngens)))
            _RADICANDS[g] = U, names, sp.default_sort_key(base)
        _RADICALS[key] = g
    return _RADICALS[key]


def _radical_atom(g):
    """(sort key, text) of a radical generator: the tree printer's, for
    the fractional power of a sum."""
    text = _tree_text(g.base)
    return (6, text), "sqrt(%s)" % text


def _unit(R, j, e):
    """The monomial of R's generator j to the power e."""
    return tuple(e if k == j else 0 for k in range(R.ngens))


def _radicals_in(P):
    """The positions of the radicals that occur in P."""
    gens = _GENS[P.ring]
    return _present(P, range(gens.first_radical, P.ring.ngens))


def _is_multiple(P, U):
    """Whether P is a one-term multiple of U."""
    if len(P) != len(U):
        return False
    (m, c), (n, d) = P.LT, U.LT
    return P == U.mul_term((tuple(a - b for a, b in zip(m, n)), c / d))


def _reduce(P):
    """P in the form of the tree path, or None where that form leaves the
    ring.  For each radical t = u^(1/2) of P, t^(2k+r) becomes u^k·t^r,
    so P is A·t⁻¹ + B + C·t; a t part beside a t⁻¹ part folds into it,
    (A + C·u)·t⁻¹ + B, as the tree's common denominator t does.  None
    for a power t⁻² or lower, whose denominator u is not a monomial, and
    for A·t⁻¹ alone with A a one-term multiple of u, which the tree may
    or may not turn into that term times t.  P itself when it is in
    that form already."""
    R = P.ring
    if _GENS[R].first_radical == R.ngens:
        return P
    for j in _radicals_in(P):
        parts = {}
        for m, c in P.items():
            parts.setdefault(m[j], {})[m[:j] + (0,) + m[j + 1:]] = c
        low, high = min(parts), max(parts)
        U = _GENS[R].radicands[j]
        if low < -1:
            return None
        if high <= 1 and not (low == -1 and high == 1):
            if low == -1 and high == -1 and _is_multiple(R.from_dict(parts[-1]), U):
                return None
            continue
        A, B, C = R.from_dict(parts.get(-1, {})), R.zero, R.zero
        for e, terms in parts.items():
            if e >= 0:
                part = R.from_dict(terms) * U ** (e // 2)
                B, C = (B, C + part) if e % 2 else (B + part, C)
        if A:
            A, C = A + C * U, R.zero
            if not B and _is_multiple(A, U):
                return None
        P = A.mul_monom(_unit(R, j, -1)) + B + C.mul_monom(_unit(R, j, 1))
    return P


def _meets_radicand(*factors):
    """Whether a product of these factors (over one ring) may let the tree
    cancel a radicand against its radical: one factor is a one-term
    multiple of a radicand u and another holds 1/u^(1/2).  The tree path
    decides those."""
    R = factors[0].ring
    gens = _GENS[R]
    for j in range(gens.first_radical, R.ngens):
        if any(m[j] < 0 for F in factors for m in F.itermonoms()) and any(
                _is_multiple(F, gens.radicands[j]) for F in factors):
            return True
    return False


# ---------------------------------------------------------------------------
# Expression
# ---------------------------------------------------------------------------


class Expression(Immutable):
    """An immutable expression in canonical form.

    A Laurent polynomial is held as a ring element (``_poly``) and its
    sympy tree is built on first use; anything else is held as its
    canonical sympy tree (``_poly`` is None).  The wrapper is the public
    contract; the tree (``.sym``) is for this module and for tests.
    """

    __slots__ = ("_poly", "_sym", "_hash", "_fn")

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
        object.__setattr__(self, "_fn", None)  # compiled by evaluate()
        return self

    @classmethod
    def from_poly(cls, poly) -> "Expression":
        """The expression of an element of one of this module's rings."""
        return object.__new__(cls)._set(poly, None)

    def __reduce__(self):
        return Expression, (self.sym,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, value) -> "Expression":
        """``value`` if it is an Expression, else the Expression of an int,
        a Fraction or a sympy tree; text, floats and bools raise ExprError."""
        return value if isinstance(value, Expression) else cls(value)

    @classmethod
    def number(cls, value) -> "Expression":
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ExprError("a number is an int or a Fraction, not %r; parse text "
                            "with parse()" % (value,))
        value = Fraction(value)
        return cls.from_poly(_ring(()).ground_new(QQ(value.numerator, value.denominator)))

    @classmethod
    def constant(cls, name: str) -> "Expression":
        Constant(name)
        return _generator(_symbol(name))

    @classmethod
    def coordinate(cls, c: Coordinate) -> "Expression":
        return _generator(c.symbol)

    # -- introspection -----------------------------------------------------

    @property
    def sym(self):
        """The canonical sympy tree; for a polynomial, the tree ``sp.expand``
        gives, built from the ring element once."""
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
            return not _holds_atoms(self._poly)
        return not self._sym.atoms(sp.Function) and all(
            p.exp.is_Integer for p in self._sym.atoms(sp.Pow))

    @property
    def has_placeholders(self) -> bool:
        P = self._poly
        if P is None:
            return bool(self._sym.atoms(AppliedUndef) or self._sym.atoms(sp.Derivative))
        gens = _GENS[P.ring]
        return bool(_present(P, range(gens.first_placeholder, gens.first_radical)))

    def _free_symbols(self):
        """The symbols the value depends on: a placeholder's arguments too."""
        P = self._poly
        if P is None:
            return self._sym.free_symbols
        free = _GENS[P.ring].free
        return {s for i, exponents in enumerate(zip(*P.itermonoms())) if any(exponents)
                for s in free[i]}

    def free_names(self) -> set:
        return {s.name for s in self._free_symbols()}

    def free_coordinates(self) -> set:
        return {c for c in map(coordinate_of, self._free_symbols()) if c is not None}

    def free_constants(self) -> set:
        return {s.name for s in self._free_symbols() if coordinate_of(s) is None}

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
        """``op`` in the ring when both sides are ring elements (and a
        divisor is a single term: ``/`` multiplies by its inverse), else on
        the trees."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = (o, self) if swap else (self, o)
        P, Q = a._poly, b._poly
        if P is not None and Q is not None and (op is not operator.truediv or len(Q) == 1):
            ring_op = op
            if op is operator.truediv:
                ring_op, Q = operator.mul, _power(Q, -1)
            P, Q = _unify(P, Q)
            if ring_op is not operator.mul or not _meets_radicand(P, Q):
                result = _reduce(ring_op(P, Q))
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
            other = other.sym
            if not other.is_Rational:
                raise ExprError("exponent must be rational")
        elif isinstance(other, (int, Fraction)):
            other = sp.Rational(other)
        else:
            return NotImplemented
        P = self._poly
        result = None
        if P is not None and other.is_Integer and (other >= 0 or len(P) == 1):
            result = _reduce(_power(P, int(other)))
        elif P is not None and other.q == 2:
            t = _radical(P, self._sym)
            if t is not None:
                R = _ring(P.ring.symbols + (t,))
                result = _reduce(_power(R.gens[_GENS[R].index[t]], int(other.p)))
        if result is not None:
            return Expression.from_poly(result)
        return Expression(sp.Pow(self.sym, other))

    def __neg__(self):
        if self._poly is not None:
            return Expression.from_poly(-self._poly)
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
        return operator.eq(*_unify(P, Q))

    def __hash__(self):
        if self._hash is None:  # a polynomial's hash does not depend on its ring
            P = self._poly
            object.__setattr__(self, "_hash", hash(self._sym) if P is None else hash(_terms(P)))
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


def _generator(symbol, R=None) -> Expression:
    """A name or placeholder as a generator of R, by default of its home,
    else of a ring of its own."""
    R = R or _HOMES.get(symbol) or _ring((symbol,))
    return Expression.from_poly(R.gens[_GENS[R].index[symbol]])


def placeholders(names: Sequence[str], args: Sequence[Coordinate],
                 table: SymbolTable = None) -> List[Expression]:
    """Opaque unknown functions of the given distinct coordinates, one
    per name, declared together.

    They are generators of their *home*, which this builds: the ring
    over the table's names, every placeholder of this call and their
    first partials.  So a model's unknowns share one ring, and their
    first partials are in it.  A later declaration of the same unknown
    gives it the later home.  The model reader declares a model's
    unknowns when a command first reads a candidate that holds one.
    """
    symbols = [c.symbol for c in args]
    if len(set(symbols)) != len(symbols):
        raise ExprError("a placeholder takes distinct coordinates")
    functions = [sp.Function(name)(*symbols) for name in names]
    own = table._parse_ring().symbols if table is not None else ()
    home = _ring(own + tuple(functions) + tuple(
        _partial(f, x) for f in functions for x in symbols))
    _HOMES.update(dict.fromkeys(functions, home))
    return [_generator(f, home) for f in functions]


def placeholder(name: str, args: Sequence[Coordinate]) -> Expression:
    """An opaque unknown function of the given distinct coordinates, in
    the home it was declared in (see ``placeholders``), else declared
    alone.

    Used by the residual reports when a candidate's components are left
    symbolic (the "?" components of a model file); prints as the bare name,
    with partial derivatives printed as d(name)/d(coord).
    """
    f = sp.Function(name)(*[c.symbol for c in args])
    return _generator(f) if f in _HOMES else placeholders([name], args)[0]


def placeholder_derivative(name: str, args: Iterable[Coordinate], wrt: Coordinate) -> Expression:
    f = sp.Function(name)(*[c.symbol for c in args])
    return Expression(sp.Derivative(f, wrt.symbol))


# ---------------------------------------------------------------------------
# diff / substitute / evaluate
# ---------------------------------------------------------------------------


def _as_symbol(v) -> sp.Symbol:
    if isinstance(v, Coordinate):
        return v.symbol
    if isinstance(v, sp.Symbol):
        return v
    if isinstance(v, str):
        return _symbol(v)
    raise ExprError("cannot differentiate/bind with respect to %r" % (v,))


def diff(e: Expression, v) -> Expression:
    """Exact partial derivative; distinct coordinates are independent."""
    x = _as_symbol(v)
    d = None if e._poly is None else _reduce(_pdiff(e._poly, x))
    return Expression(sp.diff(e.sym, x)) if d is None else Expression.from_poly(d)


def derivation(e: Expression, pairs) -> Expression:
    """Σ c·∂e/∂u over the (u, c) pairs, u a coordinate and c an Expression.

    In the ring when ``e`` and the ``c`` of its symbols (a placeholder's
    arguments and a radicand's names too) are ring elements; otherwise
    the sympy sum is built from the raw partials and canonicalized once.
    With radicals, the ring sum is reduced once, as the tree is, and the
    tree path is taken where a partial or a product may take another
    form there (see ``_reduce`` and ``_meets_radicand``).
    """
    pairs = [(_as_symbol(u), c) for u, c in pairs]
    P = e._poly
    gens = None if P is None else _GENS[P.ring]
    hits = [] if P is None else [(x, c) for x, c in pairs
                                 if x in gens.index or x in gens.dependents]
    if P is not None and all(c._poly is not None for _, c in hits):
        total = _ring_derivation(P, hits)
        if total is not None:
            return Expression.from_poly(total)
    total = sp.S.Zero
    for x, c in pairs:
        total += c.sym * sp.diff(e.sym, x)
    return Expression(total)


def _ring_derivation(P, hits):
    """Σ c·∂P/∂x over the hits in the ring, or None where the tree path
    decides: a partial or a product that ``_reduce`` or
    ``_meets_radicand`` sends there, or a t⁻² in a product."""
    total = P.ring.zero
    for x, c in hits:
        d = _pdiff(P, x)
        if not d:
            continue
        if _reduce(d) is None:
            return None
        d, c = _unify(d, c._poly)
        term = c * d
        radicals = _radicals_in(term)
        if _meets_radicand(c, d) or any(m[j] < -1 for m in term.itermonoms() for j in radicals):
            return None
        total, term = _unify(total, term)
        total += term
    return _reduce(total)


def substitute(e: Expression, rules: Mapping) -> Expression:
    """Simultaneous substitution; right-hand sides are not re-substituted.

    In the ring when ``e`` and the right-hand sides of its symbols are
    ring elements, no substituted symbol has a negative exponent in ``e``
    (``compose`` raises on one), none is an argument of a placeholder or
    a name of a radicand of ``e``, and the result over radicals is in
    the form the tree takes (``_reduce``, ``_meets_radicand``); on the
    tree otherwise.  A rule that maps a variable of a placeholder's
    partial derivative to anything but a symbol raises ExprError naming
    that partial: the derivative of an unknown function by an
    expression is not defined."""
    table = {_as_symbol(key): Expression.of(value) for key, value in rules.items()}
    P = e._poly
    gens = None if P is None else _GENS[P.ring]
    hits = [] if P is None else [(x, v) for x, v in table.items() if x in gens.index]
    if P is not None and all(v._poly is not None for _, v in hits) and not _present(
            P, [j for x in table for j in gens.dependents.get(x, ())]):
        if not hits:
            return e
        P, *values = _unify(P, *(v._poly for _, v in hits))
        gens = [P.ring.gens[_GENS[P.ring].index[x]] for x, _ in hits]
        try:
            result = None if _meets_radicand(P, *values) else _reduce(
                P.compose(list(zip(gens, values))))
        except ValueError:  # a negative power of a substituted generator
            result = None
        if result is not None:
            return Expression.from_poly(result)
    tree = e.sym
    for d in tree.atoms(sp.Derivative):
        for x in d.variables:
            if x in table and not table[x].sym.is_Symbol:
                raise ExprError("cannot substitute %s for %s in %s: a partial derivative is "
                                "taken by a coordinate" % (to_text(table[x]), x.name,
                                                           _derivative_text(d)))
    return Expression(tree.xreplace({x: v.sym for x, v in table.items()}))


def _domain_matrix(rows: Sequence[Sequence[Expression]]):
    """``(M, back)``: the rows as a DomainMatrix ``M`` over the entries'
    polynomial ring, or over the domain ``from_list_sympy`` picks for their
    trees, and ``back``, the map from its domain to Expressions."""
    shape = (len(rows), len(rows[0]) if rows else 0)
    polys = [e._poly for row in rows for e in row]
    if polys and all(P is not None and not _is_laurent(P) and not _radicals_in(P)
                     for P in polys):
        polys, m = _unify(*polys), shape[1]
        domain = polys[0].ring.to_domain()
        return DomainMatrix([polys[i:i + m] for i in range(0, len(polys), m)],
                            shape, domain), Expression.from_poly
    M = DomainMatrix.from_list_sympy(*shape, [[e.sym for e in row] for row in rows])
    return M, lambda x: Expression(M.domain.to_sympy(x))


def solve_linear(rows: Sequence[Sequence[Expression]],
                 rhs: Sequence[Expression]) -> Tuple[Expression, ...]:
    """The exact solution x of rows · x = rhs.

    The augmented matrix [rows | rhs] is solved fraction-free, and each
    x_i is its numerator over the common denominator.  A nonsingular
    system has one solution, so the result does not depend on the
    elimination order.  Raises SingularMatrixError when the matrix is
    singular.
    """
    n = len(rows)
    if len(rhs) != n or any(len(row) != n for row in rows):
        raise ExprError("solve_linear needs a square system")
    aug, back = _domain_matrix([list(row) + [r] for row, r in zip(rows, rhs)])
    try:
        num, den = aug[:, :n].solve_den(aug[:, n:])
    except DMNonInvertibleMatrixError:
        raise SingularMatrixError("singular coefficient matrix in exact solve") from None
    den = back(den)
    return tuple(back(x) / den for x in num.to_list_flat())


def determinant(rows: Sequence[Sequence[Expression]]) -> Expression:
    """The exact determinant of a square matrix of Expressions.

    When every entry is a ring element, over their polynomial ring: each
    row is first multiplied by the monomial that clears its negative
    exponents (radicals' included), and the determinant divided by their
    product, then reduced by ``_reduce``, which maps t² to u as the
    quotient ring QQ[…, t]/(t² − u) does, so the result is exact.  The
    entries' trees are taken where the result would leave the ring or a
    radicand may cancel against its radical (``_meets_radicand``)."""
    polys = [e._poly for row in rows for e in row]
    if polys and all(P is not None for P in polys):
        polys = _unify(*polys)
        if not _meets_radicand(*polys):
            R, entries, cleared = polys[0].ring, iter(polys), []
            scale = [0] * R.ngens
            for row in [[next(entries) for _ in row] for row in rows]:
                low = [min([0] + [m[k] for P in row for m in P.itermonoms()])
                       for k in range(R.ngens)]
                scale = [a + b for a, b in zip(scale, low)]
                cleared.append([P.mul_monom(tuple(-e for e in low)) for P in row])
            shape = (len(rows), len(rows[0]))
            det = DomainMatrix(cleared, shape, R.to_domain()).det()
            result = _reduce(det.mul_monom(tuple(scale)))
            if result is not None:
                return Expression.from_poly(result)
    M, back = _domain_matrix(rows)
    return back(M.det())


def _subtext(sym):
    if isinstance(sym, str):  # compiled from a ring element: the text itself
        return sym
    try:
        return _tree_text(sym)
    except ExprError:
        return sp.srepr(sym)


# The checked steps of evaluation.  Compiled code calls them in the order
# a recursive walk over the tree reaches its nodes; ``sym`` is the node,
# or its text, named in the error.

def _load(env, name):
    try:
        return env[name]
    except KeyError:
        raise UnboundSymbolError("unbound symbol %r" % name) from None


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


def _fail(template, sym):
    raise ExprError(template % _subtext(sym))


def _children(sym, sort_key):
    """The sub-trees evaluating ``sym`` visits, in the order it visits them."""
    if sym.is_Add or sym.is_Mul:
        return sorted(sym.args, key=sort_key)
    if sym.is_Pow or sym.func in (sp.sin, sp.cos, sp.exp, sp.log):
        return sym.args[:1]
    return ()


_CHAIN = 32  # operands per statement of a long sum or product


class _Compiler:
    """Straight-line Python for one canonical tree.

    Each distinct sub-tree becomes one statement, emitted the first time
    a depth-first walk over ``_children`` reaches it, so every operation,
    check and raise happens in the order a recursive walk does it, and a
    repeated sub-tree is computed once.  The walks keep their own stacks
    and sort keys are computed leaves first, each from its children's
    cached keys, so no depth of nesting reaches the recursion limit; no
    statement nests parentheses.  ``terms`` writes the same statements
    for a ring element without building its tree.  Compilers that share a
    namespace, each with its own ``prefix`` for its variables, write
    statements that can be spliced into one function.
    """

    def __init__(self, namespace=None, prefix="t"):
        self.lines = []
        self.values = {}  # sub-tree (or its key in ``terms``) -> source of its value
        self.prefix = prefix
        self.namespace = namespace if namespace is not None else {
            "sin": math.sin, "cos": math.cos, "_load": _load, "_int_power": _int_power,
            "_root": _root, "_exp": _exp, "_log": _log, "_fail": _fail,
        }

    def value(self, e) -> str:
        """Emit the statements that evaluate the Expression e, from its
        terms if it is a ring element without placeholders, else from its
        tree; return its value."""
        ring = e._poly is not None and not e.has_placeholders
        return self.terms(e._poly) if ring else self.walk(e.sym)

    def walk(self, sym) -> str:
        """Emit the statements that evaluate ``sym``; return its value."""
        keys = {}
        stack = [(sym, False)]
        while stack:
            node, done = stack.pop()
            if done:
                keys[node] = sp.default_sort_key(node)
            elif node not in keys:
                stack.append((node, True))
                stack.extend((a, False) for a in node.args)
        stack = [(sym, None)]
        while stack:
            node, children = stack.pop()
            if node in self.values:
                continue
            if children is None:
                children = _children(node, keys.__getitem__)
                stack.append((node, children))
                stack.extend((c, None) for c in reversed(children))
            else:
                self.values[node] = self.emit(node, [self.values[c] for c in children])
        return self.values[sym]

    def terms(self, P) -> str:
        """``walk(P.as_expr())``, written from the terms of P, in the order
        of operations and checks that tree has.

        The tree's ``default_sort_key`` order of a Laurent polynomial's
        terms is the constant term, then the one-symbol terms by (name,
        exponent), then the products by their number of factors and
        their (name, exponent) pairs, a negative exponent ordering as the
        number it is, then a radical alone, by its radicand and exponent;
        a product's operands are its coefficient, unless it is 1, then
        its factors by name, radicals last.  A negative power is one
        ``_int_power`` node, named ``1/x^n`` as the tree's is; a radical's
        power is one ``_root`` node of its radicand, written from the
        radicand's terms in the same ring, named ``sqrt(u)`` or
        ``1/sqrt(u)``.  A ring's symbols come first, sorted by name,
        then its radicals by their radicands, so positions order as the
        tree's factors do (a placeholder is compiled from the tree).
        Each number, load and power is emitted once, the first time the
        walk reaches it, inside a radicand or outside it: the tree's
        walk computes one inside again outside, which changes no bit and
        no error, since the first computation raises where the second
        would.
        """
        gens = _GENS[P.ring]
        names, first_radical = gens.names, gens.first_radical
        values = self.values

        def number(c):
            if ("n", c) not in values:
                values["n", c] = self.number(int(c.numerator), int(c.denominator))
            return values["n", c]

        def power(i, e):
            if ("p", i, e) not in values:
                if i >= first_radical:
                    if ("u", i) not in values:
                        values["u", i] = self.terms(gens.radicands[i])
                    values["p", i, e] = self.assign("_root(%s, %d, 2, %s)" % (
                        values["u", i], e, self.ref(names[i] if e == 1 else "1/" + names[i])))
                elif e == 1:
                    values["p", i, e] = self.assign("_load(env, %r)" % names[i])
                else:
                    text = _power_text(names[i], abs(e))
                    values["p", i, e] = self.assign("_int_power(%s, %d, %s)" % (
                        power(i, 1), e, self.ref(text if e > 0 else "1/" + text)))
            return values["p", i, e]

        def kind(f):  # the constant, a power of a symbol, a product, a radical
            return min(len(f), 2) if len(f) != 1 else 3 if f[0][0] >= first_radical else 1

        terms = sorted((kind(f), len(f), f, c) for f, c in (
            (tuple((i, e) for i, e in enumerate(m) if e), c) for m, c in P.terms()))
        operands = []
        for _, count, factors, c in terms:
            if count == 0:
                operands.append(number(c))
            elif count == 1 and c == 1:
                operands.append(power(*factors[0]))
            else:
                args = ([] if c == 1 else [number(c)]) + [power(i, e) for i, e in factors]
                operands.append(self.chain("1.0", "*", args))
                values["m", len(values)] = operands[-1]  # the next variable is new
        if not operands:  # the zero polynomial
            operands.append(number(QQ(0)))
        return operands[0] if len(operands) == 1 else self.chain("0.0", "+", operands)

    def source(self, value) -> str:
        body = "".join("    %s\n" % line for line in self.lines)
        return "def _evaluate(env):\n%s    return %s\n" % (body, value)

    def function(self, source):
        """The compiled function of ``source``, with this compiler's globals."""
        exec(compile(source, "<hjmech.expr.evaluate>", "exec"), self.namespace)
        return self.namespace["_evaluate"]

    def ref(self, value):
        """A global of the compiled function bound to ``value``."""
        name = "g%d" % len(self.namespace)
        self.namespace[name] = value
        return name

    def assign(self, source):
        var = "%s%d" % (self.prefix, len(self.values))
        self.lines.append("%s = %s" % (var, source))
        return var

    def chain(self, start, op, terms):
        var = "%s%d" % (self.prefix, len(self.values))
        for i in range(0, len(terms), _CHAIN):
            self.lines.append("%s = %s" % (var, (" %s " % op).join(
                [var if i else start] + terms[i:i + _CHAIN])))
        return var

    def number(self, p, q):
        try:
            return "(%r)" % (p / q)
        except OverflowError:  # raised where evaluation reaches it
            return self.assign("%d / %d" % (p, q))

    def fail(self, template, node):
        self.lines.append("_fail(%r, %s)" % (template, self.ref(node)))
        return "None"  # never reached

    def emit(self, node, args):
        if node.is_Rational:
            return self.number(node.p, node.q)
        if node.is_Symbol:
            return self.assign("_load(env, %r)" % node.name)
        if node.is_Add:
            return self.chain("0.0", "+", args)
        if node.is_Mul:
            return self.chain("1.0", "*", args)
        if node.is_Pow:
            exp = node.args[1]
            if not exp.is_Rational:
                return self.fail("non-rational exponent in %s", node)
            if exp.is_Integer:
                return self.assign("_int_power(%s, %d, %s)" % (args[0], exp.p, self.ref(node)))
            return self.assign("_root(%s, %d, %d, %s)" % (args[0], exp.p, exp.q, self.ref(node)))
        if isinstance(node, (AppliedUndef, sp.Derivative)):
            return self.fail("placeholder %s cannot be evaluated numerically", node)
        if node.func in (sp.sin, sp.cos):
            return self.assign("%s(%s)" % (node.func.__name__, args[0]))
        if node.func is sp.exp:
            return self.assign("_exp(%s, %s)" % (args[0], self.ref(node)))
        if node.func is sp.log:
            return self.assign("_log(%s, %s)" % (args[0], self.ref(node)))
        if node is sp.E:
            return "(%r)" % math.e
        return self.fail("cannot evaluate %s", node)


def evaluate(e: Expression, bindings: Mapping) -> float:
    """Pointwise IEEE-double evaluation; same bindings give the same bits.

    The first call on an expression compiles its canonical tree (for a
    polynomial without placeholders, the terms of its ring element, into
    the source its tree gives) into one straight-line Python function and caches it on the
    instance; later calls only run it.  The compiled form keeps the
    summation and multiplication order of a recursive walk (each sum
    starts from 0.0 and each product from 1.0, operands in
    ``default_sort_key`` order), so the bits do not depend on
    compilation.  The cache write is an
    idempotent store of a pure function, so an expression stays safe to
    share between threads.

    Raises UnboundSymbolError for a missing binding (the first one the
    walk reaches) and DomainEvalError (carrying the offending
    subexpression) for a fractional power of a negative value, division
    by zero, overflow in a power or ``exp``, or log of a non-positive
    value.
    """
    fn = e._fn
    if fn is None:
        c = _Compiler()
        fn = c.function(c.source(c.value(e)))
        object.__setattr__(e, "_fn", fn)
    return fn(_env(bindings))


def _env(bindings) -> dict:
    """Bindings by name, as floats."""
    return {key if isinstance(key, str) else _as_symbol(key).name: float(value)
            for key, value in bindings.items()}


def row_evaluator(exprs: Sequence[Expression], names: Sequence[str]):
    """One generated function ``run(rows, out, bindings)`` that appends to
    ``out``, for each row of floats in ``rows``, that row followed by the
    values of ``exprs`` with the row bound to ``names`` and the rest to
    ``bindings``.

    Each expression's statements are the ones ``evaluate`` compiles for
    it, spliced into the loop in the order of ``exprs``, so every value
    has ``evaluate``'s bits and every failure its error.  When one
    raises, ``out`` holds the rows before the failing one.
    """
    namespace = _Compiler().namespace
    lines, values = [], []
    for k, e in enumerate(exprs):
        c = _Compiler(namespace, "t%d_" % k)
        values.append(c.value(e))
        lines += c.lines
    source = "\n".join(
        ["def _run(_rows, _out, env):",
         "    _append = _out.append",
         "    for _row in _rows:"]
        + ["        %s, = _row" % ", ".join("env[%r]" % n for n in names)] * bool(names)
        + ["        " + line for line in lines]
        + ["        _append([*_row, %s])" % ", ".join(values)]) + "\n"
    exec(compile(source, "<hjmech.expr.row_evaluator>", "exec"), namespace)
    run = namespace["_run"]
    return lambda rows, out, bindings: run(rows, out, _env(bindings))


def sample_values(exprs: Sequence[Expression], samples: int, seed: int,
                  fixed: Mapping[str, object] = None):
    """Yield the tuple of values of ``exprs`` at seeded random points.

    Names free in ``exprs`` and not bound by ``fixed`` are drawn in sorted
    order, uniform in [-2, 2].  A point where some expression raises
    DomainEvalError, OverflowError (an exact number beyond the floats) or
    a bare ValueError (``sin`` or ``cos`` of an infinity), or where some
    value is NaN (``inf - inf`` after an overflow), is skipped: a NaN
    compares false with everything, so the max or min of a list holding
    one depends on its order.  An infinity is a value.  Every other
    ExprError, an unbound symbol first of all, is raised.  Stops after
    ``samples`` points or ``200 * samples`` attempts, whichever comes
    first.
    """
    fixed = fixed or {}
    names = sorted(set().union(*(e.free_names() for e in exprs)) - set(fixed))
    rng = random.Random(seed)
    got = attempts = 0
    while got < samples and attempts < 200 * samples:
        attempts += 1
        env = {**fixed, **{name: rng.uniform(-2.0, 2.0) for name in names}}
        try:
            values = tuple(evaluate(e, env) for e in exprs)
        except DomainEvalError:
            continue
        except ExprError:
            raise
        except (ValueError, OverflowError):
            continue
        if any(v != v for v in values):  # NaN
            continue
        got += 1
        yield values


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
            if not inner.sym.is_Rational:
                raise ExprSyntaxError("exponent must be a rational number", pos)
            return sign * _frac(inner.sym)
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
                return _generator(coord.symbol, self.table._parse_ring())
            if coord.kind == "momentum" and not self.table.has_momenta:
                raise UnknownSymbolError(
                    "momentum coordinate %r is not available in this jet-only context" % name
                )
            raise UnknownSymbolError("coordinate %r is outside the declared universe" % name)
        if name in self.table.constants:
            return _generator(_symbol(name), self.table._parse_ring())
        raise UnknownSymbolError("unknown identifier %r" % name)


def _require_real_root(base, pos):
    P = base._poly  # a ring element is read without building its tree
    negative = (P.is_ground and P.LC < 0) if P is not None else (
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
    canonical (polynomials in the table's ring).  Division by a divisor whose
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
        e = parser.parse()
    except RecursionError:
        pos = tokens[min(parser.i, len(tokens) - 1)][2]
        raise ExprSyntaxError("expression nested too deeply", pos) from None
    R = table._parse_ring()
    if e._poly is None or e._poly.ring is R:
        return e
    # a number, a tree that reduced, or the table's ring with a radical
    return Expression.from_poly(_unify(e._poly, R.zero)[0])


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _atom_label(f):
    if isinstance(f, AppliedUndef):
        return f.func.__name__
    return _FUNC_LABEL.get(f.func, getattr(f.func, "__name__", "?"))


def _atom(base):
    """(sort key, text) of a base that is not a number, sum, product or power."""
    if base.is_Symbol:
        c = coordinate_of(base)
        if c is None:
            return (1, base.name), base.name
        return (2 if c.kind == "jet" else 3, (c.order, c.axis)), base.name
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


def _ring_text(P) -> str:
    """``_tree_text(P.as_expr())``, rendered from the terms of P: each
    term's ``_term`` key and text, built from its exponents (a negative
    one goes to the denominator)."""
    if not P:
        return "0"
    gens = _GENS[P.ring]
    terms = []
    for monom, coeff in P.terms():
        nonconst, const, num, den = [], [], [], []
        for i in gens.printed:
            e = monom[i]
            if e:
                (nonconst if gens.is_coordinate[i] else const).append((gens.keys[i], -e))
                (num if e > 0 else den).append(_power_text(gens.names[i], abs(e)))
        key = (1 if not nonconst else 0, tuple(nonconst), tuple(const), coeff)
        text = _product_text(abs(int(coeff.numerator)), int(coeff.denominator), num, den)
        terms.append((key, coeff < 0, text))
    return _sum_text(terms)


def to_text(e) -> str:
    """Deterministic canonical rendering in the module grammar."""
    e = Expression.of(e)
    return _tree_text(e._sym) if e._poly is None else _ring_text(e._poly)


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


def _python_names(R, renames):
    """The order in which ``_StepPrinter`` sorts R's generators (symbols by
    printed name, so a renamed keyword first; placeholders; radicals by
    their renamed radicands' ``default_sort_key``) and each one's text: a
    symbol's printed name, a radical's ``_math.sqrt`` of its radicand."""
    gens = _GENS[R]
    texts = [renames.get(s, s).name if s.is_Symbol else None for s in R.symbols]
    order = list(range(R.ngens))
    if any(s in renames for s in R.symbols):
        keys = {j: sp.default_sort_key(R.symbols[j].base.xreplace(renames))
                for j in range(gens.first_radical, R.ngens)}
        order.sort(key=lambda i: (0, texts[i]) if i < gens.first_placeholder else
                   (1, i) if i < gens.first_radical else (2, keys[i]))
    for j in range(gens.first_radical, R.ngens):
        texts[j] = "_math.sqrt(%s)" % _python_text(gens.radicands[j], order, texts)
    return order, texts


def _rational_python(c) -> str:
    p, q = int(c.numerator), int(c.denominator)
    return str(p) if q == 1 else "%d/%d" % (p, q)


def _python_text(P, order, texts) -> str:
    """``_StepPrinter().doprint(P.as_expr())`` written from the terms of P,
    whose generators print as ``texts`` and sort as ``order``.

    The printer orders a sum's terms by their exponents over the sorted
    generators, largest first (lex order), except a positive number
    beside one negative multiple of one power, which goes first.  A term
    is its number, a lone power (``x``, ``x**2``, ``1/x``, ``x**(-2)``),
    or a product: the sign, the coefficient unless it is 1 (a fraction
    in parentheses unless the sign precedes it and other factors follow
    it), the positive powers, then ``/`` and the negative ones, in
    parentheses when there are several."""
    def power(i, e):
        return texts[i] if e == 1 else "%s**%d" % (texts[i], e)

    if not P:
        return "0"
    terms = sorted(((tuple(m[i] for i in order), c) for m, c in P.terms()), reverse=True)
    if (len(terms) == 2 and not any(terms[1][0]) and terms[1][1] > 0 and terms[0][1] < 0
            and sum(map(bool, terms[0][0])) == 1):
        terms.reverse()
    pieces = []
    for monom, c in terms:
        factors = [(i, e) for i, e in zip(order, monom) if e]
        if not factors:
            text = _rational_python(c)
        elif c == 1 and len(factors) == 1:
            (i, e), = factors
            text = (power(i, e) if e > 0 else "1/" + texts[i] if e == -1
                    else "%s**(%d)" % (texts[i], e))
        else:
            sign = "-" if c < 0 else ""
            num = [power(i, e) for i, e in factors if e > 0]
            den = [power(i, -e) for i, e in factors if e < 0]
            if abs(c) != 1:
                coeff = _rational_python(abs(c))
                num.insert(0, coeff if "/" not in coeff or sign and num else "(%s)" % coeff)
            text = sign + "*".join(num or ["1"]) + (
                "" if not den else "/" + den[0] if len(den) == 1 else "/(%s)" % "*".join(den))
        pieces += ["-", text[1:]] if text.startswith("-") else ["+", text]
    return ("-" if pieces[0] == "-" else "") + " ".join(pieces[1:])


def step_texts(exprs: Sequence[Expression],
               constant_names: Sequence[str]) -> Tuple[List[str], List[str]]:
    """``(texts, params)``: the Python source of each expression, and the
    parameter name of each constant, for a generated function that binds
    the coordinates by name and ``_math`` to the math module.

    A text is what sympy prints for a math-module function
    (``PythonCodePrinter`` with ``fully_qualified_modules=False``,
    ``inline=True``, ``allow_unknown_functions=True``), with each math
    function as ``_math.<name>``.  A ring-backed expression without
    placeholders is written from its terms (``_python_text``) without
    building its tree; the printer prints the rest.  A constant whose
    name is a keyword is renamed ``_<name>``, a symbol that sorts before
    every other name, in the text and in ``params``.
    """
    renames = {_symbol(n): sp.Symbol("_" + n) for n in constant_names if keyword.iskeyword(n)}
    printer, texts, names = _StepPrinter(), [], {}
    for e in exprs:
        P = e._poly
        if P is None or e.has_placeholders:
            texts.append(printer.doprint(e.sym.xreplace(renames)))
        else:
            if P.ring not in names:
                names[P.ring] = _python_names(P.ring, renames)
            texts.append(_python_text(P, *names[P.ring]))
    return texts, ["_" + n if keyword.iskeyword(n) else n for n in constant_names]
