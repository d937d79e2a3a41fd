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
* Canonical form: an expression whose denominator is a rational number is
  expanded and nothing more.  Any other fraction is reduced to a normal
  form p/q with ``together``/``cancel`` (expanded numerator, no common
  factors); when the denominator is a product of atomic factors the
  fraction is distributed over the numerator's terms.  Function
  applications and fractional powers are opaque atoms — no radical or trig
  identities are applied beyond ``x^(1/2) == sqrt(x)``.
* ``==`` and ``hash`` compare canonical trees and nothing else, so two
  forms of one radical expression (``1/(sqrt(x) + 1)`` and
  ``(sqrt(x) - 1)/(x - 1)``) are unequal; ``(a - b).is_zero`` is the
  semantic test.
* Printing is deterministic: terms are emitted in a fixed total order
  (coordinate content first — jets before momenta, then by (order, axis),
  exponents descending — named constants as tiebreak, pure-constant terms
  last) and ``parse(print(e)) == e`` for every expression the parser
  accepts.  The printer renders the canonical tree as it stands, without
  canonicalizing sub-trees again, and renders each sub-tree once: a
  sum's text is both its sort key and its output.
  ``exp(x)`` is a function atom, sympy's ``E`` prints as ``exp(1)``, and
  a radical of a sum, product or power prints its base in parentheses.
* ``evaluate`` compiles an expression into straight-line Python the first
  time it is called on it and caches the function on the instance.  The
  compiled form keeps the summation and multiplication order of a
  recursive walk over the tree (operands in ``default_sort_key`` order),
  so its bits are the walk's bits, and it checks and raises where the
  walk would.
* The parser bounds the number of terms an expansion may produce
  (``TERM_LIMIT``) before it expands anything.

Expressions are immutable values; all operations are pure functions, so
instances are safe to share between threads.  The one write after
construction, ``evaluate``'s cache, is an idempotent store of a pure
function.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import sympy as sp
from sympy.core.function import AppliedUndef

__all__ = [
    "Coordinate",
    "Constant",
    "SymbolTable",
    "Expression",
    "ExprError",
    "ExprSyntaxError",
    "UnknownSymbolError",
    "UnboundSymbolError",
    "DomainEvalError",
    "parse",
    "diff",
    "substitute",
    "evaluate",
    "probably_equal",
    "sample_values",
    "to_text",
    "placeholder",
    "placeholder_derivative",
    "jet",
    "momentum",
    "coordinate_of",
    "ZERO",
    "ONE",
]

_COORD_RE = re.compile(r"^([qp])(\d+)_([1-9]\d*)$")
_CONST_RE = re.compile(r"^[a-z][a-z0-9_]*$")

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
        return sp.Symbol(self.name)

    def __str__(self):
        return self.name


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
    """A named constant with an optional numeric value and a nonzero flag."""

    name: str
    value: float | None = None
    nonzero: bool = False

    def __post_init__(self):
        if not _CONST_RE.match(self.name):
            raise ExprError("bad constant name %r (want [a-z][a-z0-9_]*)" % self.name)
        if _COORD_RE.match(self.name):
            raise ExprError("constant name %r collides with a coordinate" % self.name)


class SymbolTable:
    """The coordinate universe + declared constants a parse is resolved in."""

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


def _canon(sym):
    sym = _normalize_atoms(sp.sympify(sym))
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
# Expression
# ---------------------------------------------------------------------------

NumberLike = Union[int, Fraction, "Expression"]


class Expression:
    """An immutable expression in canonical form.

    Wraps a canonicalized sympy tree; the wrapper is the public contract,
    the backing object is reachable as ``.sym`` for the package's internal
    linear algebra.
    """

    __slots__ = ("_sym", "_fn")

    def __init__(self, sym):
        object.__setattr__(self, "_sym", _canon(sym))
        object.__setattr__(self, "_fn", None)  # compiled by evaluate()

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def number(cls, value) -> "Expression":
        if isinstance(value, float):
            raise ExprError("floats are not exact; use int/Fraction or evaluate()")
        return cls(sp.Rational(value))

    @classmethod
    def constant(cls, name: str) -> "Expression":
        Constant(name)
        return cls(sp.Symbol(name))

    @classmethod
    def coordinate(cls, c: Coordinate) -> "Expression":
        return cls(c.symbol)

    # -- introspection -----------------------------------------------------

    @property
    def sym(self):
        return self._sym

    @property
    def is_zero(self) -> bool:
        return self._sym == 0

    @property
    def has_placeholders(self) -> bool:
        return bool(self._sym.atoms(AppliedUndef)) or bool(self._sym.atoms(sp.Derivative))

    def free_names(self) -> set:
        return {s.name for s in self._sym.free_symbols}

    def free_coordinates(self) -> set:
        out = set()
        for s in self._sym.free_symbols:
            c = coordinate_of(s)
            if c is not None:
                out.add(c)
        return out

    def free_constants(self) -> set:
        return {s.name for s in self._sym.free_symbols if coordinate_of(s) is None}

    # -- algebra -----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Expression):
            return other._sym
        if isinstance(other, bool) or isinstance(other, float):
            raise TypeError("cannot mix %r into an exact expression" % other)
        if isinstance(other, (int, Fraction)):
            return sp.Rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expression(self._sym + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expression(self._sym - o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expression(o - self._sym)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expression(self._sym * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expression(self._sym / o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Expression(o / self._sym)

    def __pow__(self, other):
        if isinstance(other, Expression):
            other = other._sym
            if not other.is_Rational:
                raise ExprError("exponent must be rational")
        elif isinstance(other, (int, Fraction)):
            other = sp.Rational(other)
        else:
            return NotImplemented
        return Expression(sp.Pow(self._sym, other))

    def __neg__(self):
        return Expression(-self._sym)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression(sp.Rational(other))
        if not isinstance(other, Expression):
            return NotImplemented
        return self._sym == other._sym

    def __hash__(self):
        return hash(self._sym)

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


def placeholder(name: str, args: Iterable[Coordinate]) -> Expression:
    """An opaque unknown function of the given coordinates.

    Used by the residual reports when a candidate's components are left
    symbolic (the "?" components of a model file); prints as the bare name,
    with partial derivatives printed as d(name)/d(coord).
    """
    return Expression(sp.Function(name)(*[c.symbol for c in args]))


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
        return sp.Symbol(v)
    raise ExprError("cannot differentiate/bind with respect to %r" % (v,))


def diff(e: Expression, v) -> Expression:
    """Exact partial derivative; distinct coordinates are independent."""
    return Expression(sp.diff(e.sym, _as_symbol(v)))


def substitute(e: Expression, rules: Mapping) -> Expression:
    """Simultaneous substitution; right-hand sides are not re-substituted."""
    table = {}
    for key, value in rules.items():
        sym = _as_symbol(key)
        if isinstance(value, Expression):
            rhs = value.sym
        elif isinstance(value, float):
            raise ExprError("floats are not exact; use evaluate() for numerics")
        else:
            rhs = sp.Rational(value) if isinstance(value, (int, Fraction)) else sp.sympify(value)
        table[sym] = rhs
    return Expression(e.sym.xreplace(table))


def _subtext(sym):
    try:
        return _tree_text(sym)
    except ExprError:
        return sp.srepr(sym)


# The checked steps of evaluation.  Compiled code calls them in the order
# a recursive walk over the tree reaches its nodes; ``sym`` is the node,
# named in the error.

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
    statement nests parentheses.
    """

    def __init__(self):
        self.lines = []
        self.values = {}  # sub-tree -> source of its value
        self.namespace = {
            "sin": math.sin, "cos": math.cos, "_load": _load, "_int_power": _int_power,
            "_root": _root, "_exp": _exp, "_log": _log, "_fail": _fail,
        }

    def compile(self, sym):
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
        body = "".join("    %s\n" % line for line in self.lines)
        source = "def _evaluate(env):\n%s    return %s\n" % (body, self.values[sym])
        exec(compile(source, "<hjmech.expr.evaluate>", "exec"), self.namespace)
        return self.namespace["_evaluate"]

    def ref(self, value):
        """A global of the compiled function bound to ``value``."""
        name = "g%d" % len(self.namespace)
        self.namespace[name] = value
        return name

    def assign(self, source):
        var = "t%d" % len(self.values)
        self.lines.append("%s = %s" % (var, source))
        return var

    def chain(self, start, op, terms):
        var = "t%d" % len(self.values)
        for i in range(0, len(terms), _CHAIN):
            self.lines.append("%s = %s" % (var, (" %s " % op).join(
                [var if i else start] + terms[i:i + _CHAIN])))
        return var

    def fail(self, template, node):
        self.lines.append("_fail(%r, %s)" % (template, self.ref(node)))
        return "None"  # never reached

    def emit(self, node, args):
        if node.is_Rational:
            try:
                return "(%r)" % (node.p / node.q)
            except OverflowError:  # raised where evaluation reaches it
                return self.assign("%d / %d" % (node.p, node.q))
        if node.is_Float:
            return self.ref(float(node))
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

    The first call on an expression compiles its canonical tree into one
    straight-line Python function and caches it on the instance; later
    calls only run it.  The compiled form keeps the summation and
    multiplication order of a recursive walk (each sum starts from 0.0
    and each product from 1.0, operands in ``default_sort_key`` order),
    so the bits do not depend on compilation.  The cache write is an
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
        fn = _Compiler().compile(e.sym)
        object.__setattr__(e, "_fn", fn)
    env = {}
    for key, value in bindings.items():
        env[key if isinstance(key, str) else _as_symbol(key).name] = float(value)
    return fn(env)


def sample_values(exprs: Sequence[Expression], samples: int, seed: int,
                  fixed: Mapping[str, object] = None):
    """Yield the tuple of values of ``exprs`` at seeded random points.

    Names free in ``exprs`` and not bound by ``fixed`` are drawn in sorted
    order, uniform in [-2, 2].  A point where some expression raises
    DomainEvalError is skipped.  Stops after ``samples`` points or
    ``200 * samples`` attempts, whichever comes first.
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


def _term_count(sym, memo):
    """Upper bound on the terms expanding ``sym`` gives, at most one past
    _COUNT_CAP: counts add over a sum and multiply over a product, an
    integer power n of an m-term base has C(m+n-1, n), anything else is
    one term."""
    count = memo.get(sym)
    if count is not None:
        return count
    if sym.is_Add:
        count = sum(_term_count(a, memo) for a in sym.args)
    elif sym.is_Mul:
        count = 1
        for a in sym.args:
            count *= _term_count(a, memo)
            if count > _COUNT_CAP:
                break
    elif sym.is_Pow and sym.exp.is_Integer:
        m, n = _term_count(sym.base, memo), abs(int(sym.exp))
        a, b = max(n, m - 1), min(n, m - 1)
        count = 1  # C(a+b, b), one factor at a time
        for i in range(1, b + 1):
            count = count * (a + i) // i
            if count > _COUNT_CAP:
                break
    else:
        count = 1
    memo[sym] = count = min(count, _COUNT_CAP + 1)
    return count


class _Parser:
    def __init__(self, tokens, table: SymbolTable):
        self.tokens = tokens
        self.table = table
        self.i = 0
        self.term_counts = {}

    def bounded(self, sym, pos):
        """``sym``, unless expanding it would pass TERM_LIMIT terms."""
        count = _term_count(sym, self.term_counts)
        if count > TERM_LIMIT:
            shown = "more than %d" % _COUNT_CAP if count > _COUNT_CAP else "%d" % count
            raise ExprSyntaxError("expanding this gives %s terms, over the limit of %d"
                                  % (shown, TERM_LIMIT), pos)
        return sym

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
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected %r" % value, pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                e = e + rhs if value == "+" else e - rhs
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs_pos = self.peek()[2]
                rhs = self.factor()
                if value == "/" and _canon(rhs) == 0:
                    raise ExprSyntaxError("division by zero", rhs_pos)
                e = self.bounded(e * rhs if value == "*" else e / rhs, rhs_pos)
            else:
                return e

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            inner = self.factor()
            return inner if value == "+" else -inner
        return self.power()

    def power(self):
        base_pos = self.peek()[2]
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exp = self.exponent()
            if exp < 0 and _canon(base) == 0:
                raise ExprSyntaxError("division by zero", base_pos)
            if not exp.is_Integer:
                _require_real_root(base, base_pos)
            return self.bounded(sp.Pow(base, exp), base_pos)
        return base

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
            return sign * _number(value)
        if kind == "op" and value == "(":
            self.next()
            inner = self.expr()
            self.expect_op(")")
            inner = _canon(inner)
            if not inner.is_Rational:
                raise ExprSyntaxError("exponent must be a rational number", pos)
            return sign * inner
        raise ExprSyntaxError("expected an exponent", pos)

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return _number(value)
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
                arg = self.expr()
                self.expect_op(")")
                if value == "sqrt":
                    _require_real_root(arg, arg_pos)
                if value == "ln":
                    c = _canon(arg)
                    if c.is_number and not c.is_positive:
                        raise ExprSyntaxError("ln of a non-positive number", pos)
                return _FUNCTIONS[value](arg)
            return self.resolve(value, pos)
        raise ExprSyntaxError("unexpected %r" % value, pos)

    def resolve(self, name, pos):
        m = _COORD_RE.match(name)
        if m:
            coord = Coordinate.from_name(name)
            if coord in self.table.coordinates:
                return coord.symbol
            if coord.kind == "momentum" and not self.table.has_momenta:
                raise UnknownSymbolError(
                    "momentum coordinate %r is not available in this jet-only context" % name
                )
            raise UnknownSymbolError("coordinate %r is outside the declared universe" % name)
        if name in self.table.constants:
            return sp.Symbol(name)
        raise UnknownSymbolError("unknown identifier %r" % name)


def _require_real_root(base, pos):
    c = _canon(base)
    if c.is_number and c.is_negative:
        raise ExprSyntaxError("root of a negative number", pos)


def _number(text):
    if "." in text:
        return sp.Rational(Fraction(text))
    return sp.Integer(text)


def parse(text: str, table: SymbolTable) -> Expression:
    """Parse the expression grammar against a coordinate universe.

    Grammar: rational/decimal literals, named constants, coordinates
    q<i>_<A> / p<i>_<A>, operators + - * / ^ (with ^ binding tighter than *),
    functions sqrt sin cos exp ln, parentheses, unary minus.  Division by
    a divisor whose canonical form is 0, ln of a number that is not
    positive, sqrt or a fractional power of a negative number, a power
    or product whose expansion would pass TERM_LIMIT terms (counted by
    ``_term_count`` before anything is expanded), and nesting deeper than
    the interpreter's recursion limit raise ExprSyntaxError.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, table)
    try:
        return Expression(parser.parse())
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


def _atom(base):
    """(sort key, text) of a base that is not a number, sum, product or power."""
    if base.is_Symbol:
        c = coordinate_of(base)
        if c is None:
            return (1, base.name), base.name
        return (2 if c.kind == "jet" else 3, (c.order, c.axis)), base.name
    if isinstance(base, sp.Derivative):
        key = (5, _atom_label(base.expr), tuple(str(v) for v in base.variables))
        return key, _derivative_text(base)
    if isinstance(base, AppliedUndef):
        return (4, _atom_label(base), tuple(str(a) for a in base.args)), base.func.__name__
    if base.is_Function and base.func in _FUNC_LABEL:
        label = _FUNC_LABEL[base.func]
        key = (4, label, tuple(str(a) for a in base.args))
        return key, "%s(%s)" % (label, _tree_text(base.args[0]))
    if base is sp.E:  # what exp(1) evaluates to
        return (7, sp.srepr(base)), "exp(1)"
    raise ExprError("cannot print %s" % sp.srepr(base))


def _derivative_text(d):
    label = _atom_label(d.expr)
    variables = []
    for v, count in d.variable_count:
        variables.extend([str(v)] * int(count))
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
    negative = coeff < 0
    p, q = abs(int(coeff.p)), int(coeff.q)
    if not den_parts:
        if q > 1:
            num_parts.insert(0, "%d/%d" % (p, q))
        elif p != 1 or not num_parts:
            num_parts.insert(0, str(p))
        return key, negative, "*".join(num_parts)
    if p != 1 or not num_parts:
        num_parts.insert(0, str(p))
    den_items = ([str(q)] if q > 1 else []) + den_parts
    if len(den_items) == 1:
        den_text = den_items[0]
    else:
        den_text = "(%s)" % "*".join(den_items)
    return key, negative, "%s/%s" % ("*".join(num_parts), den_text)


def _tree_text(sym) -> str:
    """Render a canonical tree: every sub-tree is rendered once, as it
    stands, without canonicalizing it again."""
    if sym == 0:
        return "0"
    terms = sorted((_term(t) for t in sp.Add.make_args(sym)), key=lambda t: t[0])
    pieces = []
    for idx, (_, negative, body) in enumerate(terms):
        if idx == 0:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


def to_text(e) -> str:
    """Deterministic canonical rendering in the module grammar."""
    return _tree_text(e.sym if isinstance(e, Expression) else _canon(e))
