"""Expression layer: parsing, canonical printing, exact arithmetic,
differentiation, substitution, pointwise evaluation, placeholders.
"""

import math
import os
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjmech import (
    Coordinate,
    DomainEvalError,
    ExprError,
    ExprSyntaxError,
    Expression,
    JetSpace,
    UnboundSymbolError,
    UnknownSymbolError,
    diff,
    evaluate,
    jet,
    momentum,
    parse,
    placeholder,
    probably_equal,
    substitute,
)
from hjmech import expr as E
from hjmech.cli import main
from hjmech.expr import placeholder_derivative

from conftest import model_path

SPACE = JetSpace(2, 1)  # coordinates q0_1, q0_2, q1_1, q1_2
TABLE = SPACE.table(("a", "b"))


def p(text):
    return parse(text, TABLE)


# -- coordinates -----------------------------------------------------------


def test_coordinate_names_and_kinds():
    q = jet(1, 2)
    assert q.name == "q1_2" and q.kind == "jet"
    assert q.order == 1 and q.axis == 2
    pm = momentum(0, 1)
    assert pm.name == "p0_1" and pm.kind == "momentum"
    assert Coordinate.from_name("q3_11") == jet(3, 11)
    assert str(q) == "q1_2"


def test_coordinate_validation():
    with pytest.raises(ValueError):
        jet(-1, 1)
    with pytest.raises(ValueError):
        jet(0, 0)
    with pytest.raises(ValueError):
        Coordinate.from_name("x1_1")


# -- parsing ---------------------------------------------------------------


def test_parse_literals_are_exact():
    assert str(p("1/3 + 1/6")) == "1/2"
    assert str(p("0.25")) == "1/4"
    assert str(p("2/4")) == "1/2"


def test_parse_precedence_and_unary_minus():
    assert p("1 + 2*3") == Expression.number(7)
    assert p("-q0_1^2") == -(p("q0_1") ** 2)
    assert p("(q0_1 + q1_1)^2") == p("q0_1^2 + 2*q0_1*q1_1 + q1_1^2")
    assert p("2*q0_1/4") == p("q0_1/2")
    assert p("1 - -1") == Expression.number(2)


def test_power_binds_tighter_than_product():
    assert p("2*q1_1^2") == Expression.number(2) * p("q1_1") ** 2
    assert p("q1_1^-1") == Expression.number(1) / p("q1_1")


def test_parse_functions():
    e = p("sqrt(q0_1^2 + 1)")
    assert evaluate(e, {"q0_1": 3.0, "q0_2": 0, "q1_1": 0, "q1_2": 0}) == pytest.approx(
        math.sqrt(10.0)
    )
    for name, fn in (("sin", math.sin), ("cos", math.cos), ("exp", math.exp)):
        e = p("%s(q0_1)" % name)
        assert evaluate(e, {"q0_1": 0.7}) == pytest.approx(fn(0.7))
    assert evaluate(p("ln(q0_1)"), {"q0_1": 2.0}) == pytest.approx(math.log(2.0))


def test_parse_rejects_unknown_function():
    with pytest.raises(ExprSyntaxError):
        p("tanh(q0_1)")


def test_parse_rejects_nonrational_exponent():
    with pytest.raises(ExprSyntaxError):
        p("q0_1^q1_1")


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as exc:
        p("q0_1 + ")
    assert exc.value.position == 7
    with pytest.raises(ExprSyntaxError):
        p("q0_1 + * 2")
    with pytest.raises(ExprSyntaxError):
        p("(q0_1")


def test_unknown_symbols_are_scoped_by_table():
    with pytest.raises(UnknownSymbolError):
        p("q2_1")  # outside a second-order universe truncated at order 1
    with pytest.raises(UnknownSymbolError):
        p("zeta")
    with pytest.raises(UnknownSymbolError) as exc:
        p("p0_1")  # no momenta in a jet-only table
    assert "jet-only" in str(exc.value)


def test_constants_must_be_declared():
    assert str(p("a*q0_1 + b")) == "a*q0_1 + b"
    with pytest.raises(UnknownSymbolError):
        parse("c*q0_1", SPACE.table())


# -- canonical printing ----------------------------------------------------


def test_canonical_ordering_jets_before_momenta():
    from hjmech import PhaseSpace

    ps = PhaseSpace(1, 2)
    e = parse("p1_1 + q0_1 + p0_1 + q1_1", ps.table())
    assert str(e) == "q0_1 + q1_1 + p0_1 + p1_1"


def test_canonical_ordering_is_order_major():
    sp3 = JetSpace(2, 1)
    e = parse("q1_2 + q0_2 + q1_1 + q0_1", sp3.table())
    assert str(e) == "q0_1 + q0_2 + q1_1 + q1_2"


def test_print_parse_round_trip_simple():
    for text in (
        "1/2*q1_1^2 - 1/2*q1_2^2",
        "a*q0_1*q1_1 + b",
        "sqrt(2*q0_1 - q0_2^2 - 2*b)",
        "-q0_1 - 1/3",
    ):
        e = p(text)
        assert p(str(e)) == e


def test_exp_and_radicals_of_products_and_powers_print():
    for text in ("exp(q0_1)", "exp(1)", "sqrt(q0_1^2)", "(q0_1^2)^(1/3)",
                 "(-a)^(2/3)", "sqrt(1/q0_1)"):
        e = p(text)
        assert str(e) == text
        assert p(str(e)) == e
    assert str(p("2*exp(q0_1)^2/exp(q1_1)")) == "2*exp(-q1_1)*exp(2*q0_1)"
    assert evaluate(p("exp(1)*q0_1"), {"q0_1": 2.0}) == 2.0 * math.e


def test_zero_prints_as_zero():
    assert str(p("q0_1 - q0_1")) == "0"
    assert p("q0_1 - q0_1").is_zero


# -- exact arithmetic and equality ------------------------------------------


def test_number_constructor_is_exact():
    assert Expression.number("3/2") == Expression.number(Fraction(3, 2))
    assert Expression.number(3) / Expression.number(2) == Expression.number("3/2")
    with pytest.raises(ValueError):
        Expression.number(0.1)


def test_equality_is_structural_up_to_cancellation():
    assert p("(q0_1 + q1_1)^2") == p("q0_1^2 + 2*q0_1*q1_1 + q1_1^2")
    assert p("(q0_1^2 - 1)/(q0_1 - 1)") == p("q0_1 + 1")
    assert not (p("q0_1") == p("q1_1"))
    assert p("q0_1") != None  # noqa: E711 - must not blow up on None


def test_radical_forms_compare_structurally_and_differ_by_zero():
    # == compares canonical trees; (a - b).is_zero is the semantic test
    a = p("1/(sqrt(q0_1) + 1)")
    b = p("(sqrt(q0_1) - 1)/(q0_1 - 1)")
    assert (a == b) == (hash(a) == hash(b))
    assert (a - b).is_zero


def test_free_names_and_coordinates():
    e = p("a*q0_1 + q1_2^2")
    assert e.free_names() == {"a", "q0_1", "q1_2"}
    assert e.free_coordinates() == {jet(0, 1), jet(1, 2)}
    assert e.free_constants() == {"a"}


# -- differentiation --------------------------------------------------------


def test_diff_product_and_chain_rule():
    e = p("q0_1^2*q1_1")
    assert diff(e, jet(0, 1)) == p("2*q0_1*q1_1")
    assert e.diff("q1_1") == p("q0_1^2")
    assert diff(p("sin(q0_1^2)"), jet(0, 1)) == p("2*q0_1*cos(q0_1^2)")


def test_coordinates_are_independent():
    assert diff(p("q1_1"), jet(0, 1)).is_zero
    assert diff(p("a"), jet(0, 1)).is_zero


# -- substitution -----------------------------------------------------------


def test_substitute_is_simultaneous():
    e = p("q0_1 + q1_1")
    out = substitute(e, {jet(0, 1): p("q1_1"), jet(1, 1): p("q0_1")})
    assert out == p("q0_1 + q1_1")


def test_substitute_rejects_floats():
    with pytest.raises(ValueError):
        substitute(p("q0_1"), {jet(0, 1): 0.5})
    assert substitute(p("q0_1"), {jet(0, 1): Fraction(1, 2)}) == Expression.number("1/2")


# -- evaluation -------------------------------------------------------------


def test_evaluate_is_deterministic():
    e = p("sqrt(q0_1^2 + a)")
    env = {"q0_1": 1.25, "a": 3.0}
    assert evaluate(e, env) == evaluate(e, env)


def test_evaluate_unbound_symbol():
    with pytest.raises(UnboundSymbolError) as exc:
        evaluate(p("a*q0_1"), {"q0_1": 1.0})
    assert "a" in str(exc.value)


def test_evaluate_domain_errors():
    with pytest.raises(DomainEvalError) as exc:
        evaluate(p("sqrt(q0_1)"), {"q0_1": -1.0})
    assert exc.value.subexpression is not None
    with pytest.raises(DomainEvalError):
        evaluate(p("1/q0_1"), {"q0_1": 0.0})
    with pytest.raises(DomainEvalError):
        evaluate(p("ln(q0_1)"), {"q0_1": 0.0})


# -- placeholders -----------------------------------------------------------


def test_placeholder_prints_and_differentiates():
    coords = (jet(0, 1), jet(1, 1))
    s = placeholder("s2_1", coords)
    assert str(s) == "s2_1"
    assert s.has_placeholders
    d = diff(s, jet(0, 1))
    assert d == placeholder_derivative("s2_1", coords, jet(0, 1))
    assert str(d) == "d(s2_1)/d(q0_1)"
    assert diff(s, jet(1, 2)).is_zero


def test_placeholder_cannot_be_evaluated():
    from hjmech import ExprError

    s = placeholder("w", (jet(0, 1),))
    with pytest.raises(ExprError):
        evaluate(s, {"q0_1": 1.0})


# -- randomized equality fallback -------------------------------------------


def test_probably_equal_separates_identities_from_coincidences():
    assert probably_equal(p("sin(q0_1)^2 + cos(q0_1)^2"), Expression.number(1))
    assert not probably_equal(p("q0_1^2"), p("q0_1^2 + q1_1^2"))


def test_probably_equal_skips_domain_holes():
    assert probably_equal(p("sqrt(q0_1^2)^2"), p("q0_1^2"))


# -- property tests ----------------------------------------------------------

COORD_NAMES = ("q0_1", "q0_2", "q1_1", "q1_2")


@st.composite
def polynomials(draw, max_depth=3):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        which = draw(st.integers(0, 2))
        if which == 0:
            return p(draw(st.sampled_from(COORD_NAMES)))
        if which == 1:
            return Expression.number(draw(st.integers(-5, 5)))
        return Expression.constant(draw(st.sampled_from(("a", "b"))))
    op = draw(st.sampled_from("+-*^"))
    if op == "^":
        base = draw(polynomials(max_depth=depth - 1))
        return base ** draw(st.integers(1, 3))
    lhs = draw(polynomials(max_depth=depth - 1))
    rhs = draw(polynomials(max_depth=depth - 1))
    return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs}[op]


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_print_parse_round_trip(e):
    assert parse(str(e), TABLE) == e


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials())
def test_leibniz_rule(f, g):
    x = jet(0, 1)
    assert diff(f * g, x) == diff(f, x) * g + f * diff(g, x)


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials())
def test_partials_commute(f, g):
    e = f * g
    assert diff(diff(e, jet(0, 1)), jet(1, 2)) == diff(diff(e, jet(1, 2)), jet(0, 1))


# The whole grammar: literals, constants, coordinates, + - * / ^ with
# integer and rational exponents, and the five functions.
EXPONENTS = st.one_of(
    st.integers(-2, 3).map(str),
    st.tuples(st.integers(-3, 3), st.integers(2, 3)).map(lambda pq: "(%d/%d)" % pq),
)
LEAVES = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(("0.5", "2.25", "a", "b") + COORD_NAMES),
)


@st.composite
def grammar_texts(draw, max_depth=3):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return draw(LEAVES)
    inner = grammar_texts(max_depth=depth - 1)
    kind = draw(st.sampled_from(("binary", "power", "function", "negate")))
    if kind == "binary":
        return "(%s %s %s)" % (draw(inner), draw(st.sampled_from("+-*/")), draw(inner))
    if kind == "power":
        return "(%s)^%s" % (draw(inner), draw(EXPONENTS))
    if kind == "function":
        name = draw(st.sampled_from(("sqrt", "sin", "cos", "exp", "ln")))
        return "%s(%s)" % (name, draw(inner))
    return "-" + draw(inner)


@settings(max_examples=150, deadline=None)
@given(grammar_texts())
def test_every_parsed_expression_prints_and_round_trips(text):
    try:
        e = p(text)
    except ExprError:
        assume(False)
    assert p(str(e)) == e


@settings(max_examples=150, deadline=None)
@given(grammar_texts(), grammar_texts())
def test_equal_expressions_hash_equal_and_canonical_form_is_fixed(t1, t2):
    try:
        a, b = p(t1), p(t2)
    except ExprError:
        assume(False)
    for x, y in ((a, b), (a, p(str(a))), (a, a * 1), (a + b, b + a)):
        assert x != y or hash(x) == hash(y)
    assert Expression(a.sym).sym == a.sym


# Reference canonical form that sends every fraction, numeric
# denominators included, through together/cancel.
def _reference_normalize_atoms(sym):
    if sym.is_Atom or isinstance(sym, (sp.Derivative, E.AppliedUndef)):
        return sym
    if sym.is_Function:
        return sym.func(*[_reference_canon(a) for a in sym.args])
    if sym.is_Pow:
        base, exp = sym.args
        if not exp.is_Integer:
            return sp.Pow(_reference_canon(base), exp)
        return sp.Pow(_reference_normalize_atoms(base), exp)
    if sym.is_Add or sym.is_Mul:
        return sym.func(*[_reference_normalize_atoms(a) for a in sym.args])
    return sym


def _reference_canon(sym):
    sym = _reference_normalize_atoms(sp.sympify(sym))
    num, den = sym.as_numer_denom()
    if den == 1:
        return sp.expand(num)
    try:
        c = sp.cancel(sp.together(sym))
    except (sp.PolynomialError, AttributeError, NotImplementedError):
        c = sym
    num, den = c.as_numer_denom()
    num = sp.expand(num)
    if E._denominator_is_atomic(den):
        return sp.expand(num / den)
    return num / den


@settings(max_examples=150, deadline=None)
@given(grammar_texts())
def test_canonical_form_matches_the_together_cancel_reference(text):
    try:
        raw = E._Parser(E._tokenize(text), TABLE).parse()
    except ExprError:
        assume(False)
    assert E._canon(raw) == _reference_canon(raw)


GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")


def test_javelin_derives_without_together_or_cancel(monkeypatch, capsys):
    # javelin's denominators are numbers, so canonical forms only expand
    class NoCancel:
        def __getattr__(self, name):
            return getattr(sp, name)

        def cancel(self, *args, **kwargs):
            raise AssertionError("cancel on a numeric denominator")

        together = cancel

    monkeypatch.setattr(E, "sp", NoCancel())
    for topic in ("cartan", "energy", "field", "legendre", "hamiltonian", "hamfield"):
        code = main(["derive", model_path("javelin.hjm"), topic])
        out = capsys.readouterr().out
        with open(os.path.join(GOLDENS, "javelin_derive_%s.txt" % topic)) as fh:
            assert code == 0 and out == fh.read(), topic


def _reference_sample(e, constant_values, samples, seed, reduce=max):
    # reference: the draws every recorded numeric_max rests on
    import random

    rng = random.Random(seed)
    names = sorted(e.free_names())
    fixed = {n: float(constant_values[n]) for n in names if n in constant_values}
    to_sample = [n for n in names if n not in constant_values]
    best, got, attempts = None, 0, 0
    while got < samples and attempts < 200 * samples:
        attempts += 1
        env = dict(fixed)
        for name in to_sample:
            env[name] = rng.uniform(-2.0, 2.0)
        try:
            value = abs(e.evaluate(env))
        except DomainEvalError:
            continue
        best = value if best is None else reduce(best, value)
        got += 1
    return best if got == samples else None


@pytest.mark.parametrize("text, samples", [
    ("a*sqrt(q0_1) + ln(q1_1) - b*q0_2", 40),
    ("1/(q0_1 - a) + sqrt(q1_2 - 1.5)", 40),
    ("sqrt(q0_1 - 1.99)*sqrt(q1_1 - 1.99)", 5),
])
def test_shared_sampler_keeps_the_old_draws(text, samples):
    from hjmech.hj import _sample

    e = p(text)
    for reduce in (max, min):
        for seed in (0, 42, 1001):
            old = _reference_sample(e, {"a": 0.75}, samples, seed, reduce)
            assert _sample(e, {"a": 0.75}, samples, seed, reduce) == old
