"""Exterior calculus on coordinate spaces: 1- and 2-form containers, d,
wedge, contraction, pairing, and coordinate-map pullbacks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjmech import (
    CoordMap,
    Expression,
    FormError,
    JetSpace,
    OneFormField,
    PhaseSpace,
    TwoFormField,
    VectorField,
    contract,
    differential,
    exterior_derivative,
    jet,
    momentum,
    pair,
    parse,
    three_form_coefficients,
    wedge,
)

T1 = JetSpace(1, 1)  # q0_1, q1_1
T2 = JetSpace(1, 2)  # q0_1, q1_1, q2_1
PS = PhaseSpace(1, 1)  # q0_1, p0_1


def e(text, space, constants=()):
    return parse(text, space.table(constants))


def field(space, *texts):
    return VectorField(space, [e(t, space) for t in texts])


# -- containers ---------------------------------------------------------------


def test_oneform_coefficient_access_and_zero():
    th = OneFormField.from_coefficients(T1, {jet(1, 1): e("q0_1", T1)})
    assert th.coefficient(jet(1, 1)) == e("q0_1", T1)
    assert th.coefficient(jet(0, 1)).is_zero
    assert OneFormField.zero(T1).is_zero
    assert not th.is_zero
    with pytest.raises(FormError):
        th.coefficient(jet(2, 1))
    with pytest.raises(FormError):
        OneFormField.from_coefficients(T1, {jet(2, 1): Expression.number(1)})
    with pytest.raises(FormError):
        OneFormField(T1, (Expression.number(1),))


def test_oneform_arithmetic():
    a = OneFormField.from_coefficients(T1, {jet(0, 1): e("q1_1", T1)})
    b = OneFormField.from_coefficients(T1, {jet(0, 1): e("q0_1", T1)})
    assert (a + b).coefficient(jet(0, 1)) == e("q0_1 + q1_1", T1)
    assert (a - a).is_zero
    assert (-a).coefficient(jet(0, 1)) == e("-q1_1", T1)
    assert a + b == b + a
    other = OneFormField.zero(T2)
    with pytest.raises(FormError):
        a + other


def test_oneform_str():
    th = OneFormField.from_coefficients(
        T1, {jet(0, 1): e("q0_1 + q1_1", T1), jet(1, 1): e("-q0_1", T1)}
    )
    assert str(th) == "(q0_1 + q1_1) dq0_1 - q0_1 dq1_1"
    assert str(OneFormField.zero(T1)) == "0"


def test_twoform_antisymmetry_enforced():
    one = Expression.number(1)
    om = TwoFormField.from_upper_entries(T1, {(jet(0, 1), jet(1, 1)): one})
    assert om.entry(jet(0, 1), jet(1, 1)) == one
    assert om.entry(jet(1, 1), jet(0, 1)) == -one
    with pytest.raises(FormError):
        TwoFormField.from_upper_entries(T1, {(jet(1, 1), jet(0, 1)): one})
    with pytest.raises(FormError):
        om.entry(jet(0, 1), jet(2, 1))


@pytest.mark.parametrize("rows", [
    ((1, 2), (3,)),  # one row short
    ((1,), (2,), ()),  # first row too short
    ((1, 2), (3, 4), ()),  # second row too long
    ((1, 2), (3,), (), ()),  # one row too many
    ((0, 1), (-1, 0), (0, 0)),  # a dense matrix is not an upper triangle
])
def test_twoform_rejects_ragged_upper_rows(rows):
    with pytest.raises(FormError, match="upper-triangle rows"):
        TwoFormField(T2, rows)


def test_twoform_dense_and_upper_constructions_agree():
    # the upper-triangle constructor, from_upper_entries and the dense
    # matrix read back entry by entry all describe one 2-form
    zero = Expression.number(0)
    a, b, c = e("q2_1", T2), e("q0_1*q1_1", T2), e("sqrt(q0_1)", T2)
    direct = TwoFormField(T2, ((a, b), (c,), ()))
    coords = T2.coordinates
    upper = TwoFormField.from_upper_entries(
        T2, {(coords[0], coords[1]): a, (coords[0], coords[2]): b,
             (coords[1], coords[2]): c})
    assert direct == upper and hash(direct) == hash(upper)
    dense = ((zero, a, b), (-a, zero, c), (-b, -c, zero))
    assert tuple(tuple(upper.entry(u, v) for v in coords) for u in coords) == dense
    assert TwoFormField(T2, ((1, 0), (0,), ())) == TwoFormField.from_upper_entries(
        T2, {(coords[0], coords[1]): Expression.number(1)})
    assert -(-upper) == upper
    assert (upper - upper).is_zero
    assert upper + upper == TwoFormField.from_upper_entries(
        T2, {uv: w + w for uv, w in upper.upper_entries().items()})


def test_twoform_upper_entries_skips_zeros():
    om = TwoFormField.from_upper_entries(
        T2, {(jet(0, 1), jet(1, 1)): e("q2_1", T2)}
    )
    assert list(om.upper_entries()) == [(jet(0, 1), jet(1, 1))]
    assert om.upper_entries()[(jet(0, 1), jet(1, 1))] == e("q2_1", T2)


# -- d, wedge, contraction -----------------------------------------------------


def test_differential_coefficients():
    df = differential(e("q0_1*q1_1", T1), T1)
    assert df.coefficient(jet(0, 1)) == e("q1_1", T1)
    assert df.coefficient(jet(1, 1)) == e("q0_1", T1)


def test_exterior_derivative_of_liouville_like_form():
    # d(q1 dq0) = dq1 ∧ dq0 = -(dq0 ∧ dq1)
    th = OneFormField.from_coefficients(T1, {jet(0, 1): e("q1_1", T1)})
    om = exterior_derivative(th)
    assert om.entry(jet(0, 1), jet(1, 1)) == Expression.number(-1)


def test_d_of_d_vanishes():
    for text in ("q0_1^3*q1_1", "sin(q0_1)*q2_1", "q0_1*q1_1*q2_1 + q1_1^2"):
        ddf = exterior_derivative(differential(e(text, T2), T2))
        assert ddf.is_zero


def test_d_squared_on_oneforms_vanishes():
    th = OneFormField(
        T2, (e("q1_1*q2_1", T2), e("q0_1^2", T2), e("q0_1*q1_1", T2))
    )
    triples = three_form_coefficients(exterior_derivative(th))
    assert len(triples) == 1  # dim 3 -> one ordered triple
    assert all(v.is_zero for v in triples.values())


def test_wedge_is_antisymmetric():
    a = differential(e("q0_1^2", T2), T2)
    b = differential(e("q1_1*q2_1", T2), T2)
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero
    with pytest.raises(FormError):
        wedge(a, OneFormField.zero(T1))


def test_contract_convention():
    om = TwoFormField.from_upper_entries(
        PS, {(jet(0, 1), momentum(0, 1)): Expression.number(1)}
    )
    X = VectorField(PS, [Expression.number(1), Expression.number(0)])
    # i(∂q) (dq ∧ dp) = dp
    assert contract(X, om).coefficient(momentum(0, 1)) == Expression.number(1)
    assert contract(X, om).coefficient(jet(0, 1)).is_zero
    Y = VectorField(PS, [Expression.number(0), Expression.number(1)])
    # i(∂p) (dq ∧ dp) = -dq
    assert contract(Y, om).coefficient(jet(0, 1)) == Expression.number(-1)
    with pytest.raises(FormError):
        contract(field(T1, "q0_1", "q1_1"), om)


def test_pair_is_the_duality_pairing():
    th = differential(e("q0_1^2 + q1_1", T1), T1)
    X = field(T1, "q1_1", "-q0_1")
    assert pair(X, th) == e("2*q0_1*q1_1 - q0_1", T1)
    with pytest.raises(FormError):
        pair(field(T2, "0", "0", "0"), th)


def test_cartan_magic_on_functions():
    # X(f) agrees with pairing df against X
    f = e("q0_1^2*q2_1 + q1_1", T2)
    X = field(T2, "q1_1", "q2_1", "-q0_1")
    assert X.apply(f) == pair(X, differential(f, T2))


# -- coordinate maps -----------------------------------------------------------


def legendre_like_map():
    """T^1 Q -> T*Q for L = q1^2/2: p0 = q1."""
    return CoordMap(
        T1,
        PS,
        {
            jet(0, 1): e("q0_1", T1),
            momentum(0, 1): e("q1_1", T1),
        },
    )


def test_coordmap_validation():
    with pytest.raises(FormError):
        CoordMap(T1, PS, {jet(0, 1): e("q0_1", T1)})  # missing p0_1
    with pytest.raises(FormError):
        CoordMap(
            T1,
            PS,
            {
                jet(0, 1): e("q0_1", T1),
                momentum(0, 1): e("q2_1", T2),  # not a source coordinate
            },
        )
    with pytest.raises(FormError):
        CoordMap(
            T1,
            PS,
            {
                jet(0, 1): e("q0_1", T1),
                momentum(0, 1): e("q1_1", T1),
                jet(1, 1): e("q1_1", T1),  # outside the target
            },
        )


def test_pull_function_is_composition():
    fl = legendre_like_map()
    h = parse("1/2*p0_1^2 + q0_1", PS.table())
    assert fl.pull_function(h) == e("1/2*q1_1^2 + q0_1", T1)


def test_pull_oneform_chain_rule():
    fl = legendre_like_map()
    th = OneFormField.from_coefficients(
        PS, {jet(0, 1): parse("p0_1", PS.table())}
    )
    pulled = fl.pull_oneform(th)
    assert pulled.coefficient(jet(0, 1)) == e("q1_1", T1)
    assert pulled.coefficient(jet(1, 1)).is_zero


def test_pullback_commutes_with_d():
    fl = legendre_like_map()
    h = parse("p0_1^2*q0_1 + p0_1", PS.table())
    lhs = fl.pull_oneform(differential(h, PS))
    rhs = differential(fl.pull_function(h), T1)
    assert lhs == rhs
    th = OneFormField.from_coefficients(
        PS, {jet(0, 1): parse("p0_1*q0_1", PS.table())}
    )
    assert fl.pull_twoform(exterior_derivative(th)) == exterior_derivative(
        fl.pull_oneform(th)
    )


def test_pullbacks_reject_forms_on_other_spaces():
    fl = legendre_like_map()
    with pytest.raises(FormError):
        fl.pull_oneform(OneFormField.zero(T1))
    with pytest.raises(FormError):
        fl.pull_twoform(TwoFormField.zero(T1))


# -- property test: d∘d == 0 on random polynomial 1-forms ----------------------


@st.composite
def poly_coefficients(draw):
    coords = ("q0_1", "q1_1", "q2_1")
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.integers(-4, 4))
        a = draw(st.sampled_from(coords))
        b = draw(st.sampled_from(coords))
        terms.append("%d*%s*%s" % (c, a, b))
    return " + ".join(terms)


@settings(max_examples=50, deadline=None)
@given(st.tuples(poly_coefficients(), poly_coefficients(), poly_coefficients()))
def test_d_squared_property(texts):
    th = OneFormField(T2, tuple(e(t, T2) for t in texts))
    triples = three_form_coefficients(exterior_derivative(th))
    assert all(v.is_zero for v in triples.values())


@settings(max_examples=50, deadline=None)
@given(st.tuples(poly_coefficients(), poly_coefficients(), poly_coefficients()),
       st.tuples(poly_coefficients(), poly_coefficients(), poly_coefficients()))
def test_pullback_commutes_with_d(images, texts):
    # a map T^2 Q -> T^2 Q whose images are polynomials, so every
    # Jacobian entry of pull_oneform can be a polynomial too
    chart = CoordMap(T2, T2, dict(zip(T2.coordinates, (e(t, T2) for t in images))))
    th = OneFormField(T2, tuple(e(t, T2) for t in texts))
    assert exterior_derivative(chart.pull_oneform(th)) == chart.pull_twoform(
        exterior_derivative(th))
