"""Jet spaces, vector fields, curves, prolongation, the total derivative,
second-order-type classification and order truncation.
"""

import numpy as np
import pytest

from hjmech import (
    Curve,
    Expression,
    JetError,
    JetSpace,
    VectorField,
    jet,
    parse,
    sample_curve,
)
from hjmech.expr import DomainEvalError
from hjmech.jets import (
    central_differences,
    prolong,
    semispray_type,
    total_derivative,
)

T2 = JetSpace(1, 2)  # one axis, orders 0..2
T1X2 = JetSpace(2, 1)  # two axes, orders 0..1


def e(text, space, constants=()):
    return parse(text, space.table(constants))


# -- spaces ------------------------------------------------------------------


def test_coordinates_are_order_major():
    names = [c.name for c in JetSpace(2, 2).coordinates]
    assert names == ["q0_1", "q0_2", "q1_1", "q1_2", "q2_1", "q2_2"]
    assert JetSpace(2, 2).dimension == 6


def test_space_validation():
    with pytest.raises(ValueError):
        JetSpace(0, 1)
    with pytest.raises(ValueError):
        JetSpace(1, -1)


def test_coordinate_lookup_bounds():
    assert T2.coordinate(2, 1) == jet(2, 1)
    with pytest.raises(JetError):
        T2.coordinate(3, 1)
    with pytest.raises(JetError):
        T2.coordinate(0, 2)


def test_extend_truncate_round_trip():
    assert T2.extended(2) == JetSpace(1, 4)
    assert JetSpace(1, 4).truncated(2) == T2
    with pytest.raises(JetError):
        T2.truncated(3)


def test_truncate_state():
    out = JetSpace(2, 2).truncate_state([1, 2, 3, 4, 5, 6], 1)
    assert out.tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(JetError):
        JetSpace(2, 2).truncate_state([1, 2, 3], 1)


# -- vector fields -----------------------------------------------------------


def test_field_component_lookup_and_apply():
    X = VectorField(T1X2, [e(s, T1X2) for s in ("q1_1", "q1_2", "-q0_1", "-q0_2")])
    assert X.component(jet(1, 1)) == e("-q0_1", T1X2)
    # directional derivative of the oscillator energy is zero along the flow
    h = e("1/2*(q0_1^2 + q0_2^2 + q1_1^2 + q1_2^2)", T1X2)
    assert X.apply(h).is_zero
    with pytest.raises(JetError):
        X.component(jet(2, 1))


def test_field_requires_full_component_list():
    with pytest.raises(JetError):
        VectorField(T1X2, [Expression.number(1)])


def test_field_str_keeps_zero_components():
    X = VectorField(T1X2, [e("q1_1", T1X2), Expression.number(0),
                           Expression.number(0), Expression.number(1)])
    assert str(X) == "q1_1 ∂q0_1 + 0 ∂q0_2 + 0 ∂q1_1 + 1 ∂q1_2"


def test_field_subs_and_eq():
    X = VectorField(T1X2, [e(s, T1X2) for s in ("q1_1", "q1_2", "q0_1", "q0_2")])
    Y = X.subs({jet(0, 1): e("2*q0_1", T1X2)})
    assert Y.component(jet(1, 1)) == e("2*q0_1", T1X2)
    assert X == VectorField(T1X2, X.components)
    assert not (X == Y)


# -- total derivative --------------------------------------------------------


def test_total_derivative_shifts_order():
    out = total_derivative(e("q0_1^2", T2), 2)
    assert out == e("2*q0_1*q1_1", T2.extended())
    assert total_derivative(e("q2_1", T2), 2) == parse("q3_1", JetSpace(1, 3).table())


def test_total_derivative_is_a_derivation():
    f = e("q0_1*q1_1", T2)
    g = e("q1_1 + q2_1^2", T2)
    lhs = total_derivative(f * g, 2)
    rhs = total_derivative(f, 2) * g + f * total_derivative(g, 2)
    assert lhs == rhs


def test_total_derivative_rejects_out_of_range_orders():
    with pytest.raises(JetError):
        total_derivative(e("q2_1", T2), 1)
    from hjmech import PhaseSpace

    with pytest.raises(JetError):
        total_derivative(parse("p0_1", PhaseSpace(1, 1).table()), 1)


# -- curves ------------------------------------------------------------------


def test_symbolic_curve_prolongs_exactly():
    c = Curve.symbolic([parse("t^2", T2.table(("t",)))])
    lifted = prolong(c, 2)
    assert lifted.components == (
        parse("t^2", T2.table(("t",))),
        parse("2*t", T2.table(("t",))),
        Expression.number(2),
    )


def test_symbolic_curve_rejects_jet_coordinates():
    with pytest.raises(JetError):
        Curve.symbolic([e("q0_1", T2)])


def test_curve_is_symbolic_or_sampled_not_both():
    with pytest.raises(JetError):
        Curve(components=None, grid=None)
    with pytest.raises(JetError):
        Curve(
            components=(Expression.number(1),),
            grid=np.array([0.0, 1.0]),
        )


def test_sampled_curve_validation():
    with pytest.raises(JetError):
        Curve.sampled([0.0, 0.0, 1.0], np.zeros((3, 1)))
    with pytest.raises(JetError):
        Curve.sampled([0.0], np.zeros((1, 1)))
    with pytest.raises(JetError):
        Curve.sampled([0.0, 1.0], np.zeros((3, 1)))


def test_sample_curve_evaluates_on_grid():
    c = Curve.symbolic([parse("a*t", T2.table(("t", "a")))])
    grid = np.linspace(0.0, 1.0, 5)
    vals = sample_curve(c, grid, constants={"a": 3.0})
    assert vals.shape == (5, 1)
    assert np.allclose(vals[:, 0], 3.0 * grid)
    with pytest.raises(JetError):
        sample_curve(Curve.sampled([0.0, 1.0], np.zeros((2, 1))), grid)



def test_sample_curve_keeps_evaluates_bits_and_first_error():
    table = T2.table(("t", "a"))
    comps = [parse("sin(a*t) + sqrt(t)", table), parse("a*t^3 - 1/(t - a)", table)]
    c = Curve.symbolic(comps)

    def per_point(grid, constants):
        return [[comp.evaluate(dict(constants, t=t)) for comp in comps] for t in grid]

    grid = np.linspace(0.0, 1.0, 7)
    vals = sample_curve(c, grid, constants={"a": 3.0})
    assert vals.tobytes() == np.asarray(per_point(grid.tolist(), {"a": 3.0})).tobytes()
    # t = 0.5 is the first failing row (its second component), t = -1 fails too
    grid = [0.25, 0.5, -1.0]
    with pytest.raises(DomainEvalError) as got:
        sample_curve(c, grid, constants={"a": 0.5})
    with pytest.raises(DomainEvalError) as want:
        per_point(grid, {"a": 0.5})
    assert str(got.value) == str(want.value) and "division by zero" in str(got.value)

def test_prolong_sampled_needs_scheme_and_enough_points():
    grid = np.linspace(0.0, 1.0, 101)
    vals = (grid ** 3).reshape(-1, 1)
    c = Curve.sampled(grid, vals)
    with pytest.raises(JetError):
        prolong(c, 2)
    lifted = prolong(c, 2, scheme=central_differences)
    assert lifted.values.shape == (101, 3)
    interior = slice(2, -2)
    assert np.allclose(lifted.values[interior, 1], 3.0 * grid[interior] ** 2, atol=1e-3)
    assert np.allclose(lifted.values[interior, 2], 6.0 * grid[interior], atol=1e-2)
    short = Curve.sampled([0.0, 1.0], np.zeros((2, 1)))
    with pytest.raises(JetError):
        prolong(short, 2, scheme=central_differences)


# -- semispray type and projection -------------------------------------------


def _shift_field(space, tail):
    comps = []
    k, n = space.order, space.n
    for i in range(k):
        for A in range(1, n + 1):
            comps.append(Expression.coordinate(jet(i + 1, A)))
    comps.extend(tail)
    return VectorField(space, comps)


def test_semispray_type_one():
    X = _shift_field(T2, [e("-q0_1", T2)])
    assert semispray_type(X) == 1


def test_semispray_type_two():
    space = T2
    comps = [
        Expression.coordinate(jet(1, 1)),
        e("q2_1 + q0_1", space),  # not the shift on the order-1 block
        e("-q0_1", space),
    ]
    assert semispray_type(VectorField(space, comps)) == 2


def test_semispray_type_none_without_leading_shift():
    comps = [e("q0_1", T2), e("q2_1", T2), e("-q0_1", T2)]
    assert semispray_type(VectorField(T2, comps)) is None
