"""Lagrangian side: Hessian regularity, momenta and Cartan forms, energy,
Euler-Lagrange expressions, the dynamics field, and curve residuals.
"""

import numpy as np
import pytest

from hjmech import (
    Constant,
    Curve,
    Expression,
    JetSpace,
    LagrangianError,
    LagrangianSystem,
    exterior_derivative,
    jet,
    parse,
)
from hjmech.jets import central_differences, semispray_type
from hjmech.lagrangian import NonAffineError, solve_affine, solve_linear_exact

from conftest import make_beam_symbolic, make_flight_1d


def v(sys_, text):
    return parse(text, sys_.velocity_space.table(tuple(sys_.constants)))


# -- construction -------------------------------------------------------------


def test_system_validation():
    T = JetSpace(1, 2).table()
    L = parse("q2_1^2", T)
    with pytest.raises(LagrangianError):
        LagrangianSystem(0, 1, L)
    with pytest.raises(LagrangianError):
        LagrangianSystem(1, 1, L)  # order-2 coordinate in a k=1 system
    with pytest.raises(LagrangianError):
        LagrangianSystem(2, 1, parse("mu*q2_1^2", JetSpace(1, 2).table(("mu",))))
    from hjmech import PhaseSpace

    with pytest.raises(LagrangianError):
        LagrangianSystem(1, 1, parse("p0_1", PhaseSpace(1, 1).table()))


def test_spaces(flight):
    assert flight.space == JetSpace(3, 2)
    assert flight.velocity_space == JetSpace(3, 3)
    assert flight.velocity_space.dimension == 12


def test_constant_values(beam, beam_symbolic):
    assert beam.constant_values() == {"mu": 1.0, "rho": 24.0}
    assert beam_symbolic.constant_values() == {}


# -- Hessian ------------------------------------------------------------------


def test_flight_hessian_is_minus_identity(flight):
    h = flight.hessian()
    for i in range(3):
        for j in range(3):
            expected = Expression.number(-1 if i == j else 0)
            assert h.matrix[i][j] == expected
    assert h.determinant == Expression.number(-1)
    assert h.invertible
    assert h.assumptions == ()


def test_beam_hessian_carries_constant_assumption(beam):
    h = beam.hessian()
    assert h.matrix == ((parse("mu", JetSpace(1, 2).table(("mu",))),),)
    assert str(h.determinant) == "mu"
    assert h.invertible
    assert h.assumptions == ("mu",)


def test_degenerate_hessian_blocks_dynamics():
    L = parse("q1_1*q1_2", JetSpace(2, 1).table())
    sys_ = LagrangianSystem(1, 2, L)
    h = sys_.hessian()
    assert str(h.determinant) == "-1"
    sys2 = LagrangianSystem(1, 2, parse("q1_1 + q0_1", JetSpace(2, 1).table()))
    assert not sys2.hessian().invertible
    with pytest.raises(LagrangianError):
        sys2.euler_lagrange_field()


# -- Cartan data --------------------------------------------------------------


def test_flight_momenta_and_theta(flight):
    cd = flight.cartan()
    assert cd.space == JetSpace(3, 3)
    for A in (1, 2, 3):
        assert cd.momentum(0, A) == v(flight, "q1_%d + q3_%d" % (A, A))
        assert cd.momentum(1, A) == v(flight, "-q2_%d" % A)
    with pytest.raises(LagrangianError):
        cd.momentum(2, 1)
    assert str(cd.theta) == (
        "(q1_1 + q3_1) dq0_1 + (q1_2 + q3_2) dq0_2 + (q1_3 + q3_3) dq0_3"
        " - q2_1 dq1_1 - q2_2 dq1_2 - q2_3 dq1_3"
    )


def test_flight_omega_entries(flight):
    cd = flight.cartan()
    one = Expression.number(1)
    for A in (1, 2, 3):
        assert cd.omega.entry(jet(0, A), jet(1, A)) == one
        assert cd.omega.entry(jet(0, A), jet(3, A)) == one
        assert cd.omega.entry(jet(1, A), jet(2, A)) == -one
        assert cd.omega.entry(jet(0, A), jet(2, A)).is_zero
    assert cd.omega.entry(jet(0, 1), jet(1, 2)).is_zero


def test_omega_is_minus_d_theta(flight, beam, flight_1d):
    for sys_ in (flight, beam, flight_1d):
        cd = sys_.cartan()
        assert exterior_derivative(cd.theta) == -cd.omega


def test_flight_energy(flight):
    cd = flight.cartan()
    expected = v(
        flight,
        "1/2*q1_1^2 + 1/2*q1_2^2 + 1/2*q1_3^2"
        " + q1_1*q3_1 + q1_2*q3_2 + q1_3*q3_3"
        " - 1/2*q2_1^2 - 1/2*q2_2^2 - 1/2*q2_3^2",
    )
    assert cd.energy == expected


def test_beam_cartan_strings(beam):
    cd = beam.cartan()
    assert str(cd.theta) == "-mu*q3_1 dq0_1 + mu*q2_1 dq1_1"
    assert cd.momentum(0, 1) == v(beam, "-mu*q3_1")
    assert cd.momentum(1, 1) == v(beam, "mu*q2_1")
    assert cd.energy == v(beam, "-rho*q0_1 - mu*q1_1*q3_1 + 1/2*mu*q2_1^2")
    assert cd.omega.entry(jet(0, 1), jet(3, 1)) == v(beam, "-mu")
    assert cd.omega.entry(jet(1, 1), jet(2, 1)) == v(beam, "mu")
    assert cd.omega.entry(jet(0, 1), jet(1, 1)).is_zero


def test_theta_pairs_order(beam):
    pairs = beam.cartan().theta_pairs()
    assert [c.name for _, c in pairs] == ["q0_1", "q1_1"]
    assert pairs[0][0] == v(beam, "-mu*q3_1")


# -- Euler-Lagrange -----------------------------------------------------------


def test_flight_el_expressions(flight):
    exprs = flight.euler_lagrange_expressions()
    big = JetSpace(3, 4).table()
    assert exprs == tuple(
        parse("-q2_%d - q4_%d" % (A, A), big) for A in (1, 2, 3)
    )


def test_beam_el_expression(beam):
    exprs = beam.euler_lagrange_expressions()
    assert exprs == (parse("rho + mu*q4_1", JetSpace(1, 4).table(("mu", "rho"))),)


def test_flight_el_field(flight):
    X = flight.euler_lagrange_field()
    assert semispray_type(X) == 1
    assert X.forcing == tuple(v(flight, "-q2_%d" % A) for A in (1, 2, 3))
    assert X.component(jet(0, 1)) == v(flight, "q1_1")
    assert X.component(jet(2, 3)) == v(flight, "q3_3")
    assert X.component(jet(3, 2)) == v(flight, "-q2_2")


def test_beam_el_field_forcing(beam):
    X = beam.euler_lagrange_field()
    assert X.forcing == (v(beam, "-rho/mu"),)


def test_el_field_is_cached(flight):
    assert flight.euler_lagrange_field() is flight.euler_lagrange_field()


def test_quartic_velocity_lagrangian_still_quasilinear():
    # EL expressions are always linear in the formal top coordinate, even
    # when the momentum rule itself is nonlinear in the velocities
    L = parse("q1_1^4/12", JetSpace(1, 1).table())
    sys_ = LagrangianSystem(1, 1, L)
    assert sys_.hessian().invertible  # q1^2 is nonzero as an expression
    X = sys_.euler_lagrange_field()
    assert X.forcing == (Expression.number(0),)


# -- residual along curves ------------------------------------------------------


def quartic_table():
    return JetSpace(1, 2).table(("t", "mu", "rho", "a0", "a1", "a2", "a3"))


def test_beam_symbolic_residual_vanishes_for_the_general_solution():
    sys_ = make_beam_symbolic()
    c = Curve.symbolic(
        [
            parse(
                "-rho/(24*mu)*t^4 + a3*t^3 + a2*t^2 + a1*t + a0",
                quartic_table(),
            )
        ]
    )
    res = sys_.euler_lagrange_residual(c)
    assert len(res) == 1
    assert res[0].is_zero


def test_beam_symbolic_residual_flags_wrong_coefficient():
    sys_ = make_beam_symbolic()
    c = Curve.symbolic([parse("rho/(24*mu)*t^4", quartic_table())])
    res = sys_.euler_lagrange_residual(c)
    assert res[0] == parse("2*rho", quartic_table())


def test_flight_1d_residual_of_sine_flow():
    sys_ = make_flight_1d()
    c = Curve.symbolic([parse("sin(t)", JetSpace(1, 2).table(("t",)))])
    (res,) = sys_.euler_lagrange_residual(c)
    # -q2 - q4 along sin: sin(t) - sin(t)
    assert res.is_zero


def test_sampled_residual_matches_on_the_interior(beam):
    grid = np.linspace(0.0, 1.0, 201)
    values = (-grid ** 4).reshape(-1, 1)
    c = Curve.sampled(grid, values)
    res = beam.euler_lagrange_residual(
        c, scheme=central_differences, constants={"mu": 1.0, "rho": 24.0}
    )
    assert res.shape == (201, 1)
    interior = res[8:-8, 0]
    assert np.max(np.abs(interior)) < 1e-6


def test_residual_requires_matching_base_dimension(flight):
    c = Curve.symbolic([parse("t", JetSpace(1, 1).table(("t",)))])
    with pytest.raises(LagrangianError):
        flight.euler_lagrange_residual(c)


# -- exact linear solve ----------------------------------------------------------


def test_solve_linear_exact():
    one = Expression.number(1)
    two = Expression.number(2)
    three = Expression.number(3)
    x, y = solve_linear_exact([[two, one], [one, one]], [three, two])
    assert x == one and y == one
    with pytest.raises(LagrangianError, match="^singular coefficient matrix in exact solve$"):
        solve_linear_exact([[one, one], [one, one]], [one, two])


@pytest.mark.parametrize("coeff", ["mu", "sqrt(q0_1)"])
def test_solve_linear_exact_symbolic_coefficients(coeff):
    # a named constant gives a rational-function domain, a radical the EX domain
    T = JetSpace(1, 1).table(("mu",))
    a = parse(coeff, T)
    one, two, three = (Expression.number(v) for v in (1, 2, 3))
    rhs = [parse("q1_1", T), three]
    x, y = solve_linear_exact([[a, one], [one, two]], rhs)
    assert x == parse("(2*q1_1 - 3)/(2*%s - 1)" % coeff, T)
    assert y == parse("(3*%s - q1_1)/(2*%s - 1)" % (coeff, coeff), T)
    assert a * x + y == rhs[0] and x + two * y == rhs[1]


def test_solve_affine_in_coordinates_and_constants():
    T = JetSpace(1, 1).table(("u", "w"))
    # q0_1 + 2*u - w = 0 and u + w - 3 = 0, for the constants u and w
    u, w = solve_affine([parse("q0_1 + 2*u - w", T), parse("u + w - 3", T)], ("u", "w"))
    assert u == parse("(3 - q0_1)/3", T) and w == parse("(q0_1 + 6)/3", T)
    # q0_1*q1_1 - 1 = 0 for the coordinate q1_1
    (x,) = solve_affine([parse("q0_1*q1_1 - 1", T)], [jet(1, 1)])
    assert x == parse("1/q0_1", T)
    with pytest.raises(LagrangianError, match="^singular coefficient matrix in exact solve$"):
        solve_affine([parse("u + w", T), parse("2*u + 2*w - 1", T)], ("u", "w"))
    with pytest.raises(NonAffineError, match="^the coefficient of w depends on an unknown$") as exc:
        solve_affine([parse("u + w", T), parse("u + u*w", T)], ("w", "u"))
    assert exc.value.unknown == "w"
