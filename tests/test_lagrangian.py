"""Lagrangian side: Hessian regularity, momenta and Cartan forms, energy,
Euler-Lagrange expressions, the dynamics field, and curve residuals.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

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
from hjmech.jets import central_differences, prolong, semispray_type, total_derivative
from hjmech.expr import SingularMatrixError, UnboundSymbolError, determinant, solve_linear
from hjmech.lagrangian import NonAffineError, solve_affine

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


def _reference_alternating_sum(L, k, first, axis):
    """Σ_{i=0}^{k-first} (−1)^i d_T^i(∂L/∂q_{first+i}^A), each d_T^i taken
    term by term from T^k Q: the closed form the momenta (first >= 1) and
    the EL expressions (first = 0) were computed from before the
    recursion, kept as its reference."""
    total = Expression.number(0)
    for i in range(k - first + 1):
        term = L.diff(jet(first + i, axis))
        for m in range(k, k + i):
            term = total_derivative(term, m)
        total = total + term if i % 2 == 0 else total - term
    return total


RECURSION_LAGRANGIANS = [
    (2, 2, "1/2*(q2_1^2 + q2_2^2) + q1_1*q1_2*q0_2 - q0_1^3*q2_2 + q2_1*q1_2^2"),
    (3, 1, "1/2*q3_1^2 - q2_1^2*q1_1 + q0_1^4*q3_1 + q1_1*q2_1*q3_1"),
    (2, 1, "exp(q0_1)*q2_1^2 + exp(q1_1*q2_1) - q1_1^2*exp(-q0_1)"),
    (2, 2, "sqrt(1 + q2_1^2 + q1_2^2) + q0_1*sqrt(q0_2^2 + 1)*q2_2 + q2_2^2/2"),
    (1, 2, "sqrt(q1_1^2 + q1_2^2 + 1) - q0_1*q1_2 + exp(q0_2)*q1_1"),
]


@pytest.mark.parametrize("k, n, text", RECURSION_LAGRANGIANS)
def test_recursion_matches_the_alternating_sums(k, n, text):
    L = parse(text, JetSpace(n, k).table())
    sys_ = LagrangianSystem(k, n, L)
    els = sys_.euler_lagrange_expressions()
    cart = sys_.cartan()
    for A in range(1, n + 1):
        for r in range(1, k + 1):
            ref = _reference_alternating_sum(L, k, r, A)
            got = cart.momentum(r - 1, A)
            assert got == ref and str(got) == str(ref)
        ref = _reference_alternating_sum(L, k, 0, A)
        assert els[A - 1] == ref and str(els[A - 1]) == str(ref)
    assert list(cart.momenta) == [(i, A) for i in range(k) for A in range(1, n + 1)]


def test_el_field_builds_no_cartan_data(monkeypatch):
    def refuse(self):
        raise AssertionError("the dynamics built the Cartan data")

    monkeypatch.setattr(LagrangianSystem, "cartan", refuse)
    sys_ = make_flight_1d()
    X = sys_.euler_lagrange_field()
    assert X.forcing == (v(sys_, "-q2_1"),)


def test_cartan_builds_no_el_expressions(monkeypatch):
    def refuse(self):
        raise AssertionError("the Cartan data built the EL expressions")

    monkeypatch.setattr(LagrangianSystem, "euler_lagrange_expressions", refuse)
    sys_ = make_flight_1d()
    assert sys_.cartan().momentum(0, 1) == v(sys_, "q1_1 + q3_1")


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



def test_sampled_residual_keeps_evaluates_bits_and_errors(beam):
    grid = np.linspace(0.0, 1.0, 41)
    c = Curve.sampled(grid, np.sin(3.0 * grid).reshape(-1, 1))
    constants = {"mu": 0.7, "rho": 24.0}
    res = beam.euler_lagrange_residual(c, scheme=central_differences, constants=constants)
    names = [jet(i, 1).name for i in range(5)]
    want = [[b.evaluate(dict(constants, **dict(zip(names, row))))
             for b in beam.euler_lagrange_expressions()]
            for row in prolong(c, 4, central_differences).values.tolist()]
    assert res.tobytes() == np.asarray(want, dtype=float).tobytes()
    with pytest.raises(UnboundSymbolError, match="unbound symbol 'mu'"):
        beam.euler_lagrange_residual(c, scheme=central_differences, constants={"rho": 24.0})

def test_residual_requires_matching_base_dimension(flight):
    c = Curve.symbolic([parse("t", JetSpace(1, 1).table(("t",)))])
    with pytest.raises(LagrangianError):
        flight.euler_lagrange_residual(c)


# -- exact linear solve ----------------------------------------------------------


def test_solve_linear_exact():
    one = Expression.number(1)
    two = Expression.number(2)
    three = Expression.number(3)
    x, y = solve_linear([[two, one], [one, one]], [three, two])
    assert x == one and y == one
    with pytest.raises(SingularMatrixError, match="^singular coefficient matrix in exact solve$"):
        solve_linear([[one, one], [one, one]], [one, two])


@pytest.mark.parametrize("coeff", ["mu", "sqrt(q0_1)"])
def test_solve_linear_exact_symbolic_coefficients(coeff):
    # a named constant gives a rational-function domain, a radical the EX domain
    T = JetSpace(1, 1).table(("mu",))
    a = parse(coeff, T)
    one, two, three = (Expression.number(v) for v in (1, 2, 3))
    rhs = [parse("q1_1", T), three]
    x, y = solve_linear([[a, one], [one, two]], rhs)
    assert x == parse("(2*q1_1 - 3)/(2*%s - 1)" % coeff, T)
    assert y == parse("(3*%s - q1_1)/(2*%s - 1)" % (coeff, coeff), T)
    assert a * x + y == rhs[0] and x + two * y == rhs[1]


def _reference_solve(matrix, rhs):
    # the solve before polynomial entries skipped the sympy conversion
    n = len(matrix)
    aug = DomainMatrix.from_list_sympy(
        n, n + 1, [[e.sym for e in row] + [r.sym] for row, r in zip(matrix, rhs)])
    num, den = aug[:, :n].solve_den(aug[:, n:])
    den = num.domain.to_sympy(den)
    return tuple(Expression(x / den) for x in num.to_Matrix())


def _reference_determinant(matrix):
    # the determinant before every matrix went through expr.domain_matrix
    return Expression(sp.Matrix([[e.sym for e in row] for row in matrix]).det())


WALPHA = ("c2", "(2*c2*q1_1 - q1_1^2 - 2*c1)^(1/2)")

# (matrix rows, right-hand side) over JetSpace(1, 1) with constants c1, c2
REFERENCE_SYSTEMS = {
    # the Jacobian ∂α/∂(c1, c2) of the javelin1d walpha family
    "walpha-jacobian": (None, ("q0_1", "1")),
    "radical": ((("sqrt(q0_1)", "q1_1"), ("1", "sqrt(q0_1 + c1)")), ("c2", "q0_1")),
    "rational-radical": ((("1/(sqrt(q1_1) + 1)", "c1"), ("q0_1", "2")), ("1", "sqrt(q1_1)")),
    "exp-sin": ((("exp(q0_1)", "sin(q1_1)"), ("cos(q1_1)", "exp(-q0_1)")), ("q1_1", "c1")),
    "mixed-3x3": ((("exp(q0_1)", "1", "0"), ("q1_1", "sin(q0_1)^2", "c1"),
                   ("sqrt(q0_1^2 + 1)", "0", "1/q1_1")), ("1", "q0_1", "exp(c2)")),
    "polynomial": ((("q0_1*q1_1", "c1"), ("1", "q1_1 - c2")), ("c2", "q0_1^2")),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
def test_determinant_and_solve_match_the_sympy_references(name):
    T = JetSpace(1, 1).table(("c1", "c2"))
    rows, rhs = REFERENCE_SYSTEMS[name]
    if rows is None:
        matrix = [[parse(text, T).diff(p) for p in ("c1", "c2")] for text in WALPHA]
    else:
        matrix = [[parse(text, T) for text in row] for row in rows]
    rhs = [parse(text, T) for text in rhs]
    det, ref = determinant(matrix), _reference_determinant(matrix)
    assert det == ref and str(det) == str(ref)
    solution, ref = solve_linear(matrix, rhs), _reference_solve(matrix, rhs)
    assert solution == ref
    assert [str(x) for x in solution] == [str(x) for x in ref]


POLY_ENTRIES = st.sampled_from(
    ("0", "1", "-2", "1/3", "mu", "q0_1", "q1_1 - mu", "mu*q0_1^2 + 1", "q0_1*q1_1"))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(POLY_ENTRIES, min_size=n + 1, max_size=n + 1),
                       min_size=n, max_size=n)))
def test_ring_solve_and_determinant_match_the_sympy_conversion(rows):
    T = JetSpace(1, 1).table(("mu",))
    aug = [[parse(text, T) for text in row] for row in rows]
    matrix, rhs = [row[:-1] for row in aug], [row[-1] for row in aug]
    det = determinant(matrix)
    assert det == _reference_determinant(matrix)
    if det.is_zero:
        with pytest.raises(SingularMatrixError, match="^singular coefficient matrix"):
            solve_linear(matrix, rhs)
        return
    solution = solve_linear(matrix, rhs)
    assert solution == _reference_solve(matrix, rhs)
    assert all(str(x) == str(y) for x, y in zip(solution, _reference_solve(matrix, rhs)))


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
