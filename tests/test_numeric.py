"""Fixed-step RK4 integration, trajectory bookkeeping, the lifting check,
and finite-difference gradient validation.
"""

import contextlib
import importlib
import io
import math
import pathlib

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjmech import (
    DomainEvalError,
    ExprError,
    Expression,
    JetSpace,
    NumericError,
    OneForm,
    Section,
    Trajectory,
    VectorField,
    associated_field,
    fd_gradient_check,
    hamiltonian,
    integrate,
    jet,
    evaluate,
    legendre,
    parse,
    verify_lifting,
)
from hjmech import expr as E
from hjmech import numeric
from hjmech.cli import main

from conftest import make_beam, make_flight_1d

ROOT = pathlib.Path(__file__).resolve().parent.parent

T1 = JetSpace(1, 1)


def fld(space, *texts, constants=()):
    table = space.table(constants)
    return VectorField(space, [parse(t, table) for t in texts])


# -- integrate ----------------------------------------------------------------


def test_constant_field_is_integrated_exactly():
    X = fld(T1, "1", "0")
    traj = integrate(X, [0.0, 5.0], 0.0, 1.0, 0.125)
    assert traj.times.shape == (9,)
    assert traj.step == 0.125
    assert np.allclose(traj.states[-1], [1.0, 5.0], atol=0, rtol=0)
    assert traj.labels == ("q0_1", "q1_1")


def test_rk4_oscillator_accuracy_and_energy_drift():
    X = fld(T1, "q1_1", "-q0_1")
    traj = integrate(X, [1.0, 0.0], 0.0, 1.0, 1e-3)
    q, v = traj.states[-1]
    assert abs(q - math.cos(1.0)) < 1e-12
    assert abs(v + math.sin(1.0)) < 1e-12
    energy = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
    assert np.max(np.abs(energy - energy[0])) < 1e-12


def test_integration_is_bit_reproducible():
    X = fld(T1, "q1_1", "-sin(q0_1)")
    a = integrate(X, [0.3, -0.2], 0.0, 2.0, 0.01)
    b = integrate(X, [0.3, -0.2], 0.0, 2.0, 0.01)
    assert np.array_equal(a.states, b.states)


def test_beam_flow_is_the_quartic():
    beam = make_beam()
    X = beam.euler_lagrange_field()
    traj = integrate(
        X, [0.0, 0.0, 0.0, 0.0], 0.0, 1.0, 1e-3, constants=beam.constant_values()
    )
    # q0(t) = -t^4 from rest under forcing -rho/mu = -24
    assert np.allclose(traj.states[-1], [-1.0, -4.0, -12.0, -24.0], atol=1e-12)
    assert np.max(np.abs(traj.states[:, 0] + traj.times ** 4)) < 1e-12


def test_integrate_validates_the_grid():
    X = fld(T1, "1", "0")
    with pytest.raises(NumericError):
        integrate(X, [0.0, 0.0], 0.0, 1.0, -0.1)
    with pytest.raises(NumericError):
        integrate(X, [0.0, 0.0], 1.0, 0.0, 0.1)
    with pytest.raises(NumericError):
        integrate(X, [0.0, 0.0], 0.0, 1.0, 0.3)  # does not divide the span
    with pytest.raises(NumericError):
        integrate(X, [0.0], 0.0, 1.0, 0.1)


def test_integrate_requires_constant_bindings():
    X = fld(T1, "q1_1", "-g", constants=("g",))
    with pytest.raises(NumericError) as exc:
        integrate(X, [0.0, 0.0], 0.0, 1.0, 0.1)
    assert "g" in str(exc.value)
    traj = integrate(X, [0.0, 0.0], 0.0, 1.0, 0.1, constants={"g": 9.8})
    assert traj.states[-1][1] == pytest.approx(-9.8)


# A NaN initial state once integrated to rows of NaN without an error.
@pytest.mark.parametrize("z0", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0]])
def test_integrate_refuses_an_initial_state_that_is_not_finite(z0):
    with pytest.raises(NumericError) as info:
        integrate(fld(T1, "q1_1", "-q0_1"), z0, 0.0, 1.0, 0.1)
    assert str(info.value) == "the initial state must be finite"
    assert info.value.time is None and info.value.state is None


def test_domain_failure_reports_time_and_state():
    X = fld(T1, "q1_1", "sqrt(q0_1)")
    with pytest.raises(NumericError) as exc:
        integrate(X, [1.0, -3.0], 0.0, 2.0, 0.01)
    assert exc.value.time is not None
    assert exc.value.state is not None
    assert exc.value.time > 0.0


def test_blowup_is_reported_not_propagated():
    X = fld(T1, "q1_1", "q0_1^3")
    with pytest.raises(NumericError) as exc:
        integrate(X, [2.0, 2.0], 0.0, 10.0, 0.01)
    assert exc.value.time is not None


# Reference: the integrator as it was with one lambdified function per
# component, each called with the state followed by the constants' values.
def _reference_integrate(X, z0, t0, t1, h, constants=None):
    coord_names = [c.name for c in X.space.coordinates]
    const_names = sorted({n for comp in X.components for n in comp.free_names()}
                         - set(coord_names))
    args = [sp.Symbol(n) for n in coord_names + const_names]
    const_values = [float((constants or {})[n]) for n in const_names]
    fns = [sp.lambdify(args, comp.sym, modules=["math"]) for comp in X.components]

    def subterm(z):
        # ": <the subterm evaluate names>" for the first component that
        # fails there with a DomainEvalError, else ""
        bindings = dict(zip(coord_names + const_names, list(z) + const_values))
        for comp in X.components:
            try:
                evaluate(comp, bindings)
            except DomainEvalError as err:
                return ": %s" % err
            except (ArithmeticError, ValueError, TypeError):
                pass
        return ""

    def rhs(t, z):
        full = list(z) + const_values
        try:
            out = [fn(*full) for fn in fns]
            real = all(not isinstance(v, complex) and math.isfinite(v)
                       for v in out)
        except (ArithmeticError, ValueError, TypeError) as err:
            raise NumericError(
                "field evaluation failed at t = %.6g, state = %s%s"
                % (t, tuple(z), subterm(z) or ": %s" % err), time=t, state=tuple(z))
        if not real:
            raise NumericError(
                "field evaluation left the real domain at t = %.6g, "
                "state = %s%s" % (t, tuple(z), subterm(z)), time=t, state=tuple(z))
        return out

    z = [float(v) for v in z0]
    rows = [list(z)]
    for m in range(int(round((t1 - t0) / h))):
        t = t0 + m * h
        k1 = rhs(t, z)
        k2 = rhs(t + h / 2, [zi + h / 2 * ki for zi, ki in zip(z, k1)])
        k3 = rhs(t + h / 2, [zi + h / 2 * ki for zi, ki in zip(z, k2)])
        k4 = rhs(t + h, [zi + h * ki for zi, ki in zip(z, k3)])
        z = [zi + h / 6 * (a + 2 * b + 2 * c + d)
             for zi, a, b, c, d in zip(z, k1, k2, k3, k4)]
        rows.append(list(z))
    return np.array(rows, dtype=float)


def _integrate_both(*args, **kwargs):
    """The states integrate() gives and the reference's, as bytes, or the
    message, time and state of the NumericError each raised."""
    def states(*args, **kwargs):
        return integrate(*args, **kwargs).states

    outcomes = []
    for run in (states, _reference_integrate):
        try:
            result = run(*args, **kwargs)
            outcomes.append((result.tobytes(), result.shape))
        except NumericError as err:
            outcomes.append((str(err), err.time, err.state))
    return outcomes


def test_one_compiled_field_keeps_the_bits(flight_ham):
    _, hs = flight_ham  # the javelin Hamiltonian
    launch = [0.25, -0.5, 1, 0.75, -1, 0.5, 0.3, -0.2, 0.1, 0.05, 0.4, -0.6]
    new, old = _integrate_both(hs.field(), launch, 0.0, 1.0, 1e-3)
    assert new == old
    beam = make_beam()
    new, old = _integrate_both(
        beam.euler_lagrange_field(), [0.1, -0.2, 0.3, 0.4], 0.0, 1.0, 1e-3,
        constants=beam.constant_values())
    assert new == old


@pytest.mark.parametrize("components, z0, t1", [
    (("q1_1", "sqrt(q0_1)"), [1.0, -3.0], 2.0),
    (("q1_1", "q0_1^3"), [2.0, 2.0], 10.0),
], ids=["domain-failure", "blowup"])
def test_one_compiled_field_fails_where_the_reference_does(components, z0, t1):
    new, old = _integrate_both(fld(T1, *components), z0, 0.0, t1, 0.01)
    assert new == old and isinstance(new[1], float)


@pytest.mark.parametrize("components, z0, t1, constants", [
    # a complex stage value: (-x)^(3/2) is complex in Python
    (("q1_1", "q0_1^(3/2)"), [1.0, -3.0], 2.0, {}),
    # math.exp overflows inside a stage
    (("q1_1", "exp(q0_1^3)"), [1.0, 3.0], 2.0, {}),
    # every stage value is finite but the new state overflows: the
    # replay finds no failure and the loop goes on from inf
    (("c", "0"), [0.0, 0.0], 0.05, {"c": 1.5e308}),
    # a complex constant value reaches a math function, which raises
    # TypeError
    (("q1_1", "sin(sqrt(sqrt(mu)))"), [0.5, 0.1], 0.1, {"mu": -1.0}),
    # an exact integer too large for a float
    (("q1_1", "2^1100"), [0.5, 0.1], 0.1, {}),
], ids=["complex", "math-overflow", "state-overflow", "complex-argument",
        "huge-integer"])
def test_a_stopped_step_is_replayed_like_the_reference(components, z0, t1,
                                                       constants):
    X = fld(T1, *components, constants=tuple(constants))
    new, old = _integrate_both(X, z0, 0.0, t1, 0.01, constants=constants)
    assert new == old


@pytest.mark.parametrize("components, z0, constants, message", [
    (("q1_1", "q0_1^3"), [-1e200, 0.0], {},
     "field evaluation failed at t = 0, state = (-1e+200, 0.0): overflow in q0_1^3"),
    (("q1_1", "q0_1^(3/2)"), [-1.0, 0.0], {},
     "field evaluation left the real domain at t = 0, state = (-1.0, 0.0): "
     "fractional power of a negative value in q0_1^(3/2)"),
    (("q1_1", "sin(sqrt(sqrt(mu)))"), [0.5, 0.1], {"mu": -1.0},
     "field evaluation failed at t = 0, state = (0.5, 0.1): "
     "fractional power of a negative value in mu^(1/4)"),
], ids=["overflow", "complex", "complex-argument"])
def test_a_failed_stage_names_the_subterm_evaluate_names(components, z0,
                                                         constants, message):
    # the replay once gave Python's own error (an errno tuple for an
    # overflow) or no reason at all for a complex value
    X = fld(T1, *components, constants=tuple(constants))
    with pytest.raises(NumericError) as info:
        integrate(X, z0, 0.0, 0.1, 0.01, constants=constants)
    assert str(info.value) == message


FIELD_CONSTANTS = ("c1", "mu")


@st.composite
def field_texts(draw, coords, max_depth=3):
    """Component texts from polynomials, sqrt, sin, cos, exp, the
    coordinates and named constants."""
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return draw(st.sampled_from(("1", "2", "0.5") + coords + FIELD_CONSTANTS))
    inner = field_texts(coords, depth - 1)
    kind = draw(st.sampled_from(("binary", "power", "function")))
    if kind == "binary":
        return "(%s %s %s)" % (draw(inner), draw(st.sampled_from("+-*")), draw(inner))
    if kind == "power":
        return "(%s)^%d" % (draw(inner), draw(st.integers(2, 3)))
    name = draw(st.sampled_from(("sqrt", "sin", "cos", "exp")))
    return "%s(%s)" % (name, draw(inner))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_step_loop_keeps_the_reference_bits_and_failures(data):
    space = data.draw(st.sampled_from((JetSpace(1, 1), JetSpace(2, 1))))
    coords = tuple(c.name for c in space.coordinates)
    texts = [data.draw(field_texts(coords)) for _ in coords]
    try:
        X = fld(space, *texts, constants=FIELD_CONSTANTS)
    except ExprError:
        assume(False)
    value = st.floats(-2.0, 2.0, allow_nan=False)
    z0 = [data.draw(value) for _ in coords]
    constants = {name: data.draw(value) for name in FIELD_CONSTANTS}
    new, old = _integrate_both(X, z0, 0.0, 1.0, 0.05, constants=constants)
    assert new == old


# -- Trajectory ---------------------------------------------------------------


def test_trajectory_validation():
    times = np.array([0.0, 0.1, 0.2])
    states = np.zeros((3, 2))
    t = Trajectory(times, states, ("q0_1", "q1_1"), "test")
    assert t.state_at(2).tolist() == [0.0, 0.0]
    with pytest.raises(NumericError):
        Trajectory(np.array([0.0, 0.0, 0.1]), states, ("q0_1", "q1_1"), "test")
    with pytest.raises(NumericError):
        Trajectory(times, states, ("q0_1",), "test")
    with pytest.raises(NumericError):
        Trajectory(times, np.zeros((2, 2)), ("q0_1", "q1_1"), "test")


def test_trajectory_csv_is_full_precision():
    times = np.array([0.0, 0.1])
    states = np.array([[1.0 / 3.0, 0.0], [0.25, -1.0]])
    t = Trajectory(times, states, ("q0_1", "q1_1"), "test")
    lines = t.to_csv().splitlines()
    assert lines[0] == "0,0.33333333333333331,0"
    assert lines[1].startswith("0.1")
    assert t.to_csv().endswith("\n")


def _reference_to_csv(traj):
    # the per-value formatter to_csv had before it formatted whole rows
    lines = []
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join("%.17g" % v for v in [t, *row]))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_the_per_value_formatter():
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    rows = [
        [-0.0, 0.0, 1.0, -1.0],
        [tiny, -tiny, 2.2250738585072014e-308 / 3, 1e-320],
        [1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308],
        [3.0, 1e16, 2.0 ** 53, -12345678901234567.0],
        [1.0 / 3.0, math.pi, -math.e, 0.1],
    ]
    times = np.arange(len(rows), dtype=float) * 0.1
    for width in (1, 4):
        traj = Trajectory(times, np.array(rows)[:, :width],
                          ("q0_1", "q1_1", "q2_1", "q3_1")[:width], "test")
        assert traj.to_csv() == _reference_to_csv(traj)
    rng = np.random.default_rng(7)
    states = rng.standard_normal((1001, 5)) * 10.0 ** rng.integers(-300, 300, (1001, 5))
    traj = Trajectory(np.linspace(0.0, 1.0, 1001), states, tuple("abcde"), "test")
    assert traj.to_csv() == _reference_to_csv(traj)


# -- energy conservation along the exact fields ----------------------------------


def test_flight_1d_energy_drift_small():
    sys_ = make_flight_1d()
    X = sys_.euler_lagrange_field()
    traj = integrate(X, [0.2, 1.0, -0.3, 0.4], 0.0, 1.0, 1e-3)
    env_names = [c.name for c in X.space.coordinates]
    energy = sys_.cartan().energy
    values = [
        energy.evaluate(dict(zip(env_names, row))) for row in traj.states[:: 100]
    ]
    assert max(abs(v - values[0]) for v in values) < 1e-9


def test_hamiltonian_flow_conserves_h():
    sys_ = make_flight_1d()
    fl = legendre(sys_)
    hs = hamiltonian(sys_, fl)
    X = hs.field()
    traj = integrate(X, [0.1, 0.7, -0.4, 0.2], 0.0, 1.0, 1e-3)
    names = [c.name for c in X.space.coordinates]
    vals = [hs.h.evaluate(dict(zip(names, row))) for row in traj.states[::100]]
    assert max(abs(v - vals[0]) for v in vals) < 1e-9


# -- verify_lifting ----------------------------------------------------------------


def radical_oneform():
    T = JetSpace(1, 1).table(("c1", "c2"))
    return OneForm(
        2, 1,
        {(0, 1): parse("c2", T),
         (1, 1): parse("sqrt(2*c2*q1_1 - q1_1^2 - 2*c1)", T)},
    )


def test_lifting_holds_for_the_radical_candidate():
    sys_ = make_flight_1d()
    fl = legendre(sys_)
    hs = hamiltonian(sys_, fl)
    res = verify_lifting(
        hs, radical_oneform(), [0.0, 1.0], 0.0, 0.5, 1e-3,
        tol=1e-6, constants={"c1": -1.0, "c2": 0.0},
    )
    assert res.passed
    assert res.max_deviation < 1e-9
    assert res.tol == 1e-6
    assert res.lifted.states.shape == res.direct.states.shape


def test_lifting_holds_on_the_lagrangian_side():
    sys_ = make_flight_1d()
    fl = legendre(sys_)
    s = __import__("hjmech").transport(fl, radical_oneform())
    res = verify_lifting(
        sys_, s, [0.0, 1.0], 0.0, 0.5, 1e-3,
        tol=1e-6, constants={"c1": -1.0, "c2": 0.0},
    )
    assert res.passed


def test_lifting_takes_an_integrated_base_trajectory():
    sys_ = make_flight_1d()
    hs = hamiltonian(sys_, legendre(sys_))
    constants = {"c1": -1.0, "c2": 0.0}
    X = __import__("hjmech").associated_field(hs, radical_oneform())
    base = integrate(X, [0.0, 1.0], 0.0, 0.5, 1e-3, constants)
    reused = verify_lifting(hs, radical_oneform(), [0.0, 1.0], 0.0, 0.5, 1e-3,
                            constants=constants, base=base)
    own = verify_lifting(hs, radical_oneform(), [0.0, 1.0], 0.0, 0.5, 1e-3,
                         constants=constants)
    assert reused.passed and reused.max_deviation == own.max_deviation
    assert np.array_equal(reused.lifted.states, own.lifted.states)
    beam = make_beam()
    with pytest.raises(NumericError):
        verify_lifting(hs, radical_oneform(), [0.0, 1.0], 0.0, 0.5, 1e-3,
                       constants=constants,
                       base=integrate(beam.euler_lagrange_field(),
                                      [0.0] * 4, 0.0, 0.5, 1e-3,
                                      constants=beam.constant_values()))


def test_lifting_detects_a_broken_candidate():
    beam = make_beam()
    z = Expression.number(0)
    s = Section(2, 1, {(2, 1): z, (3, 1): z})
    res = verify_lifting(beam, s, [0.0, 0.0], 0.0, 1.0, 1e-2, tol=1e-6)
    assert not res.passed
    assert res.max_deviation > 1.0  # the true flow runs away as -t^4


def test_lifting_pairing_and_validation():
    beam = make_beam()
    sys1d = make_flight_1d()
    fl = legendre(sys1d)
    hs = hamiltonian(sys1d, fl)
    z = Expression.number(0)
    s = Section(2, 1, {(2, 1): z, (3, 1): z})
    with pytest.raises(NumericError):
        verify_lifting(hs, s, [0.0, 0.0], 0.0, 1.0, 0.1)
    with pytest.raises(NumericError):
        verify_lifting(beam, radical_oneform(), [0.0, 0.0], 0.0, 1.0, 0.1)
    with pytest.raises(NumericError):
        verify_lifting(beam, s, [0.0], 0.0, 1.0, 0.1)
    with pytest.raises(NumericError):
        verify_lifting(beam, s, [0.0, 0.0], 0.0, 1.0, 0.1, tol=0.0)
    with pytest.raises(NumericError):
        verify_lifting(beam, Section.generic(2, 1), [0.0, 0.0], 0.0, 1.0, 0.1)


def test_lifting_requires_domain_valid_start():
    sys_ = make_flight_1d()
    fl = legendre(sys_)
    hs = hamiltonian(sys_, fl)
    # radicand 2*c2*q1 - q1^2 - 2*c1 < 0 at q1 = 0, c1 = +1
    with pytest.raises(NumericError):
        verify_lifting(
            hs, radical_oneform(), [0.0, 0.0], 0.0, 0.5, 1e-2,
            constants={"c1": 1.0, "c2": 0.0},
        )


# A NaN tolerance passed the tol <= 0 check and then failed every lift; an
# infinite one passed every lift; a NaN base state lifted to NaN rows.
@pytest.mark.parametrize("z0, tol, message", [
    ([0.0, 1.0], math.nan, "the tolerance must be positive and finite"),
    ([0.0, 1.0], math.inf, "the tolerance must be positive and finite"),
    ([math.nan, 1.0], 1e-6, "the base state must be finite"),
    ([0.0, math.inf], 1e-6, "the base state must be finite"),
])
def test_lifting_refuses_values_that_are_not_finite(z0, tol, message):
    hs = hamiltonian(make_flight_1d(), legendre(make_flight_1d()))
    with pytest.raises(NumericError) as info:
        verify_lifting(hs, radical_oneform(), z0, 0.0, 0.5, 1e-2, tol=tol,
                       constants={"c1": -1.0, "c2": 0.0})
    assert str(info.value) == message and info.value.time is None


def test_lifting_refuses_a_base_trajectory_from_another_state():
    hs = hamiltonian(make_flight_1d(), legendre(make_flight_1d()))
    constants = {"c1": -1.0, "c2": 0.0}
    base = integrate(associated_field(hs, radical_oneform()), [0.0, 1.0], 0.0, 0.5, 1e-2,
                     constants)
    with pytest.raises(NumericError, match="does not start at the base state"):
        verify_lifting(hs, radical_oneform(), [0.0, 0.5], 0.0, 0.5, 1e-2,
                       constants=constants, base=base)


def _reference_lift(system, sol, base, constants):
    """The lifted rows of ``base`` as the lifting check made them with one
    ``evaluate`` call per fiber component and point, and a bindings dict
    per point."""
    fiber = [e for _, e in sorted(sol.components.items())]
    values = dict(system.constant_values())
    values.update(constants)
    base_coords = JetSpace(sol.n, sol.k - 1).coordinates

    def lift(t, z):
        z = [float(v) for v in z]
        bindings = dict(values)
        bindings.update({c.name: v for c, v in zip(base_coords, z)})
        try:
            return z + [e.evaluate(bindings) for e in fiber]
        except (ValueError, OverflowError) as err:
            raise NumericError(
                "lifting the base state failed at t = %.6g, state = %s: %s"
                % (t, tuple(z), err), time=t, state=tuple(z))

    return np.array([lift(t, row) for t, row in zip(base.times, base.states)])


def _lift_outcomes(system, sol, base, constants, h):
    """The lifted rows as bytes, or the message, time and state of the
    NumericError raised, from the lifting check and from the reference."""
    outcomes = []
    for run in (lambda: verify_lifting(system, sol, base.states[0], 0.0, base.times[-1], h,
                                       constants=constants, base=base).lifted.states,
                lambda: _reference_lift(system, sol, base, constants)):
        try:
            outcomes.append(run().tobytes())
        except NumericError as err:
            outcomes.append((str(err), err.time, err.state))
    return outcomes


def _base(q0, q1, steps=400, h=1e-3):
    """A trajectory on the base space (q0_1, q1_1), linear in each coordinate."""
    times = h * np.arange(steps + 1)
    return Trajectory(times, np.column_stack((np.linspace(*q0, steps + 1),
                                              np.linspace(*q1, steps + 1))),
                      ("q0_1", "q1_1"), "test")


@pytest.mark.parametrize("base, constants, failure", [
    # the associated flow, inside the radicand's domain throughout
    (None, {"c1": -1.0, "c2": 0.0}, None),
    # 2 - q1^2 turns negative at q1 = sqrt(2), about mid-trajectory
    (_base((0.0, 1.0), (0.0, 3.0)), {"c1": -1.0, "c2": 0.0},
     "fractional power of a negative value in sqrt(-q1_1^2 + 2*c2*q1_1 - 2*c1)"),
    (_base((0.5, -0.5), (1.0, 0.0)), {"c2": 0.0}, "unbound symbol 'c1'"),
], ids=["in-domain", "leaves-the-domain", "unbound-constant"])
def test_the_fused_lift_keeps_the_per_point_lifts_bits_and_failures(base, constants, failure):
    hs = hamiltonian(make_flight_1d(), legendre(make_flight_1d()))
    sol = radical_oneform()
    if base is None:
        base = integrate(associated_field(hs, sol), [0.0, 1.0], 0.0, 0.4, 1e-3, constants)
    new, old = _lift_outcomes(hs, sol, base, constants, 1e-3)
    assert new == old
    if failure is None:
        assert isinstance(new, bytes)
    else:
        message, time, state = new
        row = list(base.times).index(time)
        assert message.endswith(": " + failure) and list(state) == base.states[row].tolist()
        assert row == (0 if "unbound" in failure else 189)  # q1 = 1.4175 at row 189


def test_every_flows_field_prints_from_the_ring_as_the_printer_prints_it(
        monkeypatch, tmp_path):
    # each field the seed-1 flows benchmark compiles, run for ten steps
    seen = []
    texts = numeric.step_texts
    monkeypatch.setattr(numeric, "step_texts", lambda exprs, names: (
        seen.append((list(exprs), list(names))) or texts(exprs, names)))
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    for op in workloads.build("flows", 1, str(tmp_path)):
        argv = list(op.argv)
        argv[5] = repr(10 * float(argv[6]))  # t1: ten steps of dt
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert len(seen) == 35 + 16  # each op's field, and each lift's full field
    printer = E._StepPrinter()
    for exprs, names in seen:
        assert all(e._poly is not None for e in exprs)
        assert texts(exprs, names) == ([printer.doprint(e.sym) for e in exprs], names)


# -- fd_gradient_check -----------------------------------------------------------


def test_fd_gradient_check_polynomial():
    e = parse("q0_1^3 + 2*q0_1*q1_1", T1.table())
    checks = fd_gradient_check(e, {"q0_1": 0.7, "q1_1": -0.3})
    assert [c.name for c in checks] == ["q0_1", "q1_1"]
    assert all(c.ok for c in checks)
    assert checks[0].symbolic == pytest.approx(3 * 0.7 ** 2 + 2 * (-0.3))


def test_fd_gradient_check_radical_point():
    T = JetSpace(1, 1).table(("c1",))
    e = parse("sqrt(q1_1^2 - 2*c1)", T)
    checks = fd_gradient_check(e, {"q1_1": 1.0, "c1": -1.0})
    assert all(c.ok for c in checks)


def test_fd_gradient_check_validation():
    e = parse("q0_1^2", T1.table())
    with pytest.raises(NumericError):
        fd_gradient_check(e, {"q0_1": 1.0}, step=0.0)
    # a NaN step or tolerance made every check fail, an infinite one pass
    for knobs in ({"step": math.nan}, {"step": math.inf}, {"tol": math.nan},
                  {"tol": math.inf}, {"tol": 0.0}):
        with pytest.raises(NumericError, match="must be positive and finite"):
            fd_gradient_check(e, {"q0_1": 1.0}, **knobs)
    with pytest.raises(NumericError):
        fd_gradient_check(e, {})
    from hjmech import placeholder

    with pytest.raises(NumericError):
        fd_gradient_check(placeholder("w", (jet(0, 1),)), {"q0_1": 1.0})
    assert fd_gradient_check(Expression.number(3), {}) == ()
