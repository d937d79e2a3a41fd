"""Fixed-step numeric integration and end-to-end lifting verification.

The integrator is classical RK4 with a uniform step; no adaptivity, so
trajectories are bit-reproducible given the same field, state, and step.
A field compiles to one lambdified function that returns every component.
States follow the coordinate order of the field's space.  Trajectory
comparison uses the unweighted max-abs distance over all coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from .expr import Expression
from .hamiltonian import HamiltonianSystem
from .hj import OneForm, Section, associated_field
from .jets import VectorField
from .lagrangian import LagrangianSystem


class NumericError(ValueError):
    """Raised for bad numeric inputs and mid-flight evaluation failures."""

    def __init__(self, message, time=None, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


@dataclass(frozen=True)
class Trajectory:
    """A uniform-step integral curve sample.

    ``times`` is strictly increasing with constant step; ``states`` has one
    row per time, columns in the order of ``labels``.
    """

    times: np.ndarray
    states: np.ndarray
    labels: Tuple[str, ...]
    provenance: str

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise NumericError("times must be a vector and states a matrix")
        if len(self.times) != len(self.states):
            raise NumericError("times and states must have equal length")
        if self.states.shape[1] != len(self.labels):
            raise NumericError("state width must match the label count")
        if np.any(np.diff(self.times) <= 0):
            raise NumericError("the time grid must be strictly increasing")

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    def state_at(self, index: int) -> np.ndarray:
        return self.states[index]

    def to_csv(self) -> str:
        """Rows "t,state…" with 17-significant-digit floats."""
        row = ",".join(["%.17g"] * (1 + self.states.shape[1]))
        rows = np.column_stack((self.times, self.states)).tolist()
        return "\n".join([row % tuple(values) for values in rows]) + "\n"


def _compile_field(X: VectorField, constants: Mapping[str, float]):
    """Compile a vector field into f(state) -> list of derivatives: one
    lambdified function returns every component, each printed as it
    would be on its own."""
    coords = X.space.coordinates
    coord_names = [c.name for c in coords]
    const_names = set()
    for comp in X.components:
        if comp.has_placeholders:
            raise NumericError(
                "cannot integrate a field with placeholder components"
            )
        for name in comp.free_names():
            if name not in coord_names:
                const_names.add(name)
    missing = sorted(n for n in const_names if n not in constants)
    if missing:
        raise NumericError(
            "no numeric value for constant(s) %s; declare values in the "
            "model or pass them explicitly" % ", ".join(missing)
        )
    args = [sp.Symbol(n) for n in coord_names] + [
        sp.Symbol(n) for n in sorted(const_names)
    ]
    const_values = [float(constants[n]) for n in sorted(const_names)]
    fn = sp.lambdify(args, [comp.sym for comp in X.components], modules=["math"])

    def f(state: Sequence[float]) -> List[float]:
        return fn(*state, *const_values)

    return f


def integrate(X: VectorField, z0: Sequence[float], t0: float, t1: float,
              h: float, constants: Optional[Mapping[str, float]] = None,
              provenance: str = "field") -> Trajectory:
    """Classical RK4 from z0 over [t0, t1] with fixed step h.

    h must divide the interval (to grid roundoff); a domain failure during
    evaluation is reported with the time and state where it happened.
    """
    if h <= 0:
        raise NumericError("the step h must be positive")
    if t1 <= t0:
        raise NumericError("the interval needs t1 > t0")
    span = t1 - t0
    steps = int(round(span / h))
    if steps < 1 or abs(t0 + steps * h - t1) > 1e-9 * max(1.0, abs(t1)):
        raise NumericError("the step h must divide the interval [t0, t1]")
    coords = X.space.coordinates
    if len(z0) != len(coords):
        raise NumericError(
            "initial state has %d entries; the field needs %d"
            % (len(z0), len(coords))
        )
    f = _compile_field(X, dict(constants or {}))

    def rhs(t: float, z: List[float]) -> List[float]:
        try:
            out = f(z)
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise NumericError(
                "field evaluation failed at t = %.6g, state = %s: %s"
                % (t, tuple(z), err),
                time=t, state=tuple(z),
            )
        for v in out:
            if isinstance(v, complex) or not math.isfinite(v):
                raise NumericError(
                    "field evaluation left the real domain at t = %.6g, "
                    "state = %s" % (t, tuple(z)),
                    time=t, state=tuple(z),
                )
        return out

    z = [float(v) for v in z0]
    rows = [z]
    half, sixth = h / 2, h / 6
    for m in range(steps):
        t = t0 + m * h
        k1 = rhs(t, z)
        k2 = rhs(t + half, [zi + half * ki for zi, ki in zip(z, k1)])
        k3 = rhs(t + half, [zi + half * ki for zi, ki in zip(z, k2)])
        k4 = rhs(t + h, [zi + h * ki for zi, ki in zip(z, k3)])
        z = [
            zi + sixth * (a + 2 * b + 2 * c + d)
            for zi, a, b, c, d in zip(z, k1, k2, k3, k4)
        ]
        rows.append(z)
    times = t0 + h * np.arange(steps + 1)
    return Trajectory(
        times, np.array(rows, dtype=float),
        tuple(c.name for c in coords), provenance,
    )


@dataclass(frozen=True)
class LiftingResult:
    """Outcome of a lifting test: lifted-vs-direct trajectory distance."""

    passed: bool
    max_deviation: float
    tol: float
    lifted: Trajectory
    direct: Trajectory


def verify_lifting(system, sol, z0_base: Sequence[float], t0: float,
                   t1: float, h: float, tol: float = 1e-6,
                   constants: Optional[Mapping[str, float]] = None) -> LiftingResult:
    """Numeric check of the lifting property that defines HJ solutions.

    Integrates the associated field on the base from ``z0_base``, lifts
    every base state through the candidate, and separately integrates the
    full field from the lifted initial state.  Passes iff the max-abs
    distance between the two trajectories over the grid is ≤ tol.
    """
    if tol <= 0:
        raise NumericError("the tolerance must be positive")
    if isinstance(system, LagrangianSystem):
        if not isinstance(sol, Section):
            raise NumericError("a Lagrangian system lifts through a Section")
        full_field = system.euler_lagrange_field()
    elif isinstance(system, HamiltonianSystem):
        if not isinstance(sol, OneForm):
            raise NumericError("a Hamiltonian system lifts through a OneForm")
        full_field = system.field()
    else:
        raise NumericError("expected a LagrangianSystem or a HamiltonianSystem")
    full_space = full_field.space
    fiber = [e for _, e in sorted(sol.components.items())]
    values = dict(system.constant_values())
    values.update(constants or {})
    for e in fiber:
        if e.has_placeholders:
            raise NumericError("cannot lift through placeholder components")

    X = associated_field(system, sol)
    base_coords = X.space.coordinates
    if len(z0_base) != len(base_coords):
        raise NumericError(
            "base state has %d entries; the base space needs %d"
            % (len(z0_base), len(base_coords))
        )

    def lift(z: Sequence[float]) -> List[float]:
        bindings = dict(values)
        bindings.update({c.name: v for c, v in zip(base_coords, z)})
        try:
            return list(z) + [e.evaluate(bindings) for e in fiber]
        except ValueError as err:
            raise NumericError("lifting a base state failed: %s" % err)

    base_traj = integrate(
        X, [float(v) for v in z0_base], t0, t1, h, values,
        provenance="associated field",
    )
    lifted_rows = np.array([lift(row) for row in base_traj.states])
    lifted = Trajectory(
        base_traj.times, lifted_rows,
        tuple(c.name for c in full_space.coordinates),
        "lifted " + base_traj.provenance,
    )
    direct = integrate(
        full_field, lift([float(v) for v in z0_base]), t0, t1, h, values,
        provenance="full field",
    )
    deviation = float(np.max(np.abs(lifted.states - direct.states)))
    return LiftingResult(deviation <= tol, deviation, tol, lifted, direct)


@dataclass(frozen=True)
class GradientCheck:
    name: str
    symbolic: float
    numeric: float
    ok: bool


def fd_gradient_check(e: Expression, point: Mapping[str, float],
                      step: float = 1e-5, tol: float = 1e-6) -> Tuple[GradientCheck, ...]:
    """Symbolic gradient vs central finite differences, one check per
    free symbol; relative tolerance against max(1, |symbolic|)."""
    if step <= 0:
        raise NumericError("the finite-difference step must be positive")
    if not isinstance(e, Expression):
        e = Expression(e)
    if e.has_placeholders:
        raise NumericError("cannot difference placeholder expressions")
    names = sorted(e.free_names())
    missing = [n for n in names if n not in point]
    if missing:
        raise NumericError(
            "the evaluation point does not bind %s" % ", ".join(missing)
        )
    checks = []
    for name in names:
        sym_val = e.diff(name).evaluate(point)
        hi = dict(point)
        hi[name] = point[name] + step
        lo = dict(point)
        lo[name] = point[name] - step
        fd_val = (e.evaluate(hi) - e.evaluate(lo)) / (2 * step)
        ok = abs(fd_val - sym_val) <= tol * max(1.0, abs(sym_val))
        checks.append(GradientCheck(name, sym_val, fd_val, ok))
    return tuple(checks)
