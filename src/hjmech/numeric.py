"""Fixed-step numeric integration and end-to-end lifting verification.

The integrator is classical RK4 with a uniform step; no adaptivity, so
trajectories are bit-reproducible given the same field, state, and step.
A field compiles to one generated function that runs the whole step
loop: the state and the four stage vectors are float locals, and each
component is spliced in as straight-line code.

Bit identity: a component's text is ``expr.step_texts``, the text
sympy prints for a math-module function, with each math function as
``_math.<name>``; a polynomial component's text is written from its
terms, byte for byte what sympy prints for its tree, which is not
built.  The stage arithmetic is ``z + (h/2)*k``, ``z + h*k`` and ``z +
(h/6)*(k1 + 2*k2 + 2*k3 + k4)``, so every float operation is the one a
per-stage RK4 loop over sympy's generated function makes.  The lifting
check lifts every base state through one function generated by
``expr.row_evaluator``, which splices in the statements ``evaluate``
compiles for each fiber component, so each lifted value has
``evaluate``'s bits and each failure its error.

Failures: the loop stops at a step that raises or whose new state is not
finite, which every non-finite or complex stage value makes it.  That
step is replayed stage by stage through the same text, checking each
stage for a raised error, a complex value or a non-finite one, and the
replay raises `NumericError` with the time and state of the failing
stage and, when ``evaluate`` finds one there, the subterm that fails.
A replay that finds no failure (a finite field overflowed the state)
appends its step, and the loop goes on from there.

States follow the coordinate order of the field's space.  Trajectory
comparison uses the unweighted max-abs distance over all coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from .expr import DomainEvalError, Expression, row_evaluator, step_texts
from .hj import HJError, _paired_field, associated_field
from .jets import JetSpace, VectorField

# numpy is imported by the functions that use it, so that the symbolic
# commands, and importing the package, do not load it
if TYPE_CHECKING:
    import numpy as np


# The most values (times and state coordinates) one trajectory may hold:
# about 16 MB as the float array, several times that while the rows are
# built and written.  Every shipped model and benchmark run holds at most
# 170,017 (10,000 steps of 16 coordinates).
MAX_TRAJECTORY_VALUES = 2_000_000


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
        import numpy as np

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
        import numpy as np

        row = ",".join(["%.17g"] * (1 + self.states.shape[1]))
        rows = np.column_stack((self.times, self.states)).tolist()
        return "\n".join([row % tuple(values) for values in rows]) + "\n"


def _step_source(coords: List[str], consts: List[str], texts: List[str]) -> str:
    """Source of ``_run``, which takes RK4 steps from a state, appending
    each new state to ``_rows``, until it has taken ``_n`` or a step raises
    or leaves the finite floats (a complex state fails the comparison with
    TypeError).  Every name the source adds starts with ``_``, which no
    constant's does.  ``_field_source`` gives the replay's function from
    the same texts."""
    n = range(len(texts))
    zs = ", ".join("_z%d" % i for i in n)
    params = "".join(", " + c for c in consts)
    body = []
    for s, point in enumerate(("_z{i}", "_z{i} + _half*_k1_{i}",
                               "_z{i} + _half*_k2_{i}", "_z{i} + _h*_k3_{i}"), 1):
        body += ["%s = %s" % (coords[i], point.format(i=i)) for i in n]
        body += ["_k%d_%d = %s" % (s, i, texts[i]) for i in n]
    body += ["_z{i} = _z{i} + _sixth*(_k1_{i} + 2*_k2_{i} + 2*_k3_{i} + _k4_{i})"
             .format(i=i) for i in n]
    body += ["if not (%s):" % " and ".join("-_inf < _z%d < _inf" % i for i in n),
             "    return",
             "_append((%s,))" % zs]
    return "\n".join(
        ["def _run(_rows, _n, _h, %s%s):" % (zs, params),
         "    _half = _h / 2",
         "    _sixth = _h / 6",
         "    _inf = _math.inf",
         "    _append = _rows.append",
         "    try:",
         "        for _ in _range(_n):"]
        + ["            " + line for line in body]
        + ["    except (ArithmeticError, ValueError, TypeError):",
           "        return"]) + "\n"


def _field_source(coords: List[str], consts: List[str], texts: List[str]) -> str:
    """Source of ``_field``, the component texts evaluated once, which a
    failed step's replay calls stage by stage."""
    return "def _field(%s):\n    return (%s,)\n" % (", ".join(coords + consts), ", ".join(texts))


def _compiled(source: str, name: str):
    namespace = {"_math": math, "_range": range}
    exec(compile(source, "<field>", "exec"), namespace)
    return namespace[name]


def _compile_field(X: VectorField, constants: Mapping[str, float]):
    """Compile a vector field into ``(run, field, values)``: ``_run`` of
    `_step_source`, a function giving ``_field`` of `_field_source`,
    compiled on its first call (only a failed step needs it), and the
    constants' values, which both take after the state."""
    coord_names = [c.name for c in X.space.coordinates]
    const_names = set()
    for comp in X.components:
        if comp.has_placeholders:
            raise NumericError(
                "cannot integrate a field with placeholder components"
            )
        for name in comp.free_names():
            if name not in coord_names:
                const_names.add(name)
    const_names = sorted(const_names)
    missing = [n for n in const_names if n not in constants]
    if missing:
        raise NumericError(
            "no numeric value for constant(s) %s; declare values in the "
            "model or pass them explicitly" % ", ".join(missing)
        )
    texts, params = step_texts(X.components, const_names)
    run = _compiled(_step_source(coord_names, params, texts), "_run")
    field = functools.cache(
        lambda: _compiled(_field_source(coord_names, params, texts), "_field"))
    values = [float(constants[name]) for name in const_names]
    return run, field, values


def _domain_error(X: VectorField, constants: Mapping[str, float],
                  z: Sequence[float]) -> Optional[DomainEvalError]:
    """The first DomainEvalError, naming the failing subterm, that
    evaluating X's components at state z raises, or None."""
    bindings = dict(constants, **{c.name: v for c, v in zip(X.space.coordinates, z)})
    for comp in X.components:
        try:
            comp.evaluate(bindings)
        except DomainEvalError as err:
            return err
        except (ArithmeticError, ValueError, TypeError):
            pass
    return None


def _checked_step(X: VectorField, constants: Mapping[str, float], field,
                  values: List[float], t: float, z: Tuple[float, ...],
                  h: float) -> Tuple[float, ...]:
    """One RK4 step of X from z at time t, stage by stage: the arithmetic
    of the generated loop, with every stage checked for a raised error, a
    complex value or a non-finite one.  A failing stage's message names
    the subterm ``evaluate`` finds failing at its state, if any."""

    def rhs(t: float, z: Sequence[float]):
        try:
            out = field(*z, *values)
            if all(not isinstance(v, complex) and math.isfinite(v) for v in out):
                return out
            what, reason = "left the real domain", None
        except (ArithmeticError, ValueError, TypeError) as err:
            # TypeError: a math function given a complex value;
            # OverflowError: also an exact integer beyond the floats
            what, reason = "failed", err
        reason = _domain_error(X, constants, z) or reason
        raise NumericError(
            "field evaluation %s at t = %.6g, state = %s%s"
            % (what, t, tuple(z), "" if reason is None else ": %s" % reason),
            time=t, state=tuple(z),
        )

    half, sixth = h / 2, h / 6
    k1 = rhs(t, z)
    k2 = rhs(t + half, [zi + half * ki for zi, ki in zip(z, k1)])
    k3 = rhs(t + half, [zi + half * ki for zi, ki in zip(z, k2)])
    k4 = rhs(t + h, [zi + h * ki for zi, ki in zip(z, k3)])
    return tuple(zi + sixth * (a + 2 * b + 2 * c + d)
                 for zi, a, b, c, d in zip(z, k1, k2, k3, k4))


def integrate(X: VectorField, z0: Sequence[float], t0: float, t1: float,
              h: float, constants: Optional[Mapping[str, float]] = None,
              provenance: str = "field") -> Trajectory:
    """Classical RK4 from z0 over [t0, t1] with fixed step h.

    t0, t1, h and z0 must be finite, h must divide the interval (to grid
    roundoff) and the trajectory must fit in MAX_TRAJECTORY_VALUES, all
    checked before anything is allocated; a domain failure during
    evaluation is reported with the time and state where it happened.
    """
    if not all(math.isfinite(v) for v in (t0, t1, h)):
        raise NumericError("t0, t1 and the step h must be finite")
    if h <= 0:
        raise NumericError("the step h must be positive")
    if t1 <= t0:
        raise NumericError("the interval needs t1 > t0")
    span = t1 - t0
    width = 1 + len(X.space.coordinates)
    if (span / h + 1) * width > MAX_TRAJECTORY_VALUES:  # an infinite quotient too
        raise NumericError(
            "the grid needs %.3g steps; a trajectory holds at most %d values, "
            "%d steps of this %d-coordinate field"
            % (span / h, MAX_TRAJECTORY_VALUES, MAX_TRAJECTORY_VALUES // width - 1,
               width - 1))
    steps = int(round(span / h))
    if steps < 1 or abs(t0 + steps * h - t1) > 1e-9 * max(1.0, abs(t1)):
        raise NumericError("the step h must divide the interval [t0, t1]")
    coords = X.space.coordinates
    if len(z0) != len(coords):
        raise NumericError(
            "initial state has %d entries; the field needs %d"
            % (len(z0), len(coords))
        )
    z0 = [float(v) for v in z0]
    if not all(map(math.isfinite, z0)):
        raise NumericError("the initial state must be finite")
    constants = dict(constants or {})
    run, field, values = _compile_field(X, constants)
    rows = [tuple(z0)]
    while len(rows) <= steps:
        run(rows, steps + 1 - len(rows), h, *rows[-1], *values)
        if len(rows) <= steps:
            # the loop stopped at a step that failed or left the finite
            # floats; replaying it checked raises, or it was a finite
            # overflow of the new state, which the loop goes on from
            m = len(rows) - 1
            rows.append(_checked_step(X, constants, field(), values, t0 + m * h,
                                      rows[-1], h))
    import numpy as np

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
                   constants: Optional[Mapping[str, float]] = None,
                   base: Optional[Trajectory] = None) -> LiftingResult:
    """Numeric check of the lifting property that defines HJ solutions.

    Integrates the associated field on the base from ``z0_base``, lifts
    every base state through the candidate, and separately integrates the
    full field from the lifted initial state.  Passes iff the max-abs
    distance between the two trajectories over the grid is ≤ tol.
    ``base``, if given, is that associated-field trajectory, already
    integrated with the same state, grid and constants; the associated
    field is then not derived again.  The lift of its first state is the
    full field's initial state.
    """
    if not 0 < tol < math.inf:  # NaN would fail every lift, and inf pass every one
        raise NumericError("the tolerance must be positive and finite")
    try:
        full_field = _paired_field(system, sol)
    except HJError as err:
        raise NumericError(str(err)) from None
    fiber = [e for _, e in sorted(sol.components.items())]
    values = dict(system.constant_values())
    values.update(constants or {})
    for e in fiber:
        if e.has_placeholders:
            raise NumericError("cannot lift through placeholder components")

    base_coords = JetSpace(sol.n, sol.k - 1).coordinates
    if len(z0_base) != len(base_coords):
        raise NumericError(
            "base state has %d entries; the base space needs %d"
            % (len(z0_base), len(base_coords))
        )
    z0_base = [float(v) for v in z0_base]
    if not all(map(math.isfinite, z0_base)):
        raise NumericError("the base state must be finite")

    base_traj = base if base is not None else integrate(
        associated_field(system, sol), z0_base, t0, t1, h, values,
        provenance="associated field",
    )
    if base_traj.labels != tuple(c.name for c in base_coords):
        raise NumericError("the base trajectory is not on the base space")
    rows = base_traj.states.tolist()
    if rows[0] != z0_base:
        raise NumericError("the base trajectory does not start at the base state")
    lifted_rows = []
    try:
        row_evaluator(fiber, [c.name for c in base_coords])(rows, lifted_rows, values)
    except (ValueError, OverflowError) as err:
        t, z = base_traj.times[len(lifted_rows)], tuple(rows[len(lifted_rows)])
        raise NumericError(
            "lifting the base state failed at t = %.6g, state = %s: %s" % (t, z, err),
            time=t, state=z)
    import numpy as np

    lifted = Trajectory(
        base_traj.times, np.array(lifted_rows),
        tuple(c.name for c in full_field.space.coordinates),
        "lifted " + base_traj.provenance,
    )
    direct = integrate(
        full_field, lifted_rows[0], t0, t1, h, values,
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
    if not 0 < step < math.inf:
        raise NumericError("the finite-difference step must be positive and finite")
    if not 0 < tol < math.inf:
        raise NumericError("the tolerance must be positive and finite")
    e = Expression.of(e)
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
