"""Higher-order tangent bundles and the total time derivative.

The bundle T^m Q of an n-dimensional base carries the jet coordinates
q_i^A for 0 <= i <= m, 1 <= A <= n, ordered first by derivative order i
and then by axis A.  Three conventions are fixed here and relied on by
the rest of the package:

* the total derivative is the autonomous operator
  d_T = sum_{i,A} q_{i+1}^A d/dq_i^A, so applying it to an expression on
  T^m Q yields an expression on T^(m+1) Q;
* curves are either tuples of expressions in the reserved constant ``t``
  or sampled trajectories on an explicit time grid;
* a vector field stores one component per coordinate of its home space,
  in the space's coordinate order.

Projections between orders are coordinate truncations, so "project" and
"truncate" are used interchangeably below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

from .expr import (
    Coordinate,
    Expression,
    Immutable,
    SymbolTable,
    derivation,
    jet,
    row_evaluator,
)

# numpy is imported by the functions that use it, so that the symbolic
# commands, and importing the package, do not load it
if TYPE_CHECKING:
    import numpy as np

TIME = "t"


class JetError(ValueError):
    """An operation left the declared jet-space domain."""


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class JetSpace:
    """The order-``order`` tangent bundle of an ``n``-dimensional base."""

    n: int
    order: int

    def __post_init__(self):
        if self.n < 1:
            raise JetError("base dimension must be at least 1")
        if self.order < 0:
            raise JetError("jet order must be nonnegative")

    @property
    def dimension(self) -> int:
        return (self.order + 1) * self.n

    @property
    def coordinates(self) -> Tuple[Coordinate, ...]:
        """q_i^A by order i, then axis A; one tuple per space."""
        return _coordinates(self.n, self.order)

    def coordinate(self, i: int, axis: int) -> Coordinate:
        if not 0 <= i <= self.order:
            raise JetError("jet order %d outside 0..%d" % (i, self.order))
        if not 1 <= axis <= self.n:
            raise JetError("axis %d outside 1..%d" % (axis, self.n))
        return jet(i, axis)

    def table(self, constants=()) -> SymbolTable:
        return SymbolTable(self.coordinates, constants)

    def extended(self, extra: int = 1) -> "JetSpace":
        """The same base with ``extra`` more derivative orders admitted."""
        return JetSpace(self.n, self.order + extra)

    def truncated(self, s: int) -> "JetSpace":
        if s > self.order:
            raise JetError("cannot truncate order %d to %d" % (self.order, s))
        return JetSpace(self.n, s)

    def truncate_state(self, state: Sequence[float], s: int) -> np.ndarray:
        """Numeric coordinate truncation rho^order_s of a point."""
        import numpy as np

        self.truncated(s)
        state = np.asarray(state, dtype=float)
        if state.shape[-1] != self.dimension:
            raise JetError(
                "state has %d entries, space has dimension %d"
                % (state.shape[-1], self.dimension)
            )
        return state[..., : (s + 1) * self.n]


@functools.cache
def _coordinates(n: int, order: int) -> Tuple[Coordinate, ...]:
    return tuple(jet(i, A) for i in range(order + 1) for A in range(1, n + 1))


# ---------------------------------------------------------------------------
# vector fields


class VectorField(Immutable):
    """A vector field as one expression component per coordinate.

    ``space`` is any object exposing ``coordinates``/``dimension`` (a
    JetSpace here, a PhaseSpace in the Hamiltonian module).
    """

    __slots__ = ("space", "components")

    def __init__(self, space, components):
        comps = tuple(map(Expression.of, components))
        if len(comps) != space.dimension:
            raise JetError(
                "field has %d components, space has dimension %d"
                % (len(comps), space.dimension)
            )
        self._init(space=space, components=comps)

    def component(self, coord: Coordinate) -> Expression:
        try:
            idx = self.space.coordinates.index(coord)
        except ValueError:
            raise JetError("%s is not a coordinate of this space" % coord.name)
        return self.components[idx]

    def apply(self, e: Expression) -> Expression:
        """Directional derivative X(e) = sum X^u de/du."""
        return derivation(e, zip(self.space.coordinates, self.components))

    def subs(self, rules) -> "VectorField":
        return VectorField(self.space, tuple(c.subs(rules) for c in self.components))

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return (
            self.space.coordinates == other.space.coordinates
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.space.coordinates, self.components))

    def __str__(self):
        parts = []
        for coord, comp in zip(self.space.coordinates, self.components):
            text = str(comp)
            if comp.is_sum or text.startswith("-"):
                text = "(" + text + ")"
            parts.append("%s ∂%s" % (text, coord.name))
        return " + ".join(parts)

    def __repr__(self):
        return "VectorField(%s)" % self


# ---------------------------------------------------------------------------
# curves


class Curve(Immutable):
    """A curve in an n-dimensional space, symbolic or sampled.

    Symbolic curves hold one Expression per component in the reserved
    constant ``t`` (and possibly further named constants); sampled curves
    hold a strictly increasing time grid and a (len(grid), n) value array.
    """

    __slots__ = ("components", "grid", "values")

    def __init__(self, components=None, grid=None, values=None):
        if (components is None) == (grid is None):
            raise JetError("a curve is either symbolic or sampled, not both")
        if components is not None:
            comps = tuple(map(Expression.of, components))
            for c in comps:
                if c.free_coordinates():
                    raise JetError(
                        "curve components must not reference jet coordinates"
                    )
            grid_arr = None
            values_arr = None
        else:
            import numpy as np

            comps = None
            grid_arr = np.asarray(grid, dtype=float)
            values_arr = np.asarray(values, dtype=float)
            if grid_arr.ndim != 1 or grid_arr.size < 2:
                raise JetError("a sampled curve needs a 1-d grid of >= 2 times")
            if np.any(np.diff(grid_arr) <= 0):
                raise JetError("the time grid must be strictly increasing")
            if values_arr.ndim != 2 or values_arr.shape[0] != grid_arr.size:
                raise JetError("values must have shape (len(grid), n)")
        self._init(components=comps, grid=grid_arr, values=values_arr)

    @classmethod
    def symbolic(cls, components) -> "Curve":
        return cls(components=tuple(components))

    @classmethod
    def sampled(cls, grid, values) -> "Curve":
        return cls(grid=grid, values=values)

    @property
    def is_symbolic(self) -> bool:
        return self.components is not None

    @property
    def n(self) -> int:
        if self.is_symbolic:
            return len(self.components)
        return self.values.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        if self.is_symbolic != other.is_symbolic:
            return False
        if self.is_symbolic:
            return self.components == other.components
        import numpy as np

        return np.array_equal(self.grid, other.grid) and np.array_equal(
            self.values, other.values
        )

    def __str__(self):
        if self.is_symbolic:
            return "(" + ", ".join(str(c) for c in self.components) + ")"
        return "sampled curve: %d points, n=%d" % (self.grid.size, self.n)


def sample_curve(c: Curve, grid, constants=None) -> np.ndarray:
    """Evaluate a symbolic curve on a time grid; returns (len(grid), n)."""
    import numpy as np

    if not c.is_symbolic:
        raise JetError("sample_curve expects a symbolic curve")
    times = np.asarray(grid, dtype=float).tolist()
    values, _, error = row_evaluator(c.components, [TIME])([times], dict(constants or {}))
    if error is not None:
        raise error
    return np.array(values, dtype=float).T


def central_differences(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order finite differences on a (possibly nonuniform) grid."""
    import numpy as np

    edge = 2 if len(grid) >= 3 else 1
    return np.gradient(values, grid, axis=0, edge_order=edge)


# ---------------------------------------------------------------------------
# operations


def total_derivative(e: Expression, m: int) -> Expression:
    """The autonomous total time derivative of ``e`` on T^m Q.

    Returns sum over i <= m of q_{i+1}^A de/dq_i^A; the result lives on
    T^(m+1) Q.  Placeholder components differentiate by the chain rule.
    """
    for c in e.free_coordinates():
        if c.kind == "momentum":
            raise JetError(
                "total derivative is defined on jet coordinates only; "
                "%s is a momentum" % c.name
            )
        if c.order > m:
            raise JetError(
                "%s exceeds the stated jet order %d" % (c.name, m)
            )
    return derivation(e, [(c, Expression.coordinate(jet(c.order + 1, c.axis)))
                          for c in sorted(e.free_coordinates())])


def prolong(c: Curve, k: int, scheme: Optional[Callable] = None) -> Curve:
    """Canonical lift of a base curve to T^k Q.

    Symbolic curves are differentiated exactly in ``t``; sampled curves
    require a differentiation ``scheme(grid, values) -> values`` such as
    ``central_differences``.
    """
    if k < 0:
        raise JetError("prolongation order must be nonnegative")
    if c.is_symbolic:
        rows = [list(c.components)]
        for _ in range(k):
            rows.append([comp.diff(TIME) for comp in rows[-1]])
        return Curve.symbolic([comp for row in rows for comp in row])
    if scheme is None:
        raise JetError(
            "a differentiation scheme is required to prolong a sampled curve"
        )
    if c.grid.size < k + 1:
        raise JetError(
            "sampled curve has %d points, too short for order %d"
            % (c.grid.size, k)
        )
    import numpy as np

    blocks = [c.values]
    for _ in range(k):
        blocks.append(np.asarray(scheme(c.grid, blocks[-1]), dtype=float))
    return Curve.sampled(c.grid, np.hstack(blocks))


def semispray_type(X: VectorField) -> Optional[int]:
    """Smallest r with the type-r shape, or None.

    On T^k Q the type-r shape requires component blocks i = 0..k-r to be
    exactly the coordinate shift X^(i) = q_{i+1}; larger r constrains
    fewer blocks, so a type-r field is also of every type s >= r.
    """
    space = X.space
    if not isinstance(space, JetSpace):
        raise JetError("semispray classification needs a jet-space field")
    k, n = space.order, space.n
    if k < 1:
        return None
    holonomic_blocks = 0
    for i in range(k):
        block = X.components[i * n : (i + 1) * n]
        shifted = tuple(
            Expression.coordinate(jet(i + 1, A)) for A in range(1, n + 1)
        )
        if block != shifted:
            break
        holonomic_blocks += 1
    if holonomic_blocks == 0:
        return None
    return k - holonomic_blocks + 1
