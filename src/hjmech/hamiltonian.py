"""Hamiltonian side: the momentum phase space and the Legendre transfer.

The phase space T*(T^(k-1)Q) carries coordinates (q_i^A, p_A^i) for
0 <= i <= k-1 with the jets ordered before the momenta.  Its canonical
structures are the Liouville form θ_{k-1} = Σ p_A^i dq_i^A and the
symplectic form ω_{k-1} = −dθ_{k-1} = Σ dq_i^A ∧ dp_A^i.

The Legendre map sends the velocity space T^(2k-1)Q to phase space by
q_i^A ↦ q_i^A (a bundle map over T^(k-1)Q) and p_A^i ↦ p̂^i_A.  Its
inverse is computed by back-substitution through the triangular
structure of the momenta — p̂^{k-1} involves jets up to order k only,
p̂^{k-2} adds order k+1, and so on — one affine solve per jet order.
When some stage is not affine in its unknowns the symbolic inverse is
reported absent rather than guessed.
"""

from __future__ import annotations

import functools
import sys as _sys
import types
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .expr import Coordinate, Expression, Immutable, ZERO, jet, momentum
from .forms import CoordMap, OneFormField, TwoFormField, exterior_derivative
from .jets import JetSpace, VectorField
from .lagrangian import (
    LagrangianError,
    LagrangianSystem,
    NonAffineError,
    System,
    derived,
    solve_affine,
)


class HamiltonianError(ValueError):
    """Raised for phase-space domain violations and failed transfers."""


@dataclass(frozen=True)
class PhaseSpace:
    """T*(T^(k-1)Q): jets and momenta of orders 0..k-1 over an n-dim base."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise HamiltonianError("base dimension must be at least 1")
        if self.k < 1:
            raise HamiltonianError("the jet order k must be at least 1")

    @property
    def dimension(self) -> int:
        return 2 * self.k * self.n

    @property
    def coordinates(self) -> Tuple[Coordinate, ...]:
        """The jets of the base space, then the momenta in the same
        order; one tuple per space."""
        return _coordinates(self.n, self.k)

    @property
    def base_space(self) -> JetSpace:
        """T^(k-1)Q, the footprint of sections and 1-forms."""
        return JetSpace(self.n, self.k - 1)

    def table(self, constants=()):
        from .expr import SymbolTable

        return SymbolTable(self.coordinates, constants)

    def liouville_form(self) -> OneFormField:
        """θ_{k-1} = Σ p_A^i dq_i^A."""
        coeffs = {
            jet(i, A): Expression.coordinate(momentum(i, A))
            for i in range(self.k)
            for A in range(1, self.n + 1)
        }
        return OneFormField.from_coefficients(self, coeffs)

    def symplectic_form(self) -> TwoFormField:
        """ω_{k-1} = −dθ_{k-1} = Σ dq_i^A ∧ dp_A^i."""
        return -exterior_derivative(self.liouville_form())


@functools.cache
def _coordinates(n: int, k: int) -> Tuple[Coordinate, ...]:
    jets = JetSpace(n, k - 1).coordinates
    return jets + tuple(momentum(q.order, q.axis) for q in jets)


# ---------------------------------------------------------------------------
# Legendre map


class LegendreMap(Immutable):
    """Forward and (when available) inverse Legendre–Ostrogradsky rules.

    ``forward`` maps the velocity space onto phase space; ``inverse`` maps
    back and is None when some inversion stage was not affine, in which
    case ``diagnostic`` says why.
    """

    __slots__ = ("system", "forward", "inverse", "diagnostic")

    def __init__(self, system, forward: CoordMap, inverse: Optional[CoordMap],
                 diagnostic: Optional[str] = None):
        self._init(system=system, forward=forward, inverse=inverse, diagnostic=diagnostic)

    @property
    def hyperregular(self) -> bool:
        """True exactly when every inversion stage was an affine solve."""
        return self.inverse is not None

    @property
    def phase_space(self) -> PhaseSpace:
        return self.forward.target

    def momentum_rule(self, i: int, axis: int) -> Expression:
        return self.forward.images[momentum(i, axis)]

    def require_inverse(self) -> CoordMap:
        """The inverse map; raises HamiltonianError when there is none."""
        if self.inverse is None:
            raise HamiltonianError(
                "the Legendre map has no symbolic inverse: %s" % self.diagnostic
            )
        return self.inverse

    def inverse_rule(self, j: int, axis: int) -> Expression:
        return self.require_inverse().images[jet(j, axis)]


def legendre(sys: LagrangianSystem) -> LegendreMap:
    """The Legendre–Ostrogradsky map of a regular Lagrangian system."""
    hess = sys.hessian()
    if not hess.invertible:
        raise LagrangianError(
            "the Hessian in the top velocities is singular; "
            "the Legendre map is not defined as a local diffeomorphism"
        )
    k, n = sys.k, sys.n
    cartan = sys.cartan()
    phase = PhaseSpace(n, k)
    velocity = sys.velocity_space

    base = {c: Expression.coordinate(c) for c in phase.base_space.coordinates}
    momenta = {
        momentum(i, A): cartan.momentum(i, A) for i in range(k) for A in range(1, n + 1)
    }
    forward = CoordMap(velocity, phase, {**base, **momenta})

    solved: Dict[Coordinate, Expression] = {}
    for j in range(k, 2 * k):
        level = 2 * k - 1 - j
        unknowns = [jet(j, B) for B in range(1, n + 1)]
        residuals = [
            Expression.coordinate(momentum(level, A))
            - cartan.momentum(level, A).subs(solved)
            for A in range(1, n + 1)
        ]
        try:
            solved.update(zip(unknowns, solve_affine(residuals, unknowns)))
        except NonAffineError:
            diagnostic = (
                "solving for order-%d jets is not affine; "
                "symbolic inversion unavailable" % j
            )
            return LegendreMap(sys, forward, None, diagnostic)
        except LagrangianError as err:
            diagnostic = "order-%d solve failed: %s" % (j, err)
            return LegendreMap(sys, forward, None, diagnostic)
    return LegendreMap(sys, forward, CoordMap(phase, velocity, {**base, **solved}))


# ---------------------------------------------------------------------------
# Hamiltonian systems


class HamiltonianSystem(System):
    """A Hamiltonian function on T*(T^(k-1)Q) with a cached field X_h."""

    __slots__ = ("phase", "h")
    _error = HamiltonianError
    _function = "h"

    def __init__(self, phase: PhaseSpace, h: Expression, constants=()):
        h = Expression.of(h)
        allowed = set(phase.coordinates)
        stray = h.free_coordinates() - allowed
        if stray:
            raise HamiltonianError(
                "h references coordinates outside phase space: %s"
                % ", ".join(sorted(c.name for c in stray))
            )
        self._declare(h, constants)
        self._init(phase=phase, h=h)

    @derived
    def field(self) -> VectorField:
        phase, h = self.phase, self.h
        components = []
        for i in range(phase.k):
            for A in range(1, phase.n + 1):
                components.append(h.diff(momentum(i, A)))
        for i in range(phase.k):
            for A in range(1, phase.n + 1):
                components.append(-h.diff(jet(i, A)))
        return VectorField(phase, components)


def hamiltonian(sys: LagrangianSystem, fl: LegendreMap) -> HamiltonianSystem:
    """h = E_L pulled back along the inverse Legendre map."""
    h = fl.require_inverse().pull_function(sys.cartan().energy)
    return HamiltonianSystem(fl.phase_space, h, sys.constants.values())


def hamiltonian_field(hs: HamiltonianSystem) -> VectorField:
    """X_h with components (∂h/∂p_A^i, −∂h/∂q_i^A)."""
    return hs.field()


def poisson(f: Expression, g: Expression, ps: PhaseSpace) -> Expression:
    """{f, g} = Σ (∂f/∂q_i^A ∂g/∂p_A^i − ∂f/∂p_A^i ∂g/∂q_i^A)."""
    f, g = Expression.of(f), Expression.of(g)
    total = ZERO
    for i in range(ps.k):
        for A in range(1, ps.n + 1):
            q, p = jet(i, A), momentum(i, A)
            total = total + f.diff(q) * g.diff(p) - f.diff(p) * g.diff(q)
    return total


class _CallableModule(types.ModuleType):
    """The class of this module: calling it calls `hamiltonian`, so that
    ``import hjmech.hamiltonian`` binds the module while the package's
    ``hjmech.hamiltonian(sys, fl)`` still computes h."""

    def __call__(self, *args, **kwargs):
        return self.hamiltonian(*args, **kwargs)


_sys.modules[__name__].__class__ = _CallableModule
