"""Lagrangian side: local momenta, Cartan forms, energy, and the dynamics.

For a Lagrangian L on T^k Q the derived objects live on T^(2k-1) Q:

* local momenta    p̂^{r-1}_A = ∂L/∂q_r^A − d_T p̂^r_A, with p̂^k_A = 0,
* Cartan 1-form    θ_L = Σ_r p̂^{r-1}_A dq_{r-1}^A,
* Cartan 2-form    ω_L = −dθ_L,
* energy           E_L = Σ_r q_r^A p̂^{r-1}_A − L,
* EL expressions   b_A = ∂L/∂q_0^A − d_T p̂^0_A, on T^(2k) Q.

One recursion, from p̂^k = 0 down to b, yields the momenta and then the
EL expressions.  The momenta are cached apart from the Cartan data, so
the dynamics builds no θ_L, ω_L or E_L, and the Cartan data no b.

The dynamics i(X_L)ω_L = dE_L is solved in semispray form: the stacked
Euler–Lagrange expressions are affine in the formal top coordinate
q_{2k}^B, and ``solve_affine`` solves them exactly (``expr.solve_linear``)
for the forcing components F^A.

Every derived object is a method decorated with ``derived``: it is computed
once per system, under the system's lock, and then shared; systems are
immutable after construction.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .expr import (Constant, Coordinate, Expression, Immutable, SingularMatrixError, ZERO,
                   determinant, jet, row_evaluator, solve_linear)
from .forms import OneFormField, TwoFormField, exterior_derivative
from .jets import Curve, JetSpace, VectorField, prolong, total_derivative


class LagrangianError(ValueError):
    """Raised for malformed or non-regular Lagrangian systems."""


# ---------------------------------------------------------------------------
# affine systems


class NonAffineError(LagrangianError):
    """A coefficient of an affine system depends on one of its unknowns."""

    def __init__(self, unknown):
        super().__init__("the coefficient of %s depends on an unknown" % unknown)
        self.unknown = unknown


def solve_affine(equations: Sequence[Expression], unknowns: Sequence) -> Tuple[Expression, ...]:
    """Solve the equations e_i = 0, affine in the unknowns, exactly.

    ``unknowns`` are Coordinates or constant names.  The coefficient rows
    are ∂e_i/∂x_j; the first coefficient (row by row) that depends on an
    unknown raises NonAffineError naming the unknown it multiplies.  The
    system is then solved against the negated offsets, the equations with
    every unknown set to 0, so no unknown survives in the solution.
    """
    names = {str(u) for u in unknowns}  # a Coordinate's str is its name
    rows = []
    for e in equations:
        row = []
        for u in unknowns:
            coeff = e.diff(u)
            if coeff.free_names() & names:
                raise NonAffineError(u)
            row.append(coeff)
        rows.append(row)
    at_zero = {u: ZERO for u in unknowns}
    try:
        return solve_linear(rows, [-e.subs(at_zero) for e in equations])
    except SingularMatrixError:
        raise LagrangianError("singular coefficient matrix in exact solve") from None


# ---------------------------------------------------------------------------
# derived containers


@dataclass(frozen=True)
class HessianResult:
    """The k-th-velocity Hessian W_{AB} = ∂²L/∂q_k^B ∂q_k^A and verdict."""

    matrix: Tuple[Tuple[Expression, ...], ...]
    determinant: Expression
    invertible: bool
    assumptions: Tuple[str, ...]  # constant names the verdict treats as nonzero


@dataclass(frozen=True)
class CartanData:
    """Momenta, Cartan forms, and energy on T^(2k-1) Q.

    ω_L = −dθ_L is built on its first read.  A check needs only θ_L:
    a section's s*ω_L is −d(s*θ_L), since pullback commutes with d.
    """

    space: JetSpace
    momenta: Mapping[Tuple[int, int], Expression]  # (i, A) -> p̂^i_A
    theta: OneFormField
    energy: Expression

    @functools.cached_property
    def omega(self) -> TwoFormField:
        return -exterior_derivative(self.theta)

    def momentum(self, i: int, axis: int) -> Expression:
        try:
            return self.momenta[(i, axis)]
        except KeyError:
            raise LagrangianError("no momentum p̂^%d_%d in this system" % (i, axis))

    def theta_pairs(self) -> Tuple[Tuple[Expression, Coordinate], ...]:
        """θ_L as (coefficient, dq_{r-1}^A) pairs in coordinate order."""
        k = max(i for i, _ in self.momenta) + 1
        n = max(a for _, a in self.momenta)
        return tuple(
            (self.momenta[(i, A)], jet(i, A))
            for i in range(k)
            for A in range(1, n + 1)
        )


class SemisprayField(VectorField):
    """A type-1 semispray: holonomic blocks plus forcing components F^A."""

    __slots__ = ("forcing",)

    def __init__(self, space, components, forcing):
        VectorField.__init__(self, space, components)
        self._init(forcing=tuple(map(Expression.of, forcing)))


# ---------------------------------------------------------------------------
# the system


def derived(method):
    """Make a method of a System compute its object once, under the
    system's lock, and return that object on every later call.  The
    result is a plain function, so it stays a class attribute that can
    be wrapped like any other method."""

    @functools.wraps(method)
    def get(self):
        with self._lock:
            if method not in self._cache:
                self._cache[method] = method(self)
            return self._cache[method]

    return get


class System(Immutable):
    """What Lagrangian and Hamiltonian systems share: the declared
    constants of their defining function, and derived objects computed
    once behind a lock (``derived``) and then shared.  Instances are
    immutable.
    """

    __slots__ = ("constants", "_lock", "_cache")
    _error = LagrangianError
    _function = "L"  # the defining function's name in error messages

    def _declare(self, function: Expression, constants):
        table = {}
        for c in constants:
            if not isinstance(c, Constant):
                c = Constant(str(c))
            table[c.name] = c
        for name in sorted(function.free_constants()):
            if name not in table:
                raise self._error(
                    "constant '%s' appears in %s but is not declared"
                    % (name, self._function)
                )
        self._init(constants=table, _lock=threading.RLock(), _cache={})

    def constant_values(self) -> Dict[str, object]:
        return {
            name: c.value
            for name, c in self.constants.items()
            if c.value is not None
        }


class LagrangianSystem(System):
    """A Lagrangian L on T^k Q with an n-dimensional base.

    ``constants`` declares every named constant appearing in L (value and
    nonzero-ness travel with the declaration; they matter for numeric
    work and for regularity assumptions).
    """

    __slots__ = ("k", "n", "lagrangian")

    def __init__(self, k: int, n: int, lagrangian: Expression, constants=()):
        if k < 1:
            raise LagrangianError("the jet order k must be at least 1")
        if n < 1:
            raise LagrangianError("the base dimension n must be at least 1")
        lagrangian = Expression.of(lagrangian)
        for coord in lagrangian.free_coordinates():
            if coord.kind == "momentum":
                raise LagrangianError("a Lagrangian must not reference momenta")
            if coord.order > k:
                raise LagrangianError(
                    "%s exceeds the declared jet order %d" % (coord.name, k)
                )
            if coord.axis > n:
                raise LagrangianError(
                    "%s exceeds the declared base dimension %d" % (coord.name, n)
                )
        self._declare(lagrangian, constants)
        self._init(k=k, n=n, lagrangian=lagrangian)

    # -- spaces -------------------------------------------------------------

    @property
    def space(self) -> JetSpace:
        """T^k Q, the home of L."""
        return JetSpace(self.n, self.k)

    @property
    def velocity_space(self) -> JetSpace:
        """T^(2k-1) Q, the home of the Cartan data and of X_L."""
        return JetSpace(self.n, 2 * self.k - 1)

    # -- derived objects ------------------------------------------------------

    @derived
    def hessian(self) -> HessianResult:
        k, n, L = self.k, self.n, self.lagrangian
        rows = []
        for A in range(1, n + 1):
            row = []
            dA = L.diff(jet(k, A))
            for B in range(1, n + 1):
                row.append(dA.diff(jet(k, B)))
            rows.append(tuple(row))
        det = determinant(rows)
        assumptions = tuple(sorted(det.free_constants()))
        return HessianResult(
            matrix=tuple(rows),
            determinant=det,
            invertible=not det.is_zero,
            assumptions=assumptions,
        )

    @derived
    def cartan(self) -> CartanData:
        k, n, L = self.k, self.n, self.lagrangian
        momenta = self._momenta()
        space = self.velocity_space
        theta = OneFormField.from_coefficients(
            space,
            {jet(r - 1, A): momenta[(r - 1, A)] for r in range(1, k + 1) for A in range(1, n + 1)},
        )
        energy = -L
        for r in range(1, k + 1):
            for A in range(1, n + 1):
                energy = energy + Expression.coordinate(jet(r, A)) * momenta[(r - 1, A)]
        return CartanData(
            space=space, momenta=momenta, theta=theta, energy=energy
        )

    def _ostrogradsky(self, r: int, axis: int, p: Expression) -> Expression:
        """One step of the recursion: ∂L/∂q_r^A − d_T p for p = p̂^r_A on
        T^(2k-1-r) Q, which is p̂^{r-1}_A, or b_A at r = 0."""
        return self.lagrangian.diff(jet(r, axis)) - total_derivative(p, 2 * self.k - 1 - r)

    @derived
    def _momenta(self) -> Dict[Tuple[int, int], Expression]:
        """{(i, A): p̂^i_A}, from p̂^k = 0 down to p̂^0."""
        momenta = {}
        for A in range(1, self.n + 1):
            p = ZERO
            for r in range(self.k, 0, -1):
                p = momenta[(r - 1, A)] = self._ostrogradsky(r, A, p)
        return {key: momenta[key] for key in sorted(momenta)}

    @derived
    def euler_lagrange_expressions(self) -> Tuple[Expression, ...]:
        """The stacked expressions b_A = ∂L/∂q_0^A − d_T p̂^0_A.

        These live on the formal extension T^(2k) Q; the dynamics solve
        eliminates the top coordinate, the residual operator substitutes a
        prolonged curve into it.
        """
        momenta = self._momenta()
        return tuple(self._ostrogradsky(0, A, momenta[(0, A)])
                     for A in range(1, self.n + 1))

    @derived
    def euler_lagrange_field(self) -> SemisprayField:
        k, n = self.k, self.n
        hess = self.hessian()
        if not hess.invertible:
            raise LagrangianError(
                "the Hessian in the top velocities is singular; "
                "the dynamics has no semispray solution"
            )
        top = [jet(2 * k, B) for B in range(1, n + 1)]
        try:
            forcing = solve_affine(self.euler_lagrange_expressions(), top)
        except NonAffineError as err:
            raise LagrangianError(
                "the dynamics is not linear in the formal top coordinate %s"
                % err.unknown.name
            ) from None
        space = self.velocity_space
        components = []
        for i in range(2 * k - 1):
            for A in range(1, n + 1):
                components.append(Expression.coordinate(jet(i + 1, A)))
        components.extend(forcing)
        return SemisprayField(space, components, forcing)

    def euler_lagrange_residual(self, c: Curve, scheme=None, constants: Optional[Mapping] = None):
        """Residual of the EL expressions along a curve.

        Symbolic curves give one exact Expression (in t) per axis; sampled
        curves give a (len(grid), n) float array and need a prolongation
        ``scheme`` plus numeric ``constants`` for every named constant.
        """
        if c.n != self.n:
            raise LagrangianError(
                "curve has %d components, the base dimension is %d" % (c.n, self.n)
            )
        exprs = self.euler_lagrange_expressions()
        order = 2 * self.k
        lifted = prolong(c, order, scheme) if not c.is_symbolic else prolong(c, order)
        if c.is_symbolic:
            rules = {}
            for i in range(order + 1):
                for A in range(1, self.n + 1):
                    rules[jet(i, A)] = lifted.components[i * self.n + (A - 1)]
            return tuple(b.subs(rules) for b in exprs)
        import numpy as np

        names = [
            jet(i, A).name for i in range(order + 1) for A in range(1, self.n + 1)
        ]
        values, _, error = row_evaluator(exprs, names)(lifted.values.T.tolist(),
                                                       dict(constants or {}))
        if error is not None:
            raise error
        return np.array(values, dtype=float).T

