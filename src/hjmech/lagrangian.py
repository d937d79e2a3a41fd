"""Lagrangian side: local momenta, Cartan forms, energy, and the dynamics.

For a Lagrangian L on T^k Q the derived objects live on T^(2k-1) Q:

* local momenta    p̂^{r-1}_A = Σ_{i=0}^{k-r} (−1)^i d_T^i(∂L/∂q_{r+i}^A),
* Cartan 1-form    θ_L = Σ_r p̂^{r-1}_A dq_{r-1}^A,
* Cartan 2-form    ω_L = −dθ_L,
* energy           E_L = Σ_r q_r^A p̂^{r-1}_A − L.

The dynamics i(X_L)ω_L = dE_L is solved in semispray form: the stacked
Euler–Lagrange expressions are affine in the formal top coordinate
q_{2k}^B, and ``solve_affine`` solves them exactly (sympy's DomainMatrix,
fraction-free over the smallest domain holding the entries) for the
forcing components F^A.

All derived objects are computed once per system behind a lock and then
shared; systems are immutable after construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
import sympy as sp
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from .expr import Constant, Coordinate, Expression, ZERO, jet
from .forms import OneFormField, TwoFormField, exterior_derivative
from .jets import Curve, JetSpace, VectorField, prolong, total_derivative


class LagrangianError(ValueError):
    """Raised for malformed or non-regular Lagrangian systems."""


# ---------------------------------------------------------------------------
# exact linear algebra


def solve_linear_exact(matrix: Sequence[Sequence[Expression]], rhs: Sequence[Expression]) -> Tuple[Expression, ...]:
    """Solve M x = rhs exactly.

    The augmented matrix [M | rhs] is converted to one DomainMatrix
    domain (a polynomial ring or fraction field over QQ for rational
    entries, EX for radicals) and solved fraction-free; each x_i is the
    canonical form of its numerator over the common denominator.  A nonsingular system has one
    solution, so the result does not depend on the elimination order.
    Raises LagrangianError when the matrix is singular.
    """
    n = len(matrix)
    if len(rhs) != n or any(len(row) != n for row in matrix):
        raise LagrangianError("solve_linear_exact needs a square system")
    aug = DomainMatrix.from_list_sympy(
        n, n + 1, [[e.sym for e in row] + [r.sym] for row, r in zip(matrix, rhs)]
    )
    try:
        num, den = aug[:, :n].solve_den(aug[:, n:])
    except DMNonInvertibleMatrixError:
        raise LagrangianError("singular coefficient matrix in exact solve")
    den = num.domain.to_sympy(den)
    return tuple(Expression(x / den) for x in num.to_Matrix())


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
    return solve_linear_exact(rows, [-e.subs(at_zero) for e in equations])


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
    """Momenta, Cartan forms, and energy on T^(2k-1) Q."""

    space: JetSpace
    momenta: Mapping[Tuple[int, int], Expression]  # (i, A) -> p̂^i_A
    theta: OneFormField
    omega: TwoFormField
    energy: Expression

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
        object.__setattr__(
            self,
            "forcing",
            tuple(f if isinstance(f, Expression) else Expression(f) for f in forcing),
        )


# ---------------------------------------------------------------------------
# the system


class System:
    """What Lagrangian and Hamiltonian systems share: the declared
    constants of their defining function, and derived objects computed
    once behind a lock and then shared.  Instances are immutable.
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
        object.__setattr__(self, "constants", table)
        object.__setattr__(self, "_lock", threading.RLock())
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def constant_values(self) -> Dict[str, object]:
        return {
            name: c.value
            for name, c in self.constants.items()
            if c.value is not None
        }

    def _cached(self, key, builder):
        with self._lock:
            if key not in self._cache:
                self._cache[key] = builder()
            return self._cache[key]


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
        if not isinstance(lagrangian, Expression):
            lagrangian = Expression(lagrangian)
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
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lagrangian", lagrangian)

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

    def hessian(self) -> HessianResult:
        return self._cached("hessian", self._build_hessian)

    def _build_hessian(self) -> HessianResult:
        k, n, L = self.k, self.n, self.lagrangian
        rows = []
        for A in range(1, n + 1):
            row = []
            dA = L.diff(jet(k, A))
            for B in range(1, n + 1):
                row.append(dA.diff(jet(k, B)))
            rows.append(tuple(row))
        det = Expression(sp.Matrix([[e.sym for e in row] for row in rows]).det())
        assumptions = tuple(sorted(det.free_constants()))
        return HessianResult(
            matrix=tuple(rows),
            determinant=det,
            invertible=not det.is_zero,
            assumptions=assumptions,
        )

    def cartan(self) -> CartanData:
        return self._cached("cartan", self._build_cartan)

    def _build_cartan(self) -> CartanData:
        k, n, L = self.k, self.n, self.lagrangian
        momenta: Dict[Tuple[int, int], Expression] = {}
        for r in range(1, k + 1):
            for A in range(1, n + 1):
                momenta[(r - 1, A)] = _alternating_sum(L, k, r, A)
        space = self.velocity_space
        theta = OneFormField.from_coefficients(
            space,
            {jet(r - 1, A): momenta[(r - 1, A)] for r in range(1, k + 1) for A in range(1, n + 1)},
        )
        omega = -exterior_derivative(theta)
        energy = -L
        for r in range(1, k + 1):
            for A in range(1, n + 1):
                energy = energy + Expression.coordinate(jet(r, A)) * momenta[(r - 1, A)]
        return CartanData(
            space=space, momenta=momenta, theta=theta, omega=omega, energy=energy
        )

    def euler_lagrange_expressions(self) -> Tuple[Expression, ...]:
        """The stacked expressions b_A = Σ_l (−1)^l d_T^l(∂L/∂q_l^A).

        These live on the formal extension T^(2k) Q; the dynamics solve
        eliminates the top coordinate, the residual operator substitutes a
        prolonged curve into it.
        """
        return self._cached("el_expressions", self._build_el_expressions)

    def _build_el_expressions(self) -> Tuple[Expression, ...]:
        return tuple(
            _alternating_sum(self.lagrangian, self.k, 0, A)
            for A in range(1, self.n + 1)
        )

    def euler_lagrange_field(self) -> SemisprayField:
        return self._cached("el_field", self._build_el_field)

    def _build_el_field(self) -> SemisprayField:
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
        bindings = dict(constants or {})
        names = [
            jet(i, A).name for i in range(order + 1) for A in range(1, self.n + 1)
        ]
        rows = []
        for row in lifted.values:
            env = dict(bindings)
            env.update(zip(names, (float(v) for v in row)))
            rows.append([b.evaluate(env) for b in exprs])
        return np.asarray(rows, dtype=float)


def _alternating_sum(L: Expression, k: int, first: int, axis: int) -> Expression:
    """Σ_{i=0}^{k-first} (−1)^i d_T^i(∂L/∂q_{first+i}^A) on the axis A:
    the momentum p̂^{first-1}_A for first >= 1, the EL expression b_A for
    first = 0."""
    total = ZERO
    for i in range(k - first + 1):
        term = _dt_power(L.diff(jet(first + i, axis)), k, i)
        total = total + term if i % 2 == 0 else total - term
    return total


def _dt_power(e: Expression, base_order: int, times: int) -> Expression:
    out = e
    m = base_order
    for _ in range(times):
        out = total_derivative(out, m)
        m += 1
    return out
