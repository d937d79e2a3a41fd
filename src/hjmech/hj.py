"""Hamilton–Jacobi residual operators, solution transport, and involution.

A candidate solution is a Section (fiber components s_j^A of the bundle
T^(2k-1)Q → T^(k-1)Q), a OneForm (components α_A^i of a 1-form on
T^(k-1)Q), or a GeneratingFunction W.  Candidates may carry opaque
placeholder components (the "?" of a model file), in which case the
residual operators emit the symbolic equation systems instead of
verdicts.

Sign conventions: every residual is emitted raw, exactly as the
defining operator produces it —

* tangency (Lagrangian):   X_L(q_j^A − s_j^A) restricted to Im(s),
* tangency (Hamiltonian):  X_h(p_A^i − α_A^i) restricted to Im(α),
* closedness:              the coefficients of the pulled-back 2-form
                           (s*ω_L, resp. α*ω_{k-1} = −dα), indexed by
                           base-coordinate pairs u∧v with u before v,
* energy:                  the coefficients of d(s*E_L), resp. d(α*h),
* generating function:     ∂W/∂q_i^A − (s*θ_L)_i^A,
* HJ equation:             h(q, ∂W/∂q) − E.

Nothing is sign-normalized for display; a candidate solves a condition
iff the raw residuals vanish, which is invariant under the choice.

Verdicts: "exact-zero" when the canonical form is 0; "symbolic" when
placeholders prevent deciding; "nonzero" for a nonvanishing rational
canonical form (exact decision); radical-bearing residuals fall back to
seeded sampling — "numeric-zero" below tolerance, "nonzero" above — and
the fallback is recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import sympy as sp

from .expr import (
    Coordinate,
    Expression,
    jet,
    momentum,
    placeholder,
    sample_values,
)
from .forms import CoordMap, OneFormField, exterior_derivative, differential
from .hamiltonian import (
    HamiltonianSystem,
    LegendreMap,
    PhaseSpace,
    poisson,
)
from .jets import JetSpace, VectorField, project_field
from .lagrangian import LagrangianError, LagrangianSystem, NonAffineError, solve_affine

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLES = 40
DEFAULT_SEED = 42


class HJError(ValueError):
    """Raised for malformed candidates and impossible checks."""


class DegenerateFamilyError(HJError):
    """A complete-solution family that is not solvable for its parameters."""


# ---------------------------------------------------------------------------
# candidates


def _check_base_scope(e: Expression, k: int, n: int, what: str):
    for c in e.free_coordinates():
        if c.kind == "momentum" or c.order > k - 1 or c.axis > n:
            raise HJError(
                "%s may depend on base coordinates (orders 0..%d) only; "
                "found %s" % (what, k - 1, c.name)
            )


class _FiberCandidate:
    """Components c_j^A(q_0..q_{k-1}) of a map from T^(k-1)Q into a
    bundle over it, keyed (order, axis).

    Subclasses fix what differs between the two sides: the component
    orders, the key prefix, the noun used in messages, the coordinate
    kind the components replace, and the target space.
    """

    __slots__ = ("k", "n", "components")
    _prefix: str
    _noun: str

    def __init__(self, k: int, n: int, components: Mapping[Tuple[int, int], Expression]):
        if k < 1 or n < 1:
            raise HJError("a %s needs k >= 1 and n >= 1" % self._noun)
        comps = {}
        for j in self._orders(k):
            for A in range(1, n + 1):
                key = self._key(j, A)
                if (j, A) not in components:
                    raise HJError("%s is missing the component %s" % (self._noun, key))
                e = components[(j, A)]
                if not isinstance(e, Expression):
                    e = Expression(e)
                _check_base_scope(e, k, n, "%s component %s" % (self._noun, key))
                comps[(j, A)] = e
        extra = set(components) - set(comps)
        if extra:
            raise HJError("unexpected %s components: %s" % (self._noun, sorted(extra)))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @classmethod
    def _key(cls, j: int, axis: int) -> str:
        return "%s%d_%d" % (cls._prefix, j, axis)

    @classmethod
    def generic(cls, k: int, n: int):
        """All components opaque placeholders <prefix><j>_<A>(q_0..q_{k-1})."""
        base = JetSpace(n, k - 1).coordinates
        comps = {
            (j, A): placeholder(cls._key(j, A), base)
            for j in cls._orders(k)
            for A in range(1, n + 1)
        }
        return cls(k, n, comps)

    def component(self, j: int, axis: int) -> Expression:
        try:
            return self.components[(j, axis)]
        except KeyError:
            raise HJError("no component %s in this %s" % (self._key(j, axis), self._noun))

    @property
    def has_placeholders(self) -> bool:
        return any(e.has_placeholders for e in self.components.values())

    def substitution(self) -> Dict[Coordinate, Expression]:
        """{fiber coordinate: component}, e.g. {q_j^A: s_j^A} or {p_A^i: α_A^i}."""
        return {self._coordinate(j, A): e for (j, A), e in self.components.items()}

    def as_map(self) -> CoordMap:
        """The map T^(k-1)Q → target, identity on the base coordinates."""
        base = JetSpace(self.n, self.k - 1)
        images = {c: Expression.coordinate(c) for c in base.coordinates}
        images.update(self.substitution())
        return CoordMap(base, self._target(self.n, self.k), images)

    def _check_shape(self, k: int, n: int):
        if (self.k, self.n) != (k, n):
            raise HJError(
                "%s shape (k=%d, n=%d) does not match the system (k=%d, n=%d)"
                % (self._noun, self.k, self.n, k, n)
            )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.k, self.n) == (other.k, other.n) and self.components == other.components

    def __str__(self):
        items = ", ".join(
            "%s = %s" % (self._key(j, A), e)
            for (j, A), e in sorted(self.components.items())
        )
        return "%s(%s)" % (type(self).__name__.lower(), items)


class Section(_FiberCandidate):
    """Fiber components s_j^A(q_0..q_{k-1}) for k <= j <= 2k-1, a section
    of T^(2k-1)Q → T^(k-1)Q."""

    __slots__ = ()
    _prefix = "s"
    _noun = "section"
    _coordinate = staticmethod(jet)

    @staticmethod
    def _orders(k: int) -> range:
        return range(k, 2 * k)

    @staticmethod
    def _target(n: int, k: int) -> JetSpace:
        return JetSpace(n, 2 * k - 1)


class OneForm(_FiberCandidate):
    """Components α_A^i(q_0..q_{k-1}) of a 1-form on T^(k-1)Q."""

    __slots__ = ()
    _prefix = "a"
    _noun = "1-form"
    _coordinate = staticmethod(momentum)

    @staticmethod
    def _orders(k: int) -> range:
        return range(k)

    @staticmethod
    def _target(n: int, k: int) -> PhaseSpace:
        return PhaseSpace(n, k)

    def as_oneform_field(self) -> OneFormField:
        """The same data as a 1-form field on the base space."""
        base = JetSpace(self.n, self.k - 1)
        return OneFormField.from_coefficients(
            base, {jet(i, A): e for (i, A), e in self.components.items()}
        )


class GeneratingFunction:
    """A function W on T^(k-1)Q, optionally with a declared energy level."""

    __slots__ = ("k", "n", "w", "energy")

    def __init__(self, k: int, n: int, w: Expression, energy=None):
        if k < 1 or n < 1:
            raise HJError("a generating function needs k >= 1 and n >= 1")
        if not isinstance(w, Expression):
            w = Expression(w)
        _check_base_scope(w, k, n, "the generating function")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "energy", _as_energy(energy))

    def __setattr__(self, name, value):
        raise AttributeError("GeneratingFunction is immutable")

    @classmethod
    def generic(cls, k: int, n: int, energy=None) -> "GeneratingFunction":
        base = JetSpace(n, k - 1).coordinates
        return cls(k, n, placeholder("W", base), energy)

    def gradient(self) -> OneForm:
        """dW as a OneForm: α_A^i = ∂W/∂q_i^A."""
        comps = {
            (i, A): self.w.diff(jet(i, A))
            for i in range(self.k)
            for A in range(1, self.n + 1)
        }
        return OneForm(self.k, self.n, comps)

    def __eq__(self, other):
        if not isinstance(other, GeneratingFunction):
            return NotImplemented
        return (
            (self.k, self.n) == (other.k, other.n)
            and self.w == other.w
            and self.energy == other.energy
        )

    def __str__(self):
        return "W = %s" % self.w


def _as_energy(energy) -> Optional[Expression]:
    if energy is None:
        return None
    if isinstance(energy, Expression):
        return energy
    if isinstance(energy, str):
        return Expression.constant(energy)
    return Expression.number(energy)


class CompleteSolutionFamily:
    """A parametric family of candidates with kn parameters λ.

    ``inverse_rules`` optionally maps each parameter name to an expression
    on phase space recovering it from (q, p); when absent, involution
    checks attempt an affine solve of α_λ(q) = p for λ.
    """

    __slots__ = ("parameters", "solution", "inverse_rules")

    def __init__(self, parameters: Sequence[str], solution,
                 inverse_rules: Optional[Mapping[str, Expression]] = None):
        params = tuple(parameters)
        if not isinstance(solution, _FiberCandidate):
            raise HJError("a family wraps a Section or a OneForm")
        kn = solution.k * solution.n
        if len(params) != kn:
            raise HJError(
                "a complete-solution family needs exactly kn = %d parameters, "
                "got %d" % (kn, len(params))
            )
        if len(set(params)) != len(params):
            raise HJError("family parameters must be distinct")
        free = set()
        for e in solution.components.values():
            free |= e.free_constants()
        missing = [p for p in params if p not in free]
        if missing:
            raise HJError(
                "parameters %s do not appear in the family's components"
                % ", ".join(missing)
            )
        rules = None
        if inverse_rules is not None:
            rules = {}
            for p in params:
                if p not in inverse_rules:
                    raise HJError("inverse rule missing for parameter '%s'" % p)
                e = inverse_rules[p]
                rules[p] = e if isinstance(e, Expression) else Expression(e)
            extra = set(inverse_rules) - set(params)
            if extra:
                raise HJError(
                    "inverse rules for unknown parameters: %s" % sorted(extra)
                )
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "solution", solution)
        object.__setattr__(self, "inverse_rules", rules)

    def __setattr__(self, name, value):
        raise AttributeError("CompleteSolutionFamily is immutable")

    def __eq__(self, other):
        if not isinstance(other, CompleteSolutionFamily):
            return NotImplemented
        return (
            self.parameters == other.parameters
            and self.solution == other.solution
            and self.inverse_rules == other.inverse_rules
        )

    def specialize(self, values: Mapping[str, object]):
        """The member candidate at given parameter values."""
        rules = {name: values[name] for name in self.parameters}
        comps = {
            key: e.subs(rules) for key, e in self.solution.components.items()
        }
        cls = type(self.solution)
        return cls(self.solution.k, self.solution.n, comps)


# ---------------------------------------------------------------------------
# residual reports


@dataclass(frozen=True)
class ResidualEntry:
    tag: str
    eq_id: str
    residual: Expression
    numeric_max: Optional[float]
    verdict: str  # exact-zero | numeric-zero | nonzero | symbolic


@dataclass(frozen=True)
class ResidualReport:
    entries: Tuple[ResidualEntry, ...]
    assumptions: Tuple[str, ...]
    notes: Tuple[str, ...]
    tol: float
    samples: int
    seed: int

    def entry(self, tag: str, eq_id: str) -> ResidualEntry:
        for e in self.entries:
            if e.tag == tag and e.eq_id == eq_id:
                return e
        raise HJError("no entry (%s, %s) in this report" % (tag, eq_id))

    def with_tag(self, tag: str) -> Tuple[ResidualEntry, ...]:
        return tuple(e for e in self.entries if e.tag == tag)


def combine(reports: Sequence[ResidualReport]) -> ResidualReport:
    """Concatenate reports produced with identical numeric settings."""
    if not reports:
        raise HJError("nothing to combine")
    first = reports[0]
    for r in reports[1:]:
        if (r.tol, r.samples, r.seed) != (first.tol, first.samples, first.seed):
            raise HJError("cannot combine reports with different numeric settings")
    entries = tuple(e for r in reports for e in r.entries)
    assumptions = []
    notes = []
    for r in reports:
        for a in r.assumptions:
            if a not in assumptions:
                assumptions.append(a)
        for m in r.notes:
            if m not in notes:
                notes.append(m)
    return ResidualReport(
        entries, tuple(assumptions), tuple(notes), first.tol, first.samples, first.seed
    )


def _is_rational_form(sym) -> bool:
    if sym.atoms(sp.Function):
        return False
    for p in sym.atoms(sp.Pow):
        if not p.exp.is_Integer:
            return False
    return True


def _sample(e: Expression, constant_values: Mapping[str, object],
            samples: int, seed: int, reduce=max) -> Optional[float]:
    """Seeded ``reduce`` (max or min) of |e| over ``sample_values``'s
    points, with the named constants fixed; None if fewer than
    ``samples`` points avoid domain errors."""
    values = [abs(v) for (v,) in sample_values((e,), samples, seed, constant_values)]
    return reduce(values) if len(values) == samples else None


def _build_report(raw_entries, constant_values: Mapping[str, object],
                  assumptions=(), notes=(), tol: float = DEFAULT_TOL,
                  samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> ResidualReport:
    if samples < 1:
        raise HJError("sample count must be at least 1")
    entries = []
    assumption_list = list(assumptions)
    fallback_ids = []
    unsampled_ids = []
    for idx, (tag, eq_id, residual) in enumerate(raw_entries):
        if residual.is_zero:
            entries.append(ResidualEntry(tag, eq_id, residual, 0.0, "exact-zero"))
            continue
        if residual.has_placeholders:
            entries.append(ResidualEntry(tag, eq_id, residual, None, "symbolic"))
            continue
        numeric = _sample(residual, constant_values, samples, seed + idx)
        if _is_rational_form(residual.sym):
            entries.append(ResidualEntry(tag, eq_id, residual, numeric, "nonzero"))
            continue
        if numeric is None:
            unsampled_ids.append("%s[%s]" % (tag, eq_id))
            entries.append(ResidualEntry(tag, eq_id, residual, None, "nonzero"))
            continue
        fallback_ids.append("%s[%s]" % (tag, eq_id))
        verdict = "numeric-zero" if numeric < tol else "nonzero"
        entries.append(ResidualEntry(tag, eq_id, residual, numeric, verdict))
    if fallback_ids:
        assumption_list.append(
            "radical residuals decided by sampling (%d points, tol %g, seed %d): %s"
            % (samples, tol, seed, ", ".join(fallback_ids))
        )
    if unsampled_ids:
        assumption_list.append(
            "sampling failed on every attempt (domain errors), treated as "
            "nonzero: %s" % ", ".join(unsampled_ids)
        )
    return ResidualReport(
        tuple(entries), tuple(assumption_list), tuple(notes), tol, samples, seed
    )


def _regularity_assumptions(sys: LagrangianSystem) -> Tuple[str, ...]:
    names = sys.hessian().assumptions
    return tuple(
        "treating constant '%s' as nonzero (regularity of the Hessian)" % name
        for name in names
    )


def _tangency(X: VectorField, sol) -> list:
    """Raw tangency residuals X(c − sol_c) on Im(sol), one per fiber
    coordinate c of the candidate."""
    rules = sol.substitution()
    return [
        ("tangency", c.name, X.apply(Expression.coordinate(c) - e).subs(rules))
        for c, e in rules.items()
    ]


def _closedness(form, k: int, n: int) -> list:
    """Raw coefficients of a 2-form on T^(k-1)Q over base-coordinate pairs
    u∧v with u before v."""
    coords = JetSpace(n, k - 1).coordinates
    return [
        ("closedness", "%s^%s" % (u.name, v.name), form.entry(u, v))
        for i, u in enumerate(coords)
        for v in coords[i + 1:]
    ]


def _energy(sol, f: Expression) -> list:
    """Raw coefficients of d(sol*f) over the base coordinates."""
    base = JetSpace(sol.n, sol.k - 1)
    form = differential(sol.as_map().pull_function(f), base)
    return [
        ("energy", c.name, coeff)
        for c, coeff in zip(base.coordinates, form.coefficients)
    ]


# ---------------------------------------------------------------------------
# the associated field


def associated_field(system, sol) -> VectorField:
    """The field on T^(k-1)Q induced by a candidate via tangency.

    Lagrangian systems pair with Sections (restrict X_L, truncate);
    Hamiltonian systems pair with OneForms (restrict X_h, truncate).
    """
    if isinstance(system, LagrangianSystem):
        if not isinstance(sol, Section):
            raise HJError("a Lagrangian system pairs with a Section")
        sol._check_shape(system.k, system.n)
        X = system.euler_lagrange_field()
        restricted = X.subs(sol.substitution())
        return project_field(restricted, system.k - 1)
    if isinstance(system, HamiltonianSystem):
        if not isinstance(sol, OneForm):
            raise HJError("a Hamiltonian system pairs with a OneForm")
        phase = system.phase
        sol._check_shape(phase.k, phase.n)
        X = system.field()
        base = phase.base_space
        rules = sol.substitution()
        comps = []
        for coord, comp in zip(phase.coordinates[: base.dimension],
                               X.components[: base.dimension]):
            restricted = comp.subs(rules)
            stray = restricted.free_coordinates() - set(base.coordinates)
            if stray:
                raise HJError(
                    "restricted component for %s still references %s"
                    % (coord.name, ", ".join(sorted(c.name for c in stray)))
                )
            comps.append(restricted)
        return VectorField(base, comps)
    raise HJError("expected a LagrangianSystem or a HamiltonianSystem")


# ---------------------------------------------------------------------------
# Lagrangian-side residual operators


def gen_lag_residuals(sys: LagrangianSystem, s: Section,
                      tol: float = DEFAULT_TOL, samples: int = DEFAULT_SAMPLES,
                      seed: int = DEFAULT_SEED) -> ResidualReport:
    """Tangency residuals X_L(q_j^A − s_j^A) on Im(s), k <= j <= 2k−1."""
    s._check_shape(sys.k, sys.n)
    return _build_report(
        _tangency(sys.euler_lagrange_field(), s), sys.constant_values(),
        assumptions=_regularity_assumptions(sys),
        tol=tol, samples=samples, seed=seed,
    )


def lag_closedness(sys: LagrangianSystem, s: Section,
                   tol: float = DEFAULT_TOL, samples: int = DEFAULT_SAMPLES,
                   seed: int = DEFAULT_SEED) -> ResidualReport:
    """Independent coefficients of s*ω_L over base-coordinate pairs."""
    s._check_shape(sys.k, sys.n)
    pulled = s.as_map().pull_twoform(sys.cartan().omega)
    return _build_report(
        _closedness(pulled, sys.k, sys.n), sys.constant_values(),
        tol=tol, samples=samples, seed=seed,
    )


def lag_energy_residuals(sys: LagrangianSystem, s: Section,
                         tol: float = DEFAULT_TOL, samples: int = DEFAULT_SAMPLES,
                         seed: int = DEFAULT_SEED) -> ResidualReport:
    """Coefficients of d(s*E_L) over the base coordinates."""
    s._check_shape(sys.k, sys.n)
    return _build_report(
        _energy(s, sys.cartan().energy), sys.constant_values(),
        tol=tol, samples=samples, seed=seed,
    )


def lag_genfunc_residuals(sys: LagrangianSystem, s: Section,
                          gf: GeneratingFunction,
                          tol: float = DEFAULT_TOL, samples: int = DEFAULT_SAMPLES,
                          seed: int = DEFAULT_SEED) -> ResidualReport:
    """Residuals ∂W/∂q_i^A − (s*θ_L)_i^A."""
    s._check_shape(sys.k, sys.n)
    if (gf.k, gf.n) != (sys.k, sys.n):
        raise HJError("generating function shape does not match the system")
    base = JetSpace(sys.n, sys.k - 1)
    pulled = s.as_map().pull_oneform(sys.cartan().theta)
    raw = []
    for c, coeff in zip(base.coordinates, pulled.coefficients):
        raw.append(("genfunc", c.name, gf.w.diff(c) - coeff))
    return _build_report(
        raw, sys.constant_values(), tol=tol, samples=samples, seed=seed
    )


# ---------------------------------------------------------------------------
# Hamiltonian-side residual operators


def gen_ham_residuals(hs: HamiltonianSystem, alpha: OneForm,
                      tol: float = DEFAULT_TOL, samples: int = DEFAULT_SAMPLES,
                      seed: int = DEFAULT_SEED) -> ResidualReport:
    """Tangency residuals X_h(p_A^i − α_A^i) on Im(α)."""
    alpha._check_shape(hs.phase.k, hs.phase.n)
    return _build_report(
        _tangency(hs.field(), alpha), hs.constant_values(),
        tol=tol, samples=samples, seed=seed,
    )


def ham_closedness(alpha: OneForm,
                   tol: float = DEFAULT_TOL, samples: int = DEFAULT_SAMPLES,
                   seed: int = DEFAULT_SEED,
                   constant_values: Optional[Mapping[str, object]] = None) -> ResidualReport:
    """Coefficients of α*ω_{k-1} = −dα over base-coordinate pairs."""
    minus_d = -exterior_derivative(alpha.as_oneform_field())
    return _build_report(
        _closedness(minus_d, alpha.k, alpha.n), dict(constant_values or {}),
        tol=tol, samples=samples, seed=seed,
    )


def ham_energy_residuals(hs: HamiltonianSystem, alpha: OneForm,
                         tol: float = DEFAULT_TOL, samples: int = DEFAULT_SAMPLES,
                         seed: int = DEFAULT_SEED) -> ResidualReport:
    """Coefficients of d(α*h) over the base coordinates."""
    alpha._check_shape(hs.phase.k, hs.phase.n)
    return _build_report(
        _energy(alpha, hs.h), hs.constant_values(),
        tol=tol, samples=samples, seed=seed,
    )


def hj_equation(hs: HamiltonianSystem, w, energy=None, strict: bool = False,
                tol: float = DEFAULT_TOL, samples: int = DEFAULT_SAMPLES,
                seed: int = DEFAULT_SEED) -> ResidualReport:
    """The equation h(q, ∂W/∂q) = E.

    ``w`` is a GeneratingFunction, or a OneForm standing in for dW (its
    components are then used as the gradient directly).  With ``energy``
    omitted, the report carries the canonical value of h(q, ∂W/∂q), one
    constancy residual per base coordinate, and no E-residual; asking for
    a ``strict`` verdict without an energy level is an error.
    """
    if isinstance(w, GeneratingFunction):
        grad = w.gradient()
        if energy is None:
            energy = w.energy
    elif isinstance(w, OneForm):
        grad = w
    else:
        raise HJError("expected a GeneratingFunction or a OneForm as dW")
    if strict and energy is None:
        raise HJError(
            "the energy constant is unbound: a strict verdict on the "
            "Hamilton-Jacobi equation needs an energy level E"
        )
    grad._check_shape(hs.phase.k, hs.phase.n)
    value = hs.h.subs(grad.substitution())
    base = hs.phase.base_space
    notes = ["h(q, dW) = %s" % value]
    raw = []
    if energy is not None:
        e_expr = _as_energy(energy)
        raw.append(("hjeq", "value", value - e_expr))
    else:
        gradient = differential(value, base)
        for c, coeff in zip(base.coordinates, gradient.coefficients):
            raw.append(("hjeq", "constancy:%s" % c.name, coeff))
        constant = all(e.is_zero for e in gradient.coefficients)
        if not value.has_placeholders:
            notes.append(
                "h(q, dW) is %sconstant over the base"
                % ("" if constant else "NOT ")
            )
    return _build_report(
        raw, hs.constant_values(), notes=notes, tol=tol, samples=samples, seed=seed
    )


# ---------------------------------------------------------------------------
# transport and involution


def transport(fl: LegendreMap, sol):
    """Move a candidate across the Legendre map (α = FL∘s, s = FL⁻¹∘α)."""
    sys = fl.system
    if isinstance(sol, Section):
        target, rule = OneForm, fl.momentum_rule
    elif isinstance(sol, OneForm):
        target, rule = Section, fl.inverse_rule
    else:
        raise HJError("expected a Section or a OneForm")
    if (sol.k, sol.n) != (sys.k, sys.n):
        raise HJError("%s shape does not match the Legendre map's system" % sol._noun)
    rules = sol.substitution()
    comps = {
        (j, A): rule(j, A).subs(rules)
        for j in target._orders(sys.k)
        for A in range(1, sys.n + 1)
    }
    return target(sys.k, sys.n, comps)


def involution_check(hs: HamiltonianSystem, fam: CompleteSolutionFamily,
                     samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
                     tol: float = DEFAULT_TOL) -> ResidualReport:
    """Pairwise Poisson brackets of the family's recovered parameters.

    The functions f_a(q, p) invert the family: f_a(q, α_λ(q)) == λ_a.
    They are taken from the supplied inverse rules (validated by that
    round-trip) or, failing that, from an affine solve of α_λ(q) = p.
    A family that cannot be inverted is degenerate and raises.
    """
    if samples < 1:
        raise HJError("sample count must be at least 1")
    alpha = fam.solution
    if not isinstance(alpha, OneForm):
        raise HJError(
            "involution checks need a 1-form family; transport the section "
            "family across the Legendre map first"
        )
    alpha._check_shape(hs.phase.k, hs.phase.n)
    notes = []
    if fam.inverse_rules is not None:
        functions = dict(fam.inverse_rules)
        _validate_inverse_rules(fam, functions, hs.constant_values(),
                                samples, seed, tol)
        notes.append("parameter recovery: supplied inverse rules (validated)")
    else:
        functions = _solve_family_affine(fam)
        notes.append("parameter recovery: affine solve of the family")

    jac_note = _family_jacobian_note(fam, hs.constant_values(), samples, seed, tol)
    notes.append(jac_note)

    params = fam.parameters
    raw = []
    for a in range(len(params)):
        for b in range(a + 1, len(params)):
            bracket = poisson(functions[params[a]], functions[params[b]], hs.phase)
            raw.append(
                ("bracket", "{%s,%s}" % (params[a], params[b]), bracket)
            )
    return _build_report(
        raw, hs.constant_values(), notes=notes, tol=tol, samples=samples, seed=seed
    )


def _validate_inverse_rules(fam, functions, constant_values, samples, seed, tol):
    rules = fam.solution.substitution()
    for name in fam.parameters:
        rule = functions[name]
        for c in rule.free_coordinates():
            if c.kind == "jet" and c.order > fam.solution.k - 1:
                raise HJError(
                    "inverse rule for '%s' references %s outside phase space"
                    % (name, c.name)
                )
        diff = rule.subs(rules) - Expression.constant(name)
        if diff.is_zero:
            continue
        numeric = _sample(diff, constant_values, samples, seed)
        if numeric is None or numeric >= tol:
            raise HJError(
                "inverse rule for '%s' does not invert the family "
                "(max residual %s)" % (name, numeric)
            )


def _solve_family_affine(fam: CompleteSolutionFamily) -> Dict[str, Expression]:
    equations = [
        Expression.coordinate(momentum(i, A)) - comp
        for (i, A), comp in sorted(fam.solution.components.items())
    ]
    try:
        solution = solve_affine(equations, fam.parameters)
    except NonAffineError:
        raise DegenerateFamilyError(
            "the family is not affine in its parameters; supply "
            "inverse rules to check involution"
        ) from None
    except LagrangianError as err:
        raise DegenerateFamilyError(
            "the family cannot be solved for its parameters: %s" % err
        ) from None
    return dict(zip(fam.parameters, solution))


def _family_jacobian_note(fam, constant_values, samples, seed, tol) -> str:
    """Sample |det ∂α/∂λ|; a vanishing determinant is a degenerate family."""
    params = fam.parameters
    comps = [e for _, e in sorted(fam.solution.components.items())]
    matrix = sp.Matrix(
        [[comp.diff(p).sym for p in params] for comp in comps]
    )
    det = Expression(matrix.det())
    if det.is_zero:
        raise DegenerateFamilyError(
            "the family's Jacobian in the parameters is identically zero"
        )
    minimum = _sample(det, constant_values, samples, seed, reduce=min)
    if minimum is None:
        return "family Jacobian: could not sample det ∂α/∂λ (domain errors)"
    if minimum < tol:
        raise DegenerateFamilyError(
            "the family's Jacobian determinant vanishes at sampled points "
            "(min |det| = %.3g)" % minimum
        )
    return (
        "family Jacobian: min |det ∂α/∂λ| = %.3g over %d samples"
        % (minimum, samples)
    )


# ---------------------------------------------------------------------------
# classification


GENERALIZED = "generalized-solution"
STRICT = "strict-solution"
NOT_A_SOLUTION = "not-a-solution"


def classify(report: ResidualReport, tol: Optional[float] = None) -> str:
    """Verdict from a report holding tangency (and possibly closedness)
    entries: strict needs both zero, generalized needs tangency zero."""
    if tol is None:
        tol = report.tol

    def zeroish(entry: ResidualEntry) -> bool:
        if entry.verdict == "exact-zero":
            return True
        if entry.verdict == "symbolic":
            raise HJError(
                "cannot classify a symbolic candidate (placeholder components)"
            )
        if entry.numeric_max is not None and not _is_rational_form(entry.residual.sym):
            return entry.numeric_max < tol
        return False

    tangency = report.with_tag("tangency")
    if not tangency:
        raise HJError("classification needs tangency residuals in the report")
    if not all(zeroish(e) for e in tangency):
        return NOT_A_SOLUTION
    closedness = report.with_tag("closedness")
    if all(zeroish(e) for e in closedness):
        return STRICT
    return GENERALIZED
