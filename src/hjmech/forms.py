"""Differential forms over a fixed coordinate chart.

Everything here is chart-level bookkeeping: a 1-form is one coefficient
per coordinate differential, a 2-form is its independent coefficients
ω_{uv} with u before v (ω_{vu} = −ω_{uv} and the diagonal is zero, so
antisymmetry holds by construction and is never checked).  The one
2-form constructor, ``TwoFormField(space, upper)``, takes that strict
upper triangle and checks only its shape; every operation that yields a
2-form calls it.  The sign conventions are

* (a ∧ b)_{uv} = a_u b_v − a_v b_u,
* (dθ)_{uv}   = ∂θ_v/∂u − ∂θ_u/∂v,
* (i(X)ω)_v   = Σ_u X^u ω_{uv},
* (dω)_{uvw}  = ∂ω_{vw}/∂u − ∂ω_{uw}/∂v + ∂ω_{uv}/∂w.

Pullbacks go along a CoordMap, a smooth map written out as one source
expression per target coordinate; the chain rule supplies the dq's.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .expr import Coordinate, Expression, Immutable, ZERO
from .jets import VectorField


class FormError(ValueError):
    """Raised for malformed forms or maps."""


def _coefficient_text(comp: Expression) -> Tuple[str, str]:
    """Render a coefficient as (sign, body) for sign-aware joining."""
    text = str(comp)
    if comp.is_sum:
        return "+", "(" + text + ")"
    if text.startswith("-"):
        return "-", text[1:]
    return "+", text


def _join_terms(parts) -> str:
    """parts: iterable of (sign, text); renders 'a + b - c' or '0'."""
    out = []
    for sign, text in parts:
        if not out:
            out.append(text if sign == "+" else "-" + text)
        else:
            out.append(" + " if sign == "+" else " - ")
            out.append(text)
    return "".join(out) if out else "0"


class OneFormField(Immutable):
    """A 1-form: one coefficient per coordinate differential of a space."""

    __slots__ = ("space", "coefficients")

    def __init__(self, space, coefficients):
        coeffs = tuple(map(Expression.of, coefficients))
        if len(coeffs) != space.dimension:
            raise FormError(
                "1-form has %d coefficients, space has dimension %d"
                % (len(coeffs), space.dimension)
            )
        self._init(space=space, coefficients=coeffs)

    @classmethod
    def zero(cls, space) -> "OneFormField":
        return cls(space, (ZERO,) * space.dimension)

    @classmethod
    def from_coefficients(cls, space, table: Mapping[Coordinate, Expression]):
        coords = space.coordinates
        unknown = set(table) - set(coords)
        if unknown:
            raise FormError(
                "coefficients given for coordinates outside the space: %s"
                % ", ".join(sorted(c.name for c in unknown))
            )
        return cls(space, tuple(table.get(c, ZERO) for c in coords))

    def coefficient(self, coord: Coordinate) -> Expression:
        try:
            idx = self.space.coordinates.index(coord)
        except ValueError:
            raise FormError("%s is not a coordinate of this space" % coord.name)
        return self.coefficients[idx]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coefficients)

    def __add__(self, other):
        if not isinstance(other, OneFormField):
            return NotImplemented
        self._check_same_space(other)
        return OneFormField(
            self.space,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other):
        if not isinstance(other, OneFormField):
            return NotImplemented
        self._check_same_space(other)
        return OneFormField(
            self.space,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __neg__(self):
        return OneFormField(self.space, tuple(-a for a in self.coefficients))

    def _check_same_space(self, other):
        if self.space.coordinates != other.space.coordinates:
            raise FormError("forms live on different spaces")

    def __eq__(self, other):
        if not isinstance(other, OneFormField):
            return NotImplemented
        return (
            self.space.coordinates == other.space.coordinates
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.space.coordinates, self.coefficients))

    def __str__(self):
        parts = []
        for coord, comp in zip(self.space.coordinates, self.coefficients):
            if comp.is_zero:
                continue
            sign, body = _coefficient_text(comp)
            if body == "1":
                parts.append((sign, "d%s" % coord.name))
            else:
                parts.append((sign, "%s d%s" % (body, coord.name)))
        return _join_terms(parts)

    def __repr__(self):
        return "OneFormField(%s)" % self


class TwoFormField(Immutable):
    """A 2-form stored by its independent coefficients ω_{ij}, i < j.

    ``upper[i][j - i - 1]`` holds ω_{ij}: row i of the strict upper
    triangle has dim − i − 1 entries.  ω_{ji} = −ω_{ij} and the diagonal
    is zero, so antisymmetry holds by construction; the constructor
    checks only the shape.
    """

    __slots__ = ("space", "_upper")

    def __init__(self, space, upper):
        rows = tuple(tuple(map(Expression.of, row)) for row in upper)
        dim = space.dimension
        if len(rows) != dim or any(len(row) != dim - i - 1 for i, row in enumerate(rows)):
            raise FormError("a 2-form on a space of dimension %d needs %d upper-triangle "
                            "rows of lengths %d down to 0" % (dim, dim, dim - 1))
        self._init(space=space, _upper=rows)

    @classmethod
    def zero(cls, space) -> "TwoFormField":
        dim = space.dimension
        return cls(space, ((ZERO,) * (dim - i - 1) for i in range(dim)))

    @classmethod
    def from_upper_entries(cls, space, entries: Mapping[Tuple[Coordinate, Coordinate], Expression]):
        """Build from {(u, v): coeff} with u strictly before v."""
        coords = space.coordinates
        index = {c: i for i, c in enumerate(coords)}
        dim = space.dimension
        upper = [[ZERO] * (dim - i - 1) for i in range(dim)]
        for (u, v), coeff in entries.items():
            if u not in index or v not in index:
                raise FormError("entry (%s, %s) outside the space" % (u, v))
            i, j = index[u], index[v]
            if i >= j:
                raise FormError(
                    "from_upper_entries wants u strictly before v; got (%s, %s)"
                    % (u.name, v.name)
                )
            upper[i][j - i - 1] = coeff
        return cls(space, upper)

    def _coefficient(self, i: int, j: int) -> Expression:
        if i < j:
            return self._upper[i][j - i - 1]
        if i > j:
            return -self._upper[j][i - j - 1]
        return ZERO

    def entry(self, u: Coordinate, v: Coordinate) -> Expression:
        coords = self.space.coordinates
        try:
            i, j = coords.index(u), coords.index(v)
        except ValueError:
            raise FormError("(%s, %s) is not in this space" % (u.name, v.name))
        return self._coefficient(i, j)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for row in self._upper for c in row)

    def _pairs(self):
        """((u, v), ω_{uv}) for u before v, in coordinate order."""
        coords = self.space.coordinates
        for i, row in enumerate(self._upper):
            for v, comp in zip(coords[i + 1:], row):
                yield (coords[i], v), comp

    def upper_entries(self) -> Dict[Tuple[Coordinate, Coordinate], Expression]:
        """The independent coefficients {(u, v): coeff} for u before v,
        nonzero entries only, in coordinate order."""
        return {uv: comp for uv, comp in self._pairs() if not comp.is_zero}

    def __add__(self, other):
        if not isinstance(other, TwoFormField):
            return NotImplemented
        if self.space.coordinates != other.space.coordinates:
            raise FormError("forms live on different spaces")
        return TwoFormField(
            self.space,
            (
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self._upper, other._upper)
            ),
        )

    def __neg__(self):
        return TwoFormField(self.space, (tuple(-a for a in row) for row in self._upper))

    def __sub__(self, other):
        if not isinstance(other, TwoFormField):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, TwoFormField):
            return NotImplemented
        return (
            self.space.coordinates == other.space.coordinates
            and self._upper == other._upper
        )

    def __hash__(self):
        return hash((self.space.coordinates, self._upper))

    def __str__(self):
        parts = []
        for (u, v), comp in self._pairs():
            if comp.is_zero:
                continue
            sign, body = _coefficient_text(comp)
            pair = "d%s∧d%s" % (u.name, v.name)
            if body == "1":
                parts.append((sign, pair))
            else:
                parts.append((sign, "%s %s" % (body, pair)))
        return _join_terms(parts)

    def __repr__(self):
        return "TwoFormField(%s)" % self


# ---------------------------------------------------------------------------
# exterior calculus


def differential(e: Expression, space) -> OneFormField:
    """d of a function: coefficients ∂e/∂u over the space's coordinates."""
    e = Expression.of(e)
    return OneFormField(space, tuple(e.diff(u) for u in space.coordinates))


def exterior_derivative(theta: OneFormField) -> TwoFormField:
    """(dθ)_{uv} = ∂θ_v/∂u − ∂θ_u/∂v."""
    coords, th = theta.space.coordinates, theta.coefficients
    dim = len(coords)
    return TwoFormField(
        theta.space,
        (
            [th[j].diff(coords[i]) - th[i].diff(coords[j]) for j in range(i + 1, dim)]
            for i in range(dim)
        ),
    )


def three_form_coefficients(omega: TwoFormField) -> Dict[Tuple[Coordinate, Coordinate, Coordinate], Expression]:
    """The independent coefficients of dω, keyed by ordered triples.

    (dω)_{uvw} = ∂ω_{vw}/∂u − ∂ω_{uw}/∂v + ∂ω_{uv}/∂w; all triples are
    returned (zero or not) so that d∘d == 0 is checkable entry by entry.
    """
    coords = omega.space.coordinates
    out = {}
    for i, u in enumerate(coords):
        for j in range(i + 1, len(coords)):
            v = coords[j]
            for k in range(j + 1, len(coords)):
                w = coords[k]
                out[(u, v, w)] = (
                    omega._coefficient(j, k).diff(u)
                    - omega._coefficient(i, k).diff(v)
                    + omega._coefficient(i, j).diff(w)
                )
    return out


def wedge(a: OneFormField, b: OneFormField) -> TwoFormField:
    """(a ∧ b)_{uv} = a_u b_v − a_v b_u."""
    if a.space.coordinates != b.space.coordinates:
        raise FormError("forms live on different spaces")
    ac, bc = a.coefficients, b.coefficients
    dim = len(ac)
    return TwoFormField(
        a.space,
        ([ac[i] * bc[j] - ac[j] * bc[i] for j in range(i + 1, dim)] for i in range(dim)),
    )


def contract(X: VectorField, omega: TwoFormField) -> OneFormField:
    """(i(X)ω)_v = Σ_u X^u ω_{uv}."""
    if X.space.coordinates != omega.space.coordinates:
        raise FormError("field and form live on different spaces")
    dim = len(omega.space.coordinates)
    coeffs = []
    for j in range(dim):
        total = ZERO
        for i in range(dim):
            entry = omega._coefficient(i, j)
            if not entry.is_zero:
                total = total + X.components[i] * entry
        coeffs.append(total)
    return OneFormField(omega.space, coeffs)


def pair(X: VectorField, theta: OneFormField) -> Expression:
    """The pairing θ(X) = Σ_u θ_u X^u."""
    if X.space.coordinates != theta.space.coordinates:
        raise FormError("field and form live on different spaces")
    total = ZERO
    for comp, coeff in zip(X.components, theta.coefficients):
        if not coeff.is_zero:
            total = total + comp * coeff
    return total


# ---------------------------------------------------------------------------
# maps and pullbacks


class CoordMap(Immutable):
    """A smooth map written as one source expression per target coordinate.

    ``images[w]`` is the expression for the target coordinate ``w`` in terms
    of the source coordinates; every target coordinate needs an image, and
    images may reference source coordinates and named constants only.
    """

    __slots__ = ("source", "target", "images", "_jacobian")

    def __init__(self, source, target, images: Mapping[Coordinate, Expression]):
        imgs = {}
        source_coords = set(source.coordinates)
        for w in target.coordinates:
            if w not in images:
                raise FormError("no image supplied for target coordinate %s" % w.name)
            img = Expression.of(images[w])
            stray = img.free_coordinates() - source_coords
            if stray:
                raise FormError(
                    "image of %s references non-source coordinates: %s"
                    % (w.name, ", ".join(sorted(c.name for c in stray)))
                )
            imgs[w] = img
        extra = set(images) - set(target.coordinates)
        if extra:
            raise FormError(
                "images supplied for coordinates outside the target: %s"
                % ", ".join(sorted(c.name for c in extra))
            )
        self._init(source=source, target=target, images=imgs, _jacobian=None)

    def jacobian(self) -> Dict[Tuple[Coordinate, Coordinate], Expression]:
        """{(w, u): ∂(image of w)/∂u}, computed once."""
        if self._jacobian is None:
            jac = {}
            for w in self.target.coordinates:
                img = self.images[w]
                for u in self.source.coordinates:
                    jac[(w, u)] = img.diff(u)
            object.__setattr__(self, "_jacobian", jac)
        return self._jacobian

    def pull_function(self, e: Expression) -> Expression:
        out = Expression.of(e).subs(self.images)
        stray = out.free_coordinates() - set(self.source.coordinates)
        if stray:
            raise FormError(
                "pullback still references non-source coordinates: %s"
                % ", ".join(sorted(c.name for c in stray))
            )
        return out

    def pull_oneform(self, theta: OneFormField) -> OneFormField:
        """(φ*θ)_u = Σ_w (θ_w ∘ φ) ∂φ^w/∂u, the terms added in target order.

        Each nonzero coefficient θ_w is pulled back once, and only its
        image φ^w is differentiated: a target coordinate whose coefficient
        is zero needs no Jacobian row.  So a semibasic θ, such as θ_L
        pulled back by a section, never differentiates the fiber images.
        """
        if theta.space.coordinates != self.target.coordinates:
            raise FormError("1-form does not live on the map's target")
        src = self.source.coordinates
        coeffs = [ZERO] * len(src)
        for w, coeff in zip(self.target.coordinates, theta.coefficients):
            if coeff.is_zero:
                continue
            pulled, image = self.pull_function(coeff), self.images[w]
            for i, u in enumerate(src):
                dwdu = image.diff(u)
                if not dwdu.is_zero:
                    coeffs[i] = coeffs[i] + pulled * dwdu
        return OneFormField(self.source, coeffs)

    def pull_twoform(self, omega: TwoFormField) -> TwoFormField:
        if omega.space.coordinates != self.target.coordinates:
            raise FormError("2-form does not live on the map's target")
        jac = self.jacobian()
        src = self.source.coordinates
        tgt = self.target.coordinates
        nonzero = [
            (a, b, self.pull_function(entry))
            for a, row in enumerate(omega._upper)
            for b, entry in enumerate(row, start=a + 1)
            if not entry.is_zero
        ]
        dim = len(src)
        upper = [[ZERO] * (dim - i - 1) for i in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                total = ZERO
                for a, b, entry in nonzero:
                    # ω_{ab} (da∧db applied to ∂i, ∂j) with a < b
                    block = jac[(tgt[a], src[i])] * jac[(tgt[b], src[j])] - jac[
                        (tgt[a], src[j])
                    ] * jac[(tgt[b], src[i])]
                    if not block.is_zero:
                        total = total + entry * block
                upper[i][j - i - 1] = total
        return TwoFormField(self.source, upper)
