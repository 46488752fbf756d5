"""Rate-region evaluation: weighted-rate bounds at fixed inputs and the
polytopes they carve out.

Bound templates live in a bundled data file so they can be audited as data;
each is a rate-coefficient vector plus a sum of conditional output entropies
H(Y_i | V-subset) evaluated on the base channel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Iterable, Sequence

from .channels import DeterministicChannel
from .entropy import SourceDistribution, base_terms
from .errors import DicboundError
from .sampling import region_distribution_stream

CONTAINS_TOL = 1e-9


@dataclass(frozen=True)
class BoundTerm:
    mult: int
    y_user: int
    given: tuple[int, ...]

    @property
    def key(self) -> tuple[int, frozenset[int]]:
        """The base term H(Y_u | V_A) this entry counts, keyed (u, A)."""
        return self.y_user, frozenset(self.given)


@dataclass(frozen=True)
class BoundTemplate:
    """One weighted-rate bound: sum_i rates[i] * R_i <= sum of entropy terms."""

    id: str
    rates: tuple[int, ...]
    terms: tuple[BoundTerm, ...]

    @property
    def user_count(self) -> int:
        return len(self.rates)


def _template_from_dict(data: dict) -> BoundTemplate:
    terms = tuple(
        BoundTerm(mult=t.get("mult", 1), y_user=t["y"], given=tuple(sorted(t["given"])))
        for t in data["terms"]
    )
    return BoundTemplate(id=data["id"], rates=tuple(data["rates"]), terms=terms)


@cache
def load_templates(user_count: int) -> tuple[BoundTemplate, ...]:
    """The bundled templates for 2 or 3 users, parsed once per process."""
    raw = json.loads(resources.files("dicbound.data").joinpath("templates.json").read_text())
    key = {2: "two_user", 3: "three_user"}.get(user_count)
    if key is None:
        raise DicboundError(f"no bound templates for user_count={user_count}")
    return tuple(_template_from_dict(d) for d in raw[key])


def template_by_id(bound_id: str) -> BoundTemplate:
    for user_count in (2, 3):
        for t in load_templates(user_count):
            if t.id == bound_id:
                return t
    raise DicboundError(f"unknown bound id {bound_id!r}")


class BoundVector:
    """Evaluated right-hand sides, keyed by template id, in template order."""

    def __init__(self, entries: Sequence[tuple[str, float]]):
        self.entries = tuple(entries)
        self._by_id = dict(self.entries)

    def __getitem__(self, bound_id: str) -> float:
        return self._by_id[bound_id]

    def __iter__(self):
        return iter(self.entries)

    def ids(self):
        return tuple(i for i, _ in self.entries)

    def values(self):
        return tuple(v for _, v in self.entries)


def bound_vector(
    channel: DeterministicChannel,
    dist: SourceDistribution,
    templates: Sequence[BoundTemplate] | None = None,
) -> BoundVector:
    """Evaluate every template at the given product input distribution."""
    if templates is None:
        templates = load_templates(channel.user_count)
    for t in templates:
        if t.user_count != channel.user_count:
            raise DicboundError(f"template {t.id} is for {t.user_count} users")
    values = base_terms(channel, dist, (term.key for t in templates for term in t.terms))
    entries = []
    for t in templates:
        total = 0.0
        for term in t.terms:
            total += term.mult * values[term.key]
        entries.append((t.id, total))
    return BoundVector(entries)


@dataclass(frozen=True)
class RegionPolytope:
    """Halfspaces sum_i coeffs[i] * R_i <= rhs, plus R_i >= 0.

    Bounded by construction: every rate must get a positive coefficient
    somewhere (with non-negative rates that caps each coordinate).
    """

    dimension: int
    halfspaces: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise DicboundError("rate regions are 2- or 3-dimensional")
        for coeffs, rhs in self.halfspaces:
            if len(coeffs) != self.dimension:
                raise DicboundError("halfspace dimension mismatch")
            if rhs < 0:
                raise DicboundError("halfspace right-hand sides must be non-negative")
        for i in range(self.dimension):
            if not any(coeffs[i] > 0 for coeffs, _ in self.halfspaces):
                raise DicboundError(f"rate {i + 1} is unbounded in this halfspace list")


def region_polytope(bounds: BoundVector, templates: Sequence[BoundTemplate]) -> RegionPolytope:
    if tuple(t.id for t in templates) != bounds.ids():
        raise DicboundError("templates and bound vector are not aligned")
    dimension = templates[0].user_count
    halfspaces = tuple((t.rates, bounds[t.id]) for t in templates)
    return RegionPolytope(dimension=dimension, halfspaces=halfspaces)


def contains(polytope: RegionPolytope, point: Sequence[float], tol: float = CONTAINS_TOL) -> bool:
    if len(point) != polytope.dimension:
        raise DicboundError("point dimension mismatch")
    if any(r < -tol for r in point):
        return False
    for coeffs, rhs in polytope.halfspaces:
        if sum(c * r for c, r in zip(coeffs, point)) > rhs + tol:
            return False
    return True


def permute_templates(
    templates: Sequence[BoundTemplate], permutation: Sequence[int]
) -> tuple[BoundTemplate, ...]:
    """Relabel users: permutation maps user i (1-based) to permutation[i-1]."""
    n = len(permutation)
    if sorted(permutation) != list(range(1, n + 1)):
        raise DicboundError(f"{permutation} is not a permutation of 1..{n}")
    out = []
    for t in templates:
        if t.user_count != n:
            raise DicboundError(f"template {t.id} has {t.user_count} users, permutation has {n}")
        rates = [0] * n
        for i, c in enumerate(t.rates, start=1):
            rates[permutation[i - 1] - 1] = c
        terms = tuple(
            BoundTerm(
                mult=term.mult,
                y_user=permutation[term.y_user - 1],
                given=tuple(sorted(permutation[u - 1] for u in term.given)),
            )
            for term in t.terms
        )
        out.append(BoundTemplate(id=t.id, rates=tuple(rates), terms=terms))
    return tuple(out)


class RegionFamily:
    """Union of sampled polytopes with a membership query (inner approximation)."""

    def __init__(self, polytopes: Sequence[RegionPolytope]):
        if not polytopes:
            raise DicboundError("a region family needs at least one polytope")
        self.polytopes = tuple(polytopes)
        self.dimension = self.polytopes[0].dimension

    def contains(self, point: Sequence[float], tol: float = CONTAINS_TOL) -> bool:
        return any(contains(p, point, tol) for p in self.polytopes)


def sample_region(
    channel: DeterministicChannel,
    sampler_seed: int,
    n_samples: int,
    templates: Sequence[BoundTemplate] | None = None,
) -> RegionFamily:
    """Region family over the deterministic distribution sweep.

    The sweep starts at the uniform distribution, then point masses, then
    seeded per-source Dirichlet draws, so n_samples=1 is the uniform region.
    """
    if n_samples < 1:
        raise DicboundError("n_samples must be >= 1")
    if templates is None:
        templates = load_templates(channel.user_count)
    stream = region_distribution_stream(channel.input_sizes, sampler_seed)
    polytopes = []
    for _ in range(n_samples):
        dist = next(stream)
        polytopes.append(region_polytope(bound_vector(channel, dist, templates), templates))
    return RegionFamily(polytopes)


# -- 2-D rendering -------------------------------------------------------------


def _polytope_vertices_2d(polytope: RegionPolytope) -> list[tuple[float, float]]:
    lines = [(float(a), float(b), float(rhs)) for (a, b), rhs in polytope.halfspaces]
    lines += [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    pts = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1, c1 = lines[i]
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if all(a * x + b * y <= c + 1e-9 for a, b, c in lines):
                pts.append((x, y))
    if not pts:
        return []
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts = sorted(set((round(x, 9), round(y, 9)) for x, y in pts))
    pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return pts


def render_region_svg(polytopes: Iterable[RegionPolytope], size: int = 420) -> str:
    """Static SVG outline of one or more 2-D region polytopes."""
    polys = list(polytopes)
    if any(p.dimension != 2 for p in polys):
        raise DicboundError("SVG rendering is only available for 2-user regions")
    hulls = [_polytope_vertices_2d(p) for p in polys]
    extent = max((max(max(x, y) for x, y in h) for h in hulls if h), default=1.0)
    extent = max(extent, 1e-9) * 1.15
    margin = 34
    scale = (size - 2 * margin) / extent

    def sx(x):
        return margin + x * scale

    def sy(y):
        return size - margin - y * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{margin}" y2="{margin}" stroke="black"/>',
        f'<text x="{size - margin}" y="{size - margin + 16}" font-size="11" text-anchor="end">R1 (bits)</text>',
        f'<text x="{margin - 26}" y="{margin + 4}" font-size="11">R2</text>',
    ]
    for hull in hulls:
        if not hull:
            continue
        points = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in hull)
        parts.append(
            f'<polygon points="{points}" fill="#4477aa" fill-opacity="0.12" '
            f'stroke="#224466" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
