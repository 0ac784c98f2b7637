"""Exact convex polytopes in half-space form.

A polytope is a finite intersection of half-spaces { mu : <mu, X_j> >= lambda_j }
with inward-pointing normals X_j and levels lambda_j in a fixed quadratic
field.  Vertex enumeration solves every n-subset of facet equations exactly;
all feasibility and degeneracy decisions are bit-exact (no tolerances).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .field import FieldElem, KMatrix, KVector


class DegenerateCutError(ValueError):
    """The cutting hyperplane does not meet the interior of the polytope."""


MAX_VERTEX_CANDIDATES = 50_000   # n- and (n-1)-subsets of facets tried; about 7 s of work


class VertexBudgetError(ValueError):
    """More than MAX_VERTEX_CANDIDATES facet subsets; args: (candidates, budget)."""


@dataclass(frozen=True)
class HalfSpace:
    """One inequality <mu, normal> >= level."""

    normal: KVector
    level: FieldElem

    def __post_init__(self) -> None:
        if self.normal.is_zero():
            raise ValueError("half-space normal must be nonzero")

    def slack(self, point: KVector) -> FieldElem:
        return self.normal.dot(point) - self.level


@dataclass(frozen=True)
class VertexData:
    point: KVector
    active_facets: tuple[int, ...]  # sorted facet indices where equality holds


@dataclass(frozen=True)
class ValidationReport:
    bounded: bool
    full_dim: bool
    irredundant_facets: bool
    simple: bool
    vertex_count: int

    @property
    def valid(self) -> bool:
        return self.bounded and self.full_dim and self.irredundant_facets


class PolytopeH:
    """Polytope given by an ordered list of half-spaces (index = facet index)."""

    def __init__(self, dim: int, halfspaces: Sequence[HalfSpace]) -> None:
        if dim < 1:
            raise ValueError("dimension must be positive")
        for h in halfspaces:
            if len(h.normal) != dim:
                raise ValueError("normal dimension mismatch")
        self.dim = dim
        self.halfspaces = tuple(halfspaces)
        self._vertices: Optional[tuple[VertexData, ...]] = None
        self._validation: Optional[ValidationReport] = None

    @property
    def d(self) -> int:
        return len(self.halfspaces)

    @property
    def field_d(self) -> int:
        return self.halfspaces[0].normal.d

    def contains(self, point: KVector) -> bool:
        return all(h.slack(point).sign() >= 0 for h in self.halfspaces)

    def active_set(self, point: KVector) -> tuple[int, ...]:
        return tuple(j for j, h in enumerate(self.halfspaces)
                     if h.slack(point).is_zero())

    def _check_budget(self) -> None:   # before `vertices` and `is_bounded` try any subset
        candidates = math.comb(self.d, self.dim) + math.comb(self.d, self.dim - 1)
        if candidates > MAX_VERTEX_CANDIDATES:
            raise VertexBudgetError(candidates, MAX_VERTEX_CANDIDATES)

    # -- vertex enumeration ----------------------------------------------------

    def vertices(self) -> tuple[VertexData, ...]:
        """All vertices, deduplicated exactly and sorted by coordinates."""
        if self._vertices is not None:
            return self._vertices
        self._check_budget()
        n = self.dim
        seen: dict[KVector, VertexData] = {}
        for subset in itertools.combinations(range(self.d), n):
            a = KMatrix.from_vectors([self.halfspaces[j].normal for j in subset])
            sol = a.solve(KVector([self.halfspaces[j].level for j in subset],
                                  d=self.field_d))
            if sol is None or sol[1]:
                continue  # rank-deficient subset: no unique intersection point
            point = sol[0]
            if point in seen or not self.contains(point):
                continue
            seen[point] = VertexData(point, self.active_set(point))
        ordered = sorted(seen.values(), key=lambda v: tuple(v.point))  # exact value order
        self._vertices = tuple(ordered)
        return self._vertices

    # -- validation --------------------------------------------------------------

    def is_bounded(self) -> bool:
        """Recession cone == {0}, decided by enumerating candidate extreme rays."""
        self._check_budget()
        normals = KMatrix.from_vectors([h.normal for h in self.halfspaces])
        if normals.rank() < self.dim:
            return False  # the cone contains a line
        for subset in itertools.combinations(range(self.d), self.dim - 1):
            sub = KMatrix.from_vectors([self.halfspaces[j].normal for j in subset],
                                       ncols=self.dim, d=self.field_d)
            rays = sub.kernel_basis()
            if len(rays) != 1:
                continue  # not an extreme-ray candidate
            for y in (rays[0], -rays[0]):
                if all(h.normal.dot(y).sign() >= 0 for h in self.halfspaces):
                    return False
        return True

    def _facet_contact_dim(self, j: int) -> int:
        """Affine dimension of the set of vertices lying on facet j (-1 if none)."""
        pts = [v.point for v in self.vertices() if j in v.active_facets]
        if not pts:
            return -1
        diffs = [p - pts[0] for p in pts[1:]]
        if not diffs:
            return 0
        return KMatrix.from_vectors(diffs).rank()

    def validate(self) -> ValidationReport:
        if self._validation is not None:
            return self._validation
        self._validation = self._validate()
        return self._validation

    def _validate(self) -> ValidationReport:
        bounded = self.is_bounded()
        if not bounded:
            return ValidationReport(False, False, False, False, 0)
        verts = self.vertices()
        if not verts:
            return ValidationReport(True, False, False, False, 0)
        diffs = [v.point - verts[0].point for v in verts[1:]]
        full_dim = bool(diffs) and KMatrix.from_vectors(diffs).rank() == self.dim
        irredundant = all(self._facet_contact_dim(j) == self.dim - 1
                          for j in range(self.d))
        simple = all(len(v.active_facets) == self.dim for v in verts)
        return ValidationReport(bounded, full_dim, irredundant, simple, len(verts))

    # -- cutting -------------------------------------------------------------------

    def drop_redundant(self) -> tuple["PolytopeH", list[int]]:
        """Remove half-spaces not supporting a facet; keeps the original order.

        Returns the trimmed polytope and the kept original facet indices.
        """
        keep = [j for j in range(self.d)
                if self._facet_contact_dim(j) == self.dim - 1]
        trimmed = PolytopeH(self.dim, [self.halfspaces[j] for j in keep])
        return trimmed, keep


def cut_with_maps(p: PolytopeH, normal: KVector, level: FieldElem,
                  ) -> tuple[PolytopeH, list[int], PolytopeH, list[int]]:
    """Cut along <mu, normal> = level; returns both halves with facet maps.

    Each returned index list maps the half's facets back to facets of `p`,
    with -1 standing for the new cut facet (always appended last).  The
    hyperplane must separate two vertices strictly; passing through further
    vertices is allowed.
    """
    signs = [(normal.dot(v.point) - level).sign() for v in p.vertices()]
    if not any(s > 0 for s in signs) or not any(s < 0 for s in signs):
        raise DegenerateCutError("degenerate cut: hyperplane misses the interior")
    plus_raw = PolytopeH(p.dim, list(p.halfspaces) + [HalfSpace(normal, level)])
    minus_raw = PolytopeH(p.dim, list(p.halfspaces) + [HalfSpace(-normal, -level)])
    plus, keep_p = plus_raw.drop_redundant()
    minus, keep_m = minus_raw.drop_redundant()

    def to_map(keep: list[int]) -> list[int]:
        return [j if j < p.d else -1 for j in keep]

    return plus, to_map(keep_p), minus, to_map(keep_m)


def cut(p: PolytopeH, normal: KVector, level: FieldElem) -> tuple[PolytopeH, PolytopeH]:
    plus, _, minus, _ = cut_with_maps(p, normal, level)
    return plus, minus
