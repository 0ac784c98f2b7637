"""Exact convex polytopes in half-space form.

A polytope is a finite intersection of half-spaces { mu : <mu, X_j> >= lambda_j }
with inward-pointing normals X_j and levels lambda_j in a fixed quadratic
field Q(sqrt D).  Every decision is exact, in Z[sqrt D]: each row (X_j, -lambda_j)
is scaled by the positive lcm of its denominators (`field._integer_rows`), and
the fraction-free elimination that `KMatrix` also uses (`field._eliminate`)
gives each n-subset's point as numerators N over a determinant delta; facet
j's slack has the sign of (<X_j, N> - lambda_j*delta) * delta.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .field import FieldElem, KMatrix, KVector, _eliminate, _integer_rows, _make, _sign


class DegenerateCutError(ValueError):
    """The cutting hyperplane does not meet the interior of the polytope."""


MAX_VERTEX_CANDIDATES = 50_000   # n- and (n-1)-subsets of facets tried; about 2 s of work


def _kernel_line(rows: list, d: int, free_last: bool = False) -> Optional[list]:
    """A kernel vector of a k x (k+1) matrix of rank k over Z[sqrt d], else None.

    Entries are pairs (p, q) = p + q*sqrt(d).  Read off `_eliminate`: pivot row
    i gives y[c_i] = -m[i][f] with y[f] = delta at the one free column f.  None
    at a second free column, or with `free_last` at a free column before the last.
    """
    m, pivots, delta = _eliminate(rows, d)
    f = next((c for c, p in enumerate(pivots) if c != p), len(pivots))   # first free column
    if len(pivots) < len(rows) or (free_last and f < len(rows)):
        return None
    y = [(-p, -q) for p, q in (mi[f] for mi in m)]   # in column order, skipping f
    y.insert(f, delta)
    return y


def _dot_sign(row: list[tuple[int, int]], y: list[tuple[int, int]], d: int) -> int:
    """Exact sign of the dot product of two vectors over Z[sqrt d]."""
    sp = sq = 0
    for (a, b), (x, z) in zip(row, y):
        sp += a * x + b * z * d
        sq += a * z + b * x
    return _sign(sp, sq, d)


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
        self._irredundant = False   # True when proved by drop_redundant
        self._validation: Optional[ValidationReport] = None

    @property
    def d(self) -> int:
        return len(self.halfspaces)

    @property
    def field_d(self) -> int:
        return self.halfspaces[0].normal.d

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
        n, d = self.dim, self.field_d
        rows = _integer_rows([*h.normal, -h.level] for h in self.halfspaces)
        seen: dict[tuple[int, ...], VertexData] = {}
        for subset in itertools.combinations(range(self.d), n):
            y = _kernel_line([rows[j] for j in subset], d, free_last=True)
            if y is None:
                continue  # rank-deficient subset: no unique intersection point
            if _sign(*y[n], d) < 0:
                y = [(-p, -q) for p, q in y]   # delta > 0, so slack signs read directly
            active = []
            for j, row in enumerate(rows):
                s = _dot_sign(row, y, d)
                if s < 0:
                    break   # infeasible
                if s == 0:
                    active.append(j)
            else:
                key = tuple(active)
                if key in seen:
                    continue
                if not set(subset) <= set(key):
                    raise ArithmeticError(f"subset {subset} not active at its own point")
                (c, e), norm = y[n], y[n][0] ** 2 - y[n][1] ** 2 * d   # x_i = N_i / delta
                point = KVector([_make(x * c - z * e * d, z * c - x * e, norm, d)
                                 for x, z in y[:n]], d)
                seen[key] = VertexData(point, key)
        self._vertices = tuple(sorted(seen.values(), key=lambda v: tuple(v.point)))  # exact order
        return self._vertices

    # -- validation --------------------------------------------------------------

    def is_bounded(self) -> bool:
        """Recession cone == {0}, decided by enumerating candidate extreme rays."""
        self._check_budget()
        d, rows = self.field_d, _integer_rows(h.normal for h in self.halfspaces)
        if len(_eliminate(rows, d)[1]) < self.dim:
            return False  # the cone contains a line
        for subset in itertools.combinations(range(self.d), self.dim - 1):
            y = _kernel_line([rows[j] for j in subset], d)
            if y is None:
                continue  # not an extreme-ray candidate
            signs = (s for s in (_dot_sign(row, y, d) for row in rows) if s)
            if -next(signs, 0) not in signs:
                return False  # y or -y is a ray of the recession cone
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
        irredundant = self._irredundant or all(self._facet_contact_dim(j) == self.dim - 1
                                               for j in range(self.d))
        simple = all(len(v.active_facets) == self.dim for v in verts)
        return ValidationReport(bounded, full_dim, irredundant, simple, len(verts))

    # -- cutting -------------------------------------------------------------------

    def drop_redundant(self) -> tuple["PolytopeH", list[int]]:
        """Remove half-spaces not supporting a facet; keeps the original order.

        Returns the trimmed polytope and the kept original facet indices.  For a
        bounded full-dimensional polytope (as a cut half of one is) the trimmed
        one is the same set, irredundant, with these vertices, facets renumbered.
        """
        keep = [j for j in range(self.d)
                if self._facet_contact_dim(j) == self.dim - 1]
        trimmed = PolytopeH(self.dim, [self.halfspaces[j] for j in keep])
        trimmed._irredundant = True
        renumber = {j: i for i, j in enumerate(keep)}
        trimmed._vertices = tuple(
            VertexData(v.point, tuple(renumber[j] for j in v.active_facets if j in renumber))
            for v in self.vertices())
        return trimmed, keep


def cut_with_maps(p: PolytopeH, normal: KVector, level: FieldElem,
                  ) -> tuple[PolytopeH, list[int], PolytopeH, list[int]]:
    """Cut along <mu, normal> = level; returns both halves with facet maps.

    Each returned index list maps the half's facets back to facets of `p`,
    with -1 standing for the new cut facet (always appended last).  The
    hyperplane must separate two vertices strictly; passing through further
    vertices is allowed.  `p` must be bounded and full-dimensional.
    """
    if not (p.validate().bounded and p.validate().full_dim):
        raise ValueError("only a bounded full-dimensional polytope can be cut")
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
