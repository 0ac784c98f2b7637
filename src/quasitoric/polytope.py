"""Exact convex polytopes in half-space form.

A polytope is a finite intersection of half-spaces { mu : <mu, X_j> >= lambda_j }
with inward-pointing normals X_j and levels lambda_j in a fixed quadratic
field Q(sqrt D).  Every decision is exact, in Z[sqrt D] integers (`field._integer_rows`,
then the fraction-free `field._eliminate` that presentations and vertex charts also use);
only the vertex points become field elements, by `field._over`.  One scan over the
homogenized cone { (mu, t) : <mu, X_j> >= lambda_j t, t >= 0 } gives the vertices, its
extreme rays with t > 0, and boundedness: no extreme ray with t = 0 (Avis-Fukuda 1992;
Fukuda-Prodon 1996).  Affine dimensions are the ranks of the rows (point, 1), minus one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .field import (FieldElem, FieldMixError, KVector, _eliminate, _integer_rows, _make, _over,
                    _sign)


class DegenerateCutError(ValueError):
    """The cutting hyperplane does not meet the interior of the polytope."""


MAX_VERTEX_CANDIDATES = 50_000   # n-subsets of the d + 1 homogenized rows; about 2 s of work


def _kernel_line(rows: list, d: int) -> Optional[list]:
    """A kernel vector of a k x (k+1) matrix of rank k over Z[sqrt d], else None.

    Entries are pairs (p, q) = p + q*sqrt(d).  Read off `_eliminate`: pivot row
    i gives y[c_i] = -m[i][f] with y[f] = delta at the one free column f.
    """
    m, pivots, delta = _eliminate(rows, d)
    if len(pivots) < len(rows):
        return None
    f = next((c for c, p in enumerate(pivots) if c != p), len(pivots))   # the free column
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
    """More than MAX_VERTEX_CANDIDATES row subsets; args: (candidates, budget)."""


@dataclass(frozen=True)
class HalfSpace:
    """One inequality <mu, normal> >= level."""

    normal: KVector
    level: FieldElem

    def __post_init__(self) -> None:
        if self.normal.is_zero():
            raise ValueError("half-space normal must be nonzero")
        if self.level.d != self.normal.d:
            raise FieldMixError(f"level in D={self.level.d}, normal in D={self.normal.d}")

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
        if not halfspaces:
            raise ValueError("a polytope needs at least one half-space")
        for h in halfspaces:
            if len(h.normal) != dim:
                raise ValueError("normal dimension mismatch")
            if h.normal.d != halfspaces[0].normal.d:
                raise FieldMixError("half-spaces from different fields")
        self.dim = dim
        self.halfspaces = tuple(halfspaces)
        self._scanned: Optional[tuple[tuple[VertexData, ...], bool]] = None   # vertices, bounded
        self._irredundant = False   # True when proved by drop_redundant
        self._validation: Optional[ValidationReport] = None

    @property
    def d(self) -> int:
        return len(self.halfspaces)

    @property
    def field_d(self) -> int:
        return self.halfspaces[0].normal.d

    # -- the scan: vertices and boundedness ---------------------------------------

    def _scan(self) -> tuple[tuple[VertexData, ...], bool]:
        """(vertices sorted by coordinates, bounded) from the kernel lines (N, t) of the
        n-subsets of the facet rows (X_j, -lambda_j) and the row (0, ..., 0, 1).

        t != 0: N/t is a vertex if every slack is >= 0.  With the last row the line
        is (N, 0), N spanning the kernel of the other n - 1 normals: N or -N is a
        recession ray unless the normals take both signs on it; others with t = 0
        repeat such a line.
        """
        if self._scanned is not None:
            return self._scanned
        n, d = self.dim, self.field_d
        candidates = math.comb(self.d + 1, n)   # C(d, n) + C(d, n - 1)
        if candidates > MAX_VERTEX_CANDIDATES:
            raise VertexBudgetError(candidates, MAX_VERTEX_CANDIDATES)
        facets = _integer_rows([*h.normal, -h.level] for h in self.halfspaces)
        normals = [row[:n] for row in facets]
        bounded = len(_eliminate(normals, d)[1]) == n   # else the cone holds a line
        seen: dict[tuple[int, ...], VertexData] = {}
        for subset in itertools.combinations(range(self.d + 1), n):
            if subset[-1] == self.d:   # the last row: eliminate the n - 1 normals alone
                y = _kernel_line([normals[j] for j in subset[:-1]], d) if bounded else None
                if y is not None:
                    signs = (s for s in (_dot_sign(x, y, d) for x in normals) if s)
                    bounded = -next(signs, 0) in signs
                continue
            y = _kernel_line([facets[j] for j in subset], d)
            if y is None or (t := _sign(*y[n], d)) == 0:
                continue  # rank-deficient subset, or t = 0
            if t < 0:
                y = [(-p, -q) for p, q in y]   # delta > 0, so slack signs read directly
            active = []
            for j, row in enumerate(facets):
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
                point = KVector([_over(x, y[n], d) for x in y[:n]], d)   # x_i = N_i / t
                seen[key] = VertexData(point, key)
        verts = tuple(sorted(seen.values(), key=lambda v: tuple(v.point)))  # exact order
        self._scanned = verts, bounded
        return self._scanned

    def vertices(self) -> tuple[VertexData, ...]:
        """All vertices, deduplicated exactly and sorted by coordinates."""
        return self._scan()[0]

    # -- validation --------------------------------------------------------------

    def is_bounded(self) -> bool:
        """Recession cone == {0}: no recession ray among the scan's kernel lines."""
        return self._scan()[1]

    def _affine_dim(self, verts: Sequence[VertexData]) -> int:
        """Affine dimension of the vertices' points (-1 if none)."""
        rows = _integer_rows([*v.point, _make(1, 0, 1, self.field_d)] for v in verts)
        return len(_eliminate(rows, self.field_d)[1]) - 1

    def _facet_contact_dim(self, j: int) -> int:
        """Affine dimension of the set of vertices lying on facet j (-1 if none)."""
        return self._affine_dim([v for v in self.vertices() if j in v.active_facets])

    def validate(self) -> ValidationReport:
        if self._validation is None:
            self._validation = self._validate()
        return self._validation

    def _validate(self) -> ValidationReport:
        if not self.is_bounded():
            return ValidationReport(False, False, False, False, 0)
        verts = self.vertices()   # with none, every field but bounded reads False
        full_dim = self._affine_dim(verts) == self.dim
        irredundant = self._irredundant or all(self._facet_contact_dim(j) == self.dim - 1
                                               for j in range(self.d))
        simple = bool(verts) and all(len(v.active_facets) == self.dim for v in verts)
        return ValidationReport(True, full_dim, irredundant, simple, len(verts))

    # -- cutting -------------------------------------------------------------------

    def drop_redundant(self) -> tuple["PolytopeH", list[int]]:
        """Remove half-spaces not supporting a facet; keeps the original order.

        Returns the trimmed polytope and the kept original facet indices.  Only a
        bounded full-dimensional polytope (as a cut half of one is) is trimmed,
        else ValueError; the trimmed one is the same set, so it inherits this scan
        (vertices renumbered), irredundant.
        """
        verts, bounded = self._scan()
        if not bounded or self._affine_dim(verts) != self.dim:
            raise ValueError("only a bounded full-dimensional polytope can be trimmed")
        keep = [j for j in range(self.d) if self._facet_contact_dim(j) == self.dim - 1]
        trimmed = PolytopeH(self.dim, [self.halfspaces[j] for j in keep])
        renumber = {j: i for i, j in enumerate(keep)}
        trimmed._scanned, trimmed._irredundant = (tuple(
            VertexData(v.point, tuple(renumber[j] for j in v.active_facets if j in renumber))
            for v in verts), bounded), True
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
    out: list = []
    for cut_facet in (HalfSpace(normal, level), HalfSpace(-normal, -level)):
        half, keep = PolytopeH(p.dim, [*p.halfspaces, cut_facet]).drop_redundant()
        out += [half, [j if j < p.d else -1 for j in keep]]
    return tuple(out)


def cut(p: PolytopeH, normal: KVector, level: FieldElem) -> tuple[PolytopeH, PolytopeH]:
    plus, _, minus, _ = cut_with_maps(p, normal, level)
    return plus, minus
