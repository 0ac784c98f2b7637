"""Exact convex polytopes in half-space form.

A polytope is a finite intersection of half-spaces { mu : <mu, X_j> >= lambda_j }
with inward-pointing normals X_j and levels lambda_j in a fixed quadratic
field Q(sqrt D).  Every decision is exact, in Z[sqrt D] integers (`field._integer_rows`,
then the fraction-free `field._eliminate` that presentations and vertex charts also use);
only the vertex points become field elements, by `field._over`.  Double description of
the cone { (mu, t) : <mu, X_j> >= lambda_j t, t >= 0 } (Motzkin-Raiffa-Thompson-Thrall 1953;
Fukuda-Prodon 1996; rows t first, then the facets by index; at most MAX_RAYS rays held) gives
the vertices, its extreme rays with t > 0, and boundedness: no ray with t = 0.  Validation
and trimming compare the vertices' active facet sets (their zero sets) and solve nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .field import FieldElem, FieldMixError, KVector, _eliminate, _integer_rows, _over, _sign


class DegenerateCutError(ValueError):
    """The cutting hyperplane does not meet the interior of the polytope."""


MAX_RAYS = 5_000   # rays held at once; a row at the cap takes about 1.3 s (see README)


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


def _dot(row: list[tuple[int, int]], y: list[tuple[int, int]], d: int) -> tuple[int, int]:
    """The dot product of two vectors over Z[sqrt d], as a pair."""
    sp = sq = 0
    for (a, b), (x, z) in zip(row, y):
        sp += a * x + b * z * d
        sq += a * z + b * x
    return sp, sq


def _join(c: tuple[int, int], u: list, e: tuple[int, int], v: list, d: int) -> list:
    """c*u - e*v over Z[sqrt d], with the integer content divided out."""
    (c0, c1), (e0, e1) = c, e
    y = [(c0 * x + c1 * z * d - e0 * s - e1 * w * d, c0 * z + c1 * x - e0 * w - e1 * s)
         for (x, z), (s, w) in zip(u, v)]
    g = gcd(*(k for pair in y for k in pair))
    return [(p // g, q // g) for p, q in y]


class VertexBudgetError(ValueError):
    """More than MAX_RAYS rays held; args: (rays held, budget)."""


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
        self._validation: Optional[ValidationReport] = None

    @property
    def d(self) -> int:
        return len(self.halfspaces)

    @property
    def field_d(self) -> int:
        return self.halfspaces[0].normal.d

    # -- the scan: vertices and boundedness ---------------------------------------

    def _scan(self) -> tuple[tuple[VertexData, ...], bool]:
        """(vertices sorted by coordinates, bounded) by double description of the cone of
        the rows (X_j, -lambda_j), bit j of a zero set, and (0, ..., 0, 1), bit d.

        The first rays are the kernel lines of n of the first n + 1 independent rows (t,
        then the facets by index), each positive on the row left out.  Each further row,
        by index, keeps the rays it is >= 0 on and joins at its zero each adjacent pair it
        takes both signs on: two rays whose common zero set has n - 1 rows or more and
        lies in no third ray's.  A ray (N, t) is the vertex N/t if t > 0, else a recession ray.
        """
        if self._scanned is not None:
            return self._scanned
        n, d, order = self.dim, self.field_d, [self.d, *range(self.d)]
        rows = _integer_rows([*h.normal, -h.level] for h in self.halfspaces)
        rows.append([(0, 0)] * n + [(1, 0)])
        basis = [order[c] for c in _eliminate(list(zip(*(rows[j] for j in order))), d)[1]]
        pointed, rays = len(basis) > n, {}   # else the normals have rank < n: a line
        for j in basis if pointed else ():   # rays: zero set (a bitmask of rows) -> ray
            y = _kernel_line([rows[k] for k in basis if k != j], d)
            s = _sign(*_dot(rows[j], y, d), d)
            rays[sum(1 << k for k in basis if k != j)] = _join((s, 0), y, (0, 0), y, d)   # s*y
        for j in (k for k in order if k not in basis):
            kept, plus, minus, bit = {}, [], [], 1 << j
            for z, y in rays.items():
                dot = _dot(rows[j], y, d)
                s = _sign(*dot, d)
                if s >= 0:
                    kept[z | bit if s == 0 else z] = y
                (plus if s > 0 else minus if s < 0 else []).append((z, y, dot))
            for zp, yp, dp in plus:
                for zm, ym, dm in minus:
                    z = zp & zm
                    if z.bit_count() >= n - 1 and not any(z & w == z and w != zp and w != zm
                                                          for w in rays):
                        kept[z | bit] = _join(dp, ym, dm, yp, d)   # both weights > 0
                        if len(kept) > MAX_RAYS:
                            raise VertexBudgetError(len(kept), MAX_RAYS)
            rays = kept
        verts = sorted((VertexData(KVector([_over(x, y[n], d) for x in y[:n]], d),   # N_i / t
                                   tuple(j for j in range(self.d) if z >> j & 1))
                        for z, y in rays.items() if y[n] != (0, 0)), key=lambda v: tuple(v.point))
        self._scanned = tuple(verts), pointed and len(verts) == len(rays)
        return self._scanned

    def vertices(self) -> tuple[VertexData, ...]:
        """All vertices, deduplicated exactly and sorted by coordinates."""
        return self._scan()[0]

    # -- validation --------------------------------------------------------------

    def is_bounded(self) -> bool:
        """Recession cone == {0}: no ray with t = 0 among the scan's extreme rays."""
        return self._scan()[1]

    def _faces(self) -> tuple[bool, list[int]]:
        """(full_dim, the facets supporting a facet).  Bounded, it is the hull of its vertices:
        full-dimensional when it has one and no facet holds all (an implicit equality); facet
        j supports a facet when it holds some, strictly inside no other's (a maximal face)."""
        (verts, bounded), on = self._scan(), [0] * self.d   # on[j]: facet j's vertices, as bits
        for i, v in enumerate(verts):
            for j in v.active_facets:
                on[j] |= 1 << i
        full_dim = bounded and bool(verts) and (1 << len(verts)) - 1 not in on
        return full_dim, [j for j, s in enumerate(on) if s and not any(s & t == s != t for t in on)]

    def validate(self) -> ValidationReport:
        if self._validation is None:
            self._validation = self._validate()
        return self._validation

    def _validate(self) -> ValidationReport:
        if not self.is_bounded():
            return ValidationReport(False, False, False, False, 0)
        verts = self.vertices()   # with none, every field but bounded reads False
        full_dim, keep = self._faces()
        irredundant = (full_dim or self.dim == 1) and len(keep) == self.d   # n = 1: a point
        simple = bool(verts) and all(len(v.active_facets) == self.dim for v in verts)
        return ValidationReport(True, full_dim, irredundant, simple, len(verts))

    # -- cutting -------------------------------------------------------------------

    def drop_redundant(self) -> tuple["PolytopeH", list[int]]:
        """Remove half-spaces not supporting a facet; keeps the original order.

        Returns the trimmed polytope and the kept original facet indices.  Only a
        bounded full-dimensional polytope (as a cut half of one is) is trimmed, else
        ValueError; the trimmed one is the same set, so it inherits this scan.
        """
        (verts, bounded), (full_dim, keep) = self._scan(), self._faces()
        if not full_dim:
            raise ValueError("only a bounded full-dimensional polytope can be trimmed")
        trimmed = PolytopeH(self.dim, [self.halfspaces[j] for j in keep])
        renumber = {j: i for i, j in enumerate(keep)}
        trimmed._scanned = tuple(
            VertexData(v.point, tuple(renumber[j] for j in v.active_facets if j in renumber))
            for v in verts), bounded
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
