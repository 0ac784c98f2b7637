"""Exact Penrose substitution tilings over the cyclotomic integers Z[zeta_5].

Tile vertices are single ring elements (the plane is identified with C).  The
two substitution systems are carried by Robinson half-tiles:

  * mode "p2" (kite and dart): the dominant kind, here called ``acute``, is the
    half-kite (a golden triangle, apex 36 degrees); the recessive ``obtuse``
    kind is the half-dart (a gnomon, apex 108 degrees).
  * mode "p3" (rhombi): ``acute`` is the half of the thick rhombus (cut along
    its long diagonal, geometrically a gnomon) and ``obtuse`` is the half of
    the thin rhombus (cut along its short diagonal, a golden triangle).

In both modes one deflation step replaces each acute leaf by two acute and
one obtuse child and each obtuse leaf by one of each, all scaled by 1/phi.
Since phi is a unit of the ring, child coordinates stay integral after
multiplying through by phi once per level: a vertex stored at tree depth k
means (stored value) * phi^(-k).  Inflation removes tree levels, so it is an
exact inverse of deflation.

The substitution vertex maps are not taken on faith: once per translation
class, `deflate` checks the children's shapes, and `verify_patch` the shapes
and that the children tile the parent exactly, by directed-edge cancellation.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

from .field import FieldElem, _make

Kind = Literal["acute", "obtuse"]
Mode = Literal["p2", "p3"]


class Cyclo:
    """Element of Z[zeta], zeta = exp(2*pi*i/5), over the basis 1, z, z^2, z^3."""

    __slots__ = ("c",)

    def __init__(self, c0: int = 0, c1: int = 0, c2: int = 0, c3: int = 0) -> None:
        self.c = (c0, c1, c2, c3)

    @classmethod
    def zeta(cls, k: int = 1) -> "Cyclo":
        k %= 5
        if k == 4:
            return cls(-1, -1, -1, -1)
        c = [0, 0, 0, 0]
        c[k] = 1
        return cls(*c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cyclo) and self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __add__(self, other: "Cyclo") -> "Cyclo":
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return Cyclo(a0 + b0, a1 + b1, a2 + b2, a3 + b3)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return Cyclo(a0 - b0, a1 - b1, a2 - b2, a3 - b3)

    def __neg__(self) -> "Cyclo":
        return Cyclo(*(-a for a in self.c))

    def __mul__(self, other: "Cyclo | int") -> "Cyclo":
        a0, a1, a2, a3 = self.c
        if isinstance(other, int):
            return Cyclo(a0 * other, a1 * other, a2 * other, a3 * other)
        b0, b1, b2, b3 = other.c
        # coefficients of z^0..z^4 after z^5 = 1; then z^4 = -(1 + z + z^2 + z^3)
        k = a1 * b3 + a2 * b2 + a3 * b1
        return Cyclo(a0 * b0 + a2 * b3 + a3 * b2 - k,
                     a0 * b1 + a1 * b0 + a3 * b3 - k,
                     a0 * b2 + a1 * b1 + a2 * b0 - k,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - k)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclo":
        a0, a1, a2, a3 = self.c
        # zeta^k -> zeta^(5-k)
        return Cyclo(a0 - a1, -a1, a3 - a1, a2 - a1)

    def is_zero(self) -> bool:
        return self.c == (0, 0, 0, 0)

    def real(self) -> FieldElem:
        """Exact real part, an element of Q(sqrt(5))."""
        a0, a1, a2, a3 = self.c
        return _make(4 * a0 - a1 - a2 - a3, a1 - a2 - a3, 4, 5)

    def imag_scaled(self) -> FieldElem:
        """Im(self) / sin(72 deg / phi scale): exactly a1*phi + a2 - a3.

        The true imaginary part is this value times sin(36 deg) > 0, so signs
        and collinearity read off this projection exactly.
        """
        a0, a1, a2, a3 = self.c
        return _make(2 * (a2 - a3) + a1, a1, 2, 5)

    def abs_squared(self) -> "Cyclo":
        """self * conj(self), a real element of the ring."""
        prod = self * self.conjugate()
        _, c1, c2, c3 = prod.c
        assert c1 == 0 and c2 == c3   # imag_scaled() == 0, in integers
        return prod

    def norm_squared(self) -> FieldElem:
        return self.abs_squared().real()

    def to_complex(self) -> complex:
        return sum(a * zk for a, zk in zip(self.c, _ZETA_POWERS))

    def __repr__(self) -> str:
        return f"Cyclo{self.c}"


_ZETA = cmath.exp(2j * cmath.pi / 5)
_ZETA_POWERS = tuple(_ZETA ** k for k in range(4))   # floats of the basis 1, z, z^2, z^3

PHI_C = Cyclo(0, 0, -1, -1)       # the golden ratio as a ring element
ONE_C = Cyclo(1)
ROT36 = -Cyclo.zeta(3)            # exp(i*pi/5), rotation by 36 degrees
PHI2_C = PHI_C * PHI_C            # phi^2 = phi + 1


def cross_sign(o: Cyclo, u: Cyclo, v: Cyclo) -> int:
    """Sign of the signed area of triangle (o, u, v), exact."""
    a, b = u - o, v - o
    val = a.real() * b.imag_scaled() - a.imag_scaled() * b.real()
    return val.sign()


@dataclass(slots=True, unsafe_hash=True)   # not frozen: a frozen __init__ costs 1 us
class HalfTile:
    """A Robinson half-tile: apex vertex first, then the two base vertices.

    Chirality is carried by vertex orientation; the mirror image of a tile is
    the same triple with swapped base vertices.  The edge gluing a half-tile
    to its mirror mate inside a whole tile is apex -> vertices[2] in mode p2
    (the kite/dart symmetry axis) and vertices[1] -> vertices[2] in mode p3
    (the cut diagonal of the rhombus).
    """

    kind: Kind
    vertices: tuple[Cyclo, Cyclo, Cyclo]

    def check_shape(self, mode: Mode) -> None:
        """Isosceles with nonzero legs and the base/leg ratio dictated by
        (mode, kind).

        Squared lengths are compared in the ring: 1, z, z^2, z^3 is a
        Z-basis, so equal values have equal coefficient tuples.  Only the
        differences b1 - a and b2 - a are read.
        """
        a, b1, b2 = self.vertices
        l1 = (b1 - a).abs_squared()
        if l1.c != (b2 - a).abs_squared().c:
            raise ValueError(f"{self.kind} half-tile is not isosceles")
        if l1.is_zero():
            raise ValueError(f"degenerate {self.kind} half-tile: zero-length legs")
        base = (b2 - b1).abs_squared()
        if (mode == "p2") == (self.kind == "acute"):
            ok = (base * PHI2_C).c == l1.c    # golden triangle: legs = phi * base
        else:
            ok = (l1 * PHI2_C).c == base.c    # gnomon: base = phi * legs
        if not ok:
            raise ValueError(f"bad shape for {mode} {self.kind} half-tile")

    def glue_edge(self, mode: Mode) -> tuple[Cyclo, Cyclo]:
        a, b1, b2 = self.vertices
        return (a, b2) if mode == "p2" else (b1, b2)


@dataclass(slots=True, unsafe_hash=True)
class Node:
    tile: HalfTile
    children: tuple["Node", ...] = ()


@dataclass(frozen=True)
class Patch:
    """A substitution forest; nodes at depth k store coordinates times phi^k.

    Every leaf sits at the same depth (the patch depth), so the flattened
    tile list shares one scale exponent.
    """

    mode: Mode
    roots: tuple[Node, ...]
    depth: int

    def leaves(self) -> list[HalfTile]:
        out: list[HalfTile] = []
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node.tile)
        return out

    def count_by_kind(self) -> dict[Kind, int]:
        counts = {"acute": 0, "obtuse": 0}
        for t in self.leaves():
            counts[t.kind] += 1
        return counts


def seed(mode: Mode, kind: Kind = "acute") -> Patch:
    """A single half-tile with apex at the origin and unit-scale edges."""
    if mode == "p2":
        if kind == "acute":   # half-kite: legs phi, apex 36 deg
            b1, b2 = PHI_C, PHI_C * ROT36
        else:                 # half-dart: legs 1, apex 108 deg
            b1, b2 = ONE_C, ROT36 * ROT36 * ROT36
    else:
        if kind == "acute":   # half-thick: gnomon, legs 1, apex 108 deg
            b1, b2 = ONE_C, ROT36 * ROT36 * ROT36
        else:                 # half-thin: golden triangle, legs 1, apex 36 deg
            b1, b2 = ONE_C, ROT36
    tile = HalfTile(kind, (Cyclo(), b1, b2))
    tile.check_shape(mode)
    return Patch(mode, (Node(tile),), 0)


# ---------------------------------------------------------------------------
# Substitution rules
# ---------------------------------------------------------------------------
#
# Points are written at the child scale: for a parent vertex p the lifted
# point is phi*p, and a point dividing segment p->q at 1/phi of the parent
# scale lifts to phi*p + (q - p).


def _lift(p: Cyclo) -> Cyclo:
    # PHI_C * p in closed form
    a0, a1, a2, a3 = p.c
    return Cyclo(a1 - a3, a1 + a2 - a3, a1 + a2 - a0, a2 - a0)


def _mix(p: Cyclo, q: Cyclo) -> Cyclo:
    # lift of p + (q - p)/phi
    return _lift(p) + q - p


def _children_p2(t: HalfTile) -> tuple[HalfTile, ...]:
    a, b1, b2 = t.vertices
    if t.kind == "acute":
        # half-kite (apex a, legs to b1/b2, axis a->b2)
        q = _mix(b1, a)       # on leg b1->a, one base-length from b1
        r = _mix(a, b2)       # on leg a->b2, one base-length from a
        return (
            HalfTile("obtuse", (q, r, _lift(a))),
            HalfTile("acute", (_lift(b1), q, r)),
            HalfTile("acute", (_lift(b1), _lift(b2), r)),
        )
    # half-dart (apex a, base b1->b2, axis a->b2)
    p = _mix(b2, b1)          # on the base, one leg-length from b2
    return (
        HalfTile("obtuse", (p, _lift(a), _lift(b1))),
        HalfTile("acute", (_lift(b2), p, _lift(a))),
    )


def _children_p3(t: HalfTile) -> tuple[HalfTile, ...]:
    a, b1, b2 = t.vertices
    if t.kind == "acute":
        # half-thick gnomon (apex a, base b1->b2 is the rhombus diagonal)
        q = _mix(b1, a)       # on leg b1->a
        r = _mix(b1, b2)      # on the base, one leg-length from b1
        return (
            HalfTile("acute", (r, _lift(b2), _lift(a))),
            HalfTile("acute", (q, r, _lift(b1))),
            HalfTile("obtuse", (r, q, _lift(a))),
        )
    # half-thin golden triangle (apex a, base b1->b2 is the short diagonal)
    p = _mix(a, b1)           # on leg a->b1
    return (
        HalfTile("obtuse", (_lift(b2), p, _lift(b1))),
        HalfTile("acute", (p, _lift(b2), _lift(a))),
    )


def tile_key(tile: HalfTile) -> tuple:
    """(kind, b1 - a, b2 - a) as 9 values: all `check_shape` reads, and (as
    `_lift` is Z-linear) all the substitution reads up to translation."""
    a, b1, b2 = tile.vertices
    a0, a1, a2, a3 = a.c
    p0, p1, p2, p3 = b1.c
    q0, q1, q2, q3 = b2.c
    return (tile.kind, p0 - a0, p1 - a1, p2 - a2, p3 - a3, q0 - a0, q1 - a1, q2 - a2, q3 - a3)


MAX_TILE_LEAVES = 250_000   # `tile` budget: acute seed doubled, depth 12 (242 786) fits


def leaf_count(kind: Kind, roots: int, steps: int) -> int:
    """Leaves after `steps` deflations of `roots` seeds of one kind.

    Acute -> 2 acute + 1 obtuse, obtuse -> 1 acute + 1 obtuse.  Counting stops
    at the first depth whose count exceeds MAX_TILE_LEAVES and returns that
    count: then a lower bound, but already over the budget.
    """
    a, o = (roots, 0) if kind == "acute" else (0, roots)
    for _ in range(steps):
        if a + o > MAX_TILE_LEAVES:
            break
        a, o = 2 * a + o, a + o
    return a + o


def deflate(patch: Patch, steps: int) -> Patch:
    """Apply the substitution `steps` times to every leaf.

    The first tile of each `tile_key` is subdivided and its children's shapes
    checked; kept as integer offsets from the lifted apex, they serve every
    later tile with that key.  Rules and points are tabled once per call.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    tables = (patch.mode, {}, {})   # mode, rules by tile_key, points by coefficients
    return Patch(patch.mode, tuple(_grow(r.tile, r.children, steps, tables) for r in patch.roots),
                 patch.depth + steps)


def _grow(tile: HalfTile, kids: Optional[tuple[Node, ...]], levels: int, tables: tuple) -> Node:
    """`deflate`'s Node of `tile` over input children `kids` (None for a new
    tile), leaves substituted `levels` times, one `Cyclo` per point."""
    mode, rules, points = tables
    if kids is not None:   # an input tile: its points enter the table
        tile = HalfTile(tile.kind, tuple(points.setdefault(v.c, v) for v in tile.vertices))
        if kids:
            return Node(tile, tuple(_grow(k.tile, k.children, levels, tables) for k in kids))
    if not levels:
        return Node(tile)
    la, key = _lift(tile.vertices[0]).c, tile_key(tile)
    rule = rules.get(key)
    if rule is None:
        made = (_children_p2 if mode == "p2" else _children_p3)(tile)
        for c in made:
            c.check_shape(mode)
        rule = rules[key] = tuple((c.kind, tuple(tuple(x - y for x, y in zip(v.c, la))
                                                 for v in c.vertices)) for c in made)
    l0, l1, l2, l3 = la
    grown = []
    for kind, offsets in rule:
        verts = []
        for o0, o1, o2, o3 in offsets:
            c = (l0 + o0, l1 + o1, l2 + o2, l3 + o3)
            verts.append(points.get(c) or enter_point(points, c))
        grown.append(_grow(HalfTile(kind, tuple(verts)), None, levels - 1, tables))
    return Node(tile, tuple(grown))


def enter_point(points: dict[tuple[int, ...], Cyclo], c: tuple[int, ...]) -> Cyclo:
    """A new `Cyclo` of coefficients `c`, entered in `points` under its own tuple."""
    p = Cyclo(*c)
    points[p.c] = p
    return p


class InflateError(ValueError):
    pass


def inflate(patch: Patch, steps: int) -> Patch:
    """Collapse the deepest `steps` substitution levels (exact inverse)."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps > patch.depth:
        raise InflateError("cannot inflate beyond seed")
    if steps == 0:
        return patch

    def truncate(node: Node, remaining: int) -> Node:
        if remaining == 0:
            return Node(node.tile)
        return Node(node.tile, tuple(truncate(c, remaining - 1) for c in node.children))

    keep = patch.depth - steps
    return Patch(patch.mode, tuple(truncate(r, keep) for r in patch.roots), keep)


# ---------------------------------------------------------------------------
# Exact verification: children tile the parent
# ---------------------------------------------------------------------------


def _oriented_edges(tile: HalfTile) -> list[tuple[Cyclo, Cyclo]]:
    a, b1, b2 = tile.vertices
    cycle = (a, b1, b2) if cross_sign(a, b1, b2) > 0 else (a, b2, b1)
    return [(cycle[0], cycle[1]), (cycle[1], cycle[2]), (cycle[2], cycle[0])]


def _on_segment(p: Cyclo, q: Cyclo, x: Cyclo) -> bool:
    """x on the closed segment [p, q], decided in the sheared exact plane."""
    if cross_sign(p, q, x) != 0:
        return False
    dpx = (x - p).real() * (q - p).real() + (x - p).imag_scaled() * (q - p).imag_scaled()
    dq = (q - p).real() * (q - p).real() + (q - p).imag_scaled() * (q - p).imag_scaled()
    return dpx.sign() >= 0 and (dq - dpx).sign() >= 0


def _uncancelled_edges(tiles: Sequence[HalfTile]) -> dict[tuple[Cyclo, Cyclo], int]:
    """Directed edges of `tiles` left after opposite pairs cancel, with counts."""
    counts: dict[tuple[Cyclo, Cyclo], int] = {}
    for t in tiles:
        for e in _oriented_edges(t):
            rev = (e[1], e[0])
            if counts.get(rev, 0) > 0:
                counts[rev] -= 1
                if counts[rev] == 0:
                    del counts[rev]
            else:
                counts[e] = counts.get(e, 0) + 1
    return counts


def children_tile_parent(mode: Mode, parent: HalfTile,
                         children: Sequence[HalfTile]) -> bool:
    """Edge-cancellation check: the children exactly tile the lifted parent.

    Interior directed edges cancel in opposite pairs; the surviving edges must
    partition the parent's (lifted) boundary, each parent edge being covered
    by a contiguous chain with the parent's orientation.
    """
    lifted = HalfTile(parent.kind, tuple(_lift(v) for v in parent.vertices))
    counts = _uncancelled_edges(children)
    if any(k != 1 for k in counts.values()):
        return False  # an edge traversed twice in the same direction
    remaining = list(counts)

    used = [False] * len(remaining)
    for start, end in _oriented_edges(lifted):
        cursor = start
        while cursor != end:
            step = next((i for i, (u, v) in enumerate(remaining)
                         if not used[i] and u == cursor and _on_segment(start, end, v)),
                        None)
            if step is None:
                return False
            used[step] = True
            cursor = remaining[step][1]
    return all(used)


def verify_patch(patch: Patch) -> None:
    """Check every tile's shape and that every node's children tile it;
    raises on failure.  Both checks are translation invariant, so they run
    once per `tile_key` plus children's kinds and offsets from the lifted apex.
    """
    mode = patch.mode
    passed: set[tuple] = set()
    stack = list(patch.roots)
    while stack:
        node = stack.pop()
        tile, kids = node.tile, node.children
        key = tile_key(tile)
        if kids:
            la = _lift(tile.vertices[0])
            key += tuple((c.tile.kind,) + tuple((v - la).c for v in c.tile.vertices)
                         for c in kids)
        if key not in passed:
            tile.check_shape(mode)
            if kids and not children_tile_parent(mode, tile, [c.tile for c in kids]):
                raise AssertionError("children do not tile their parent")
            passed.add(key)
        stack.extend(kids)


# ---------------------------------------------------------------------------
# Mirror mates and whole-tile doubling
# ---------------------------------------------------------------------------


def _phi_power_inverse(x: FieldElem) -> Cyclo:
    """Ring inverse of x when x is phi^k, 0 <= k <= 64; raises otherwise."""
    from .field import phi as _phi
    golden, inv, phi_inv = _phi(), ONE_C, PHI_C - ONE_C
    for _ in range(65):
        if x == 1:
            return inv
        x, inv = x / golden, inv * phi_inv
    raise ValueError("edge norm is not a phi power")


def mirror_mate(tile: HalfTile, mode: Mode) -> HalfTile:
    """The reflected copy across the glue edge, completing the whole tile.

    Exact in the ring: glue edges of stored tiles have phi-power squared
    length, so the reflection denominator is a unit.
    """
    p, q = tile.glue_edge(mode)
    if mode == "p3":
        a, b1, b2 = tile.vertices
        return HalfTile(tile.kind, (b1 + b2 - a, b2, b1))
    e = q - p
    inv = _phi_power_inverse(e.norm_squared())
    a, b1, b2 = tile.vertices
    reflected = p + e * e * (b1 - p).conjugate() * inv
    return HalfTile(tile.kind, (a, reflected, b2))


def mirror_double(patch: Patch) -> Patch:
    """Adjoin the mirror mate of every root (doubles undivided seeds)."""
    mates = tuple(Node(mirror_mate(r.tile, patch.mode)) for r in patch.roots)
    if patch.depth != 0:
        raise ValueError("mirror_double applies to undivided seeds")
    return Patch(patch.mode, patch.roots + mates, 0)


# ---------------------------------------------------------------------------
# Pairing half-tiles into whole tiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WholeTile:
    kind: str                       # kite, dart, thick, thin
    vertices: tuple[Cyclo, Cyclo, Cyclo, Cyclo]
    halves: tuple[int, int]         # leaf indices


@dataclass(frozen=True)
class PairReport:
    tiles: tuple[WholeTile, ...]
    leftovers: tuple[int, ...]      # leaf indices without a mate in the patch


_WHOLE_NAME = {("p2", "acute"): "kite", ("p2", "obtuse"): "dart",
               ("p3", "acute"): "thick", ("p3", "obtuse"): "thin"}


def pair_tiles(patch: Patch, mode: Optional[Mode] = None) -> PairReport:
    """Merge mirror mates sharing their glue edge into whole tiles.

    In mode p2 mates share the ordered axis edge (same apex, same far end);
    in mode p3 mates share the base and sit point-symmetrically about its
    midpoint (equivalent to the mirror position for isosceles tiles).
    """
    mode = mode or patch.mode
    leaves = patch.leaves()
    index: dict[tuple, list[int]] = {}    # keys arrive in the order of their first leaf
    for i, t in enumerate(leaves):
        edge = t.glue_edge(mode)
        index.setdefault((t.kind, edge if mode == "p2" else frozenset(edge)), []).append(i)
    tiles: list[WholeTile] = []
    paired: set[int] = set()
    for (kind, _edge), group in index.items():
        if len(group) != 2:
            continue
        i, j = group
        a, b1, b2 = leaves[i].vertices
        mate = leaves[j].vertices
        if mode == "p2":
            corners = (a, b1, b2, mate[1])
        elif mate[0] == b1 + b2 - a:
            corners = (a, b1, mate[0], b2)
        else:
            continue  # same diagonal but not the mirror position
        tiles.append(WholeTile(_WHOLE_NAME[(mode, kind)], corners, (i, j)))
        paired.update(group)
    leftovers = tuple(i for i in range(len(leaves)) if i not in paired)
    return PairReport(tuple(tiles), leftovers)


def boundary_edges(patch: Patch) -> list[tuple[Cyclo, Cyclo]]:
    """Uncancelled directed leaf edges: the boundary of the patch union."""
    return [e for e, k in _uncancelled_edges(patch.leaves()).items() for _ in range(k)]


# ---------------------------------------------------------------------------
# Shipped triples for the convex tiles
# ---------------------------------------------------------------------------


def tile_triple(kind: str):
    """Construction-ready triple for a convex tile type.

    Accepted kinds: kite, thick_rhombus, thin_rhombus, prolate_rhombohedron,
    oblate_rhombohedron.
    """
    from . import examples
    allowed = ("kite", "thick_rhombus", "thin_rhombus",
               "prolate_rhombohedron", "oblate_rhombohedron")
    if kind not in allowed:
        raise ValueError(f"unknown tile type {kind!r}; expected one of {allowed}")
    return examples.get_example(kind)


# ---------------------------------------------------------------------------
# SVG output
# ---------------------------------------------------------------------------

_FILL = {"acute": "#e8b84b", "obtuse": "#4b7de8",
         "kite": "#e8b84b", "dart": "#4b7de8",
         "thick": "#e8b84b", "thin": "#4b7de8"}


def _fmt(x: float, digits: int) -> str:
    s = f"{x:.{digits}f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _svg_document(body: list[str], points: list[complex], digits: int) -> str:
    if points:
        xs = [p.real for p in points]
        ys = [p.imag for p in points]
        pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        vb = (min(xs) - pad, min(ys) - pad,
              max(xs) - min(xs) + 2 * pad, max(ys) - min(ys) + 2 * pad)
    else:
        vb = (0.0, 0.0, 1.0, 1.0)
    head = ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="'
            + " ".join(_fmt(v, digits) for v in vb) + '">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def render_svg(source: "Patch | Sequence[WholeTile]", digits: int = 12,
               depth: int = 0) -> str:
    """Deterministic SVG for a patch's leaves or a list of paired tiles.

    Ring-to-float conversion happens only here; stored coordinates at depth k
    are divided by phi^k.  Paired tiles carry no depth of their own, so it is
    passed as `depth` (the depth of the patch they were paired from).
    """
    if isinstance(source, Patch):
        depth, source = source.depth, source.leaves()
    scale = ((1 + 5 ** 0.5) / 2) ** (-depth)
    drawn: dict[tuple[int, ...], tuple[str, complex]] = {}   # coefficients -> ("x,y", point)
    body = []
    for t in source:
        texts = []
        for v in t.vertices:
            hit = drawn.get(v.c)
            if hit is None:
                p = v.to_complex() * scale
                hit = drawn[v.c] = (f"{_fmt(p.real, digits)},{_fmt(p.imag, digits)}", p)
            texts.append(hit[0])
        body.append(f'<polygon points="{" ".join(texts)}" fill="{_FILL[t.kind]}" '
                    'stroke="#222222" stroke-width="0.01"/>')
    # repeated vertices cannot move a min or a max, so the distinct ones size the view
    return _svg_document(body, [p for _, p in drawn.values()], digits)


def render_star(count: int = 5, digits: int = 12) -> str:
    """The roots-of-unity star: `count` arrows from the origin."""
    body = []
    points = [0j]
    for k in range(count):
        z = cmath.exp(2j * cmath.pi * k / count)
        points.append(z)
        body.append(f'<line x1="0" y1="0" x2="{_fmt(z.real, digits)}" '
                    f'y2="{_fmt(z.imag, digits)}" stroke="#222222" stroke-width="0.02"/>')
    return _svg_document(body, points, digits)
