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

One table, kept for the life of the process, holds the substitution: for each
(mode, `tile_key`), the children's kinds and their offsets from the lifted apex,
made by the mode's rule with every child's shape checked (40 keys per mode at the
seeds' scale).  `unfold` grows tiles from it in integers, for `deflate` and for
`jsonio.write_patch`, which writes each grown tile as it is made.  `verify_patch`
compares every node's children with it and every leaf's depth with the patch's, naming
a fault's node by its path: it is the reference for the check `jsonio.patch_hook` makes
as a document decodes, and names the faults that check finds.
The tests check apart, by directed-edge cancellation, that entries tile their parents.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Literal, Optional, Sequence

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
    return _key_of(tile.kind, *[v.c for v in tile.vertices])


def _key_of(kind: Kind, a: tuple, b1: tuple, b2: tuple) -> tuple:   # of coefficient tuples
    a0, a1, a2, a3 = a
    p0, p1, p2, p3 = b1
    q0, q1, q2, q3 = b2
    return (kind, p0 - a0, p1 - a1, p2 - a2, p3 - a3, q0 - a0, q1 - a1, q2 - a2, q3 - a3)


# The substitution table: (mode, tile_key) -> one (kind, vertex offsets from the lifted
# apex, table key) per child, in rule order.  Filled once per key for the life of the
# process.  A child's key holds wherever the child is, so callers pass it down.
_RULES: dict[tuple, tuple] = {}


def substitution(mode: Mode, tile: HalfTile, key: Optional[tuple] = None) -> tuple:
    """The table entry of `tile`, whose table key is `key` if given.  A key seen
    first is subdivided by the mode's rule and each child's shape checked
    before the entry is kept."""
    if key is None:
        key = (mode, tile_key(tile))
    rule = _RULES.get(key)
    if rule is None:
        made = (_children_p2 if mode == "p2" else _children_p3)(tile)
        for c in made:
            c.check_shape(mode)
        la = _lift(tile.vertices[0]).c
        rule = _RULES[key] = tuple(
            (c.kind, tuple(tuple(x - y for x, y in zip(v.c, la)) for v in c.vertices),
             (mode, tile_key(c))) for c in made)
    return rule


def table_key(kind: Kind, a: tuple, b1: tuple, b2: tuple) -> Optional[tuple]:
    """The table key of the tile of `kind` at coefficient tuples a, b1, b2, its entry made
    if new; None if it has neither mode's shape.  Kind and shape fix the mode (p2 acute and
    p3 obtuse are golden triangles): the table's, else found by shape tests."""
    tk = _key_of(kind, a, b1, b2)
    for key in (("p2", tk), ("p3", tk)):
        if key in _RULES:
            return key
    tile = HalfTile(kind, (Cyclo(*a), Cyclo(*b1), Cyclo(*b2)))
    for mode in ("p2", "p3"):
        try:
            tile.check_shape(mode)
        except ValueError:
            continue
        substitution(mode, tile, (mode, tk))
        return mode, tk
    return None


class PatchFault(ValueError):
    """A fault of a patch tree at the node whose index path (root index, then
    child indices) is `trail`, in its `field`: "", ".vertices" or ".children"."""

    def __init__(self, trail: Sequence[int], field: str, message: str) -> None:
        super().__init__(message)
        self.trail, self.field = tuple(trail), field


def verify_patch(patch: Patch) -> None:
    """Raise `PatchFault` at the first fault, depth first, unless every leaf sits
    at tree depth `patch.depth`, every root has its kind's shape and every internal
    node's children are its table entry moved by its lifted apex (so every tile has
    its shape: an entry's children were checked when it was made).  A node whose
    children are None is taken as checked below (`jsonio.read_patch` cuts trees so)."""
    for i, r in enumerate(patch.roots):
        _check(r, [i], patch.mode, patch.depth, None)


def _check(node: Node, trail: list[int], mode: Mode, depth: int, key: Optional[tuple]) -> None:
    """`verify_patch` of the node at `trail`, whose table key is `key` if known."""
    kids, level = node.children, len(trail) - 1
    if kids is None:
        return
    if bool(kids) != (level < depth):
        raise PatchFault(trail, "", f"{'leaf' if not kids else 'node with children'} at "
                                    f"tree depth {level}, but every leaf must sit at depth {depth}")
    if not level:
        try:
            node.tile.check_shape(mode)
        except ValueError as exc:
            raise PatchFault(trail, ".vertices", str(exc)) from None
    if not kids:
        return
    rule = substitution(mode, node.tile, key)
    fault = None if len(kids) == len(rule) else (
        f"{len(kids)} children, but the {mode} substitution of the parent has {len(rule)}")
    l0, l1, l2, l3 = _lift(node.tile.vertices[0]).c
    for i, ((_, (p, _, _), (_, k)), kid) in enumerate(zip(rule, kids)):
        # the same apex and the same table key: the same kind and vertices
        if fault is None and (tile_key(kid.tile) != k or kid.tile.vertices[0].c
                              != (l0 + p[0], l1 + p[1], l2 + p[2], l3 + p[3])):
            fault = f"child {i} is not the {mode} substitution of the parent"
    if fault:   # name a child of no Penrose shape, else the parent's children
        for i, kid in enumerate(kids):
            try:
                kid.tile.check_shape(mode)
            except ValueError as exc:
                raise PatchFault(trail + [i], ".vertices", str(exc)) from None
        raise PatchFault(trail, ".children", fault)
    for i, (kid, (_, _, key)) in enumerate(zip(kids, rule)):
        if kid.children or level + 1 < depth:   # a matched leaf at `depth` is done
            trail.append(i)
            _check(kid, trail, mode, depth, key)
            trail.pop()


MAX_TILE_LEAVES = 250_000   # `tile` budget: acute seed doubled, depth 12 (242 786) fits


def leaf_count(kind: Kind, roots: int, steps: int) -> int:
    """Leaves after `steps` deflations of `roots` seeds of one kind.

    Acute -> 2 acute + 1 obtuse, obtuse -> 1 acute + 1 obtuse.  Counting stops
    at the first depth whose count exceeds MAX_TILE_LEAVES and returns that
    count: then a lower bound, but already over the budget.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    a, o = (roots, 0) if kind == "acute" else (0, roots)
    for _ in range(steps):
        if a + o > MAX_TILE_LEAVES:
            break
        a, o = 2 * a + o, a + o
    return a + o


def deflate(patch: Patch, steps: int) -> Patch:
    """Apply the substitution `steps` times to every leaf.

    Each leaf grows by `unfold`; points are tabled once per call.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    points: dict[tuple[int, ...], Cyclo] = {}
    return Patch(patch.mode, tuple(_grow(r, steps, patch.mode, points) for r in patch.roots),
                 patch.depth + steps)


def _grow(node: "Node | tuple", levels: int, mode: Mode,
          points: dict[tuple[int, ...], Cyclo]) -> Node:
    """`deflate`'s Node of `node` (as `unfold` reads it), one `Cyclo` per point."""
    kind, (a, b, c), kids, levels = unfold(node, levels, mode)
    get = points.get
    tile = HalfTile(kind, (get(a) or enter_point(points, a), get(b) or enter_point(points, b),
                           get(c) or enter_point(points, c)))
    return Node(tile, tuple([_grow(k, levels, mode, points) for k in kids])) if kids else Node(tile)


def unfold(node: "Node | tuple", levels: int, mode: Mode) -> tuple:
    """(kind, point tuples, children, the children's `levels`) of `node`, an input `Node`
    or a grown tile (kind, point tuples, table key), whose leaves grow `levels` levels:
    a leaf's children are its `substitution` entry moved by its lifted apex, as grown
    tiles.  Integers only, but for an input leaf or a table key seen first."""
    if type(node) is Node:
        (a, b, c), key, kids = node.tile.vertices, None, node.children
        kind, verts = node.tile.kind, (a.c, b.c, c.c)
    else:
        (kind, verts, key), kids = node, ()
    if kids or not levels:
        return kind, verts, kids, levels
    rule = _RULES.get(key)   # else the key is new, or an input leaf's, not yet known
    rule = rule or substitution(mode, HalfTile(kind, tuple(Cyclo(*v) for v in verts)), key)
    a0, a1, a2, a3 = verts[0]
    l0, l1, l2, l3 = a1 - a3, a1 + a2 - a3, a1 + a2 - a0, a2 - a0   # `_lift` of the apex
    return kind, verts, [
        (k, ((l0 + p0, l1 + p1, l2 + p2, l3 + p3), (l0 + q0, l1 + q1, l2 + q2, l3 + q3),
             (l0 + r0, l1 + r1, l2 + r2, l3 + r3)), child_key)
        for k, ((p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3)), child_key in rule
    ], levels - 1


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
# Mirror mates and whole-tile doubling
# ---------------------------------------------------------------------------


_TURNS = tuple(Cyclo.zeta(3 * k) * (-1) ** k for k in range(10))   # ROT36 ** k = (-zeta^3) ** k


def mirror_mate(tile: HalfTile, mode: Mode) -> HalfTile:
    """The reflected copy across the glue edge, completing the whole tile.

    Exact in the ring: in mode p2 the apex turn rho, the 10th root of unity with
    (b2 - a) * rho = b1 - a, reflects b1 to a + (b2 - a) * conj(rho)."""
    a, b1, b2 = tile.vertices
    if mode == "p3":
        return HalfTile(tile.kind, (b1 + b2 - a, b2, b1))
    axis, leg = b2 - a, (b1 - a).c
    for rho in _TURNS:
        if (axis * rho).c == leg:
            return HalfTile(tile.kind, (a, a + axis * rho.conjugate(), b2))
    raise ValueError(f"{mode} {tile.kind} half-tile: apex turn is no multiple of 36 degrees")


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


# A leaf list holds a patch's leaves in order, four items a leaf: its kind and its points'
# coefficient tuples.  `jsonio.patch_hook` fills one; `tile_records` reads it back.
def put_leaf(leaves: list, kind: Kind, a: tuple, b: tuple, c: tuple) -> None:
    leaves.extend((kind, a, b, c))


def tile_records(tiles: Sequence) -> Iterator[tuple]:
    """(kind, then each vertex's coefficient tuple) of each tile of a leaf list, or of a
    sequence of `HalfTile`s or `WholeTile`s, in order."""
    if tiles and type(tiles[0]) is not str:
        return ((t.kind, *[v.c for v in t.vertices]) for t in tiles)
    return zip(*[iter(tiles)] * 4)


def pair_tiles(source: "Patch | list", mode: Optional[Mode] = None) -> PairReport:
    """Merge mirror mates sharing their glue edge into whole tiles, of a patch or of a leaf
    list in `mode`.

    In mode p2 mates share the ordered axis edge (same apex, same far end);
    in mode p3 mates share the base and sit point-symmetrically about its
    midpoint (equivalent to the mirror position for isosceles tiles).
    """
    if isinstance(source, Patch):
        mode, source = mode or source.mode, [x for r in tile_records(source.leaves()) for x in r]
    index: dict[tuple, list[int]] = {}    # (kind, `glue_edge`), in the order of first leaves
    for i, (kind, a, b1, b2) in enumerate(tile_records(source)):
        index.setdefault((kind, (a, b2) if mode == "p2" else frozenset((b1, b2))), []).append(i)
    points: dict[tuple[int, ...], Cyclo] = {}
    tiles: list[WholeTile] = []
    paired: set[int] = set()
    for (kind, _edge), group in index.items():
        if len(group) != 2:
            continue
        i, j = group
        _, a, b1, b2 = source[4 * i:4 * i + 4]
        mate = source[4 * j:4 * j + 4]
        if mode == "p2":
            corners = (a, b1, b2, mate[2])
        elif mate[1] == tuple(x + y - z for x, y, z in zip(b1, b2, a)):
            corners = (a, b1, mate[1], b2)
        else:
            continue  # same diagonal but not the mirror position
        corners = tuple(points.get(c) or enter_point(points, c) for c in corners)
        tiles.append(WholeTile(_WHOLE_NAME[(mode, kind)], corners, (i, j)))
        paired.update(group)
    leftovers = tuple(i for i in range(len(source) // 4) if i not in paired)
    return PairReport(tuple(tiles), leftovers)


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
_SVG_CHUNK = 64   # polygons gathered before one call of `write`, about 10 kB


def _fmt(x: float, digits: int) -> str:
    s = f"{x:.{digits}f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _svg_head(x0: float, y0: float, x1: float, y1: float, digits: int) -> str:
    """The opening tag, its viewBox the bounds (x0, y0)-(x1, y1) padded by 5% of their
    longer side (at least 1), or the unit square for empty bounds (x0 > x1)."""
    pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
    vb = (x0 - pad, y0 - pad, x1 - x0 + 2 * pad, y1 - y0 + 2 * pad) if x0 <= x1 else (0, 0, 1, 1)
    return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="'
            + " ".join(_fmt(v, digits) for v in vb) + '">')


def render_svg(source: "Patch | Sequence", digits: int = 12, depth: int = 0) -> str:
    """`write_svg`'s text, whole."""
    parts: list[str] = []
    write_svg(source, parts.append, digits, depth)
    return "".join(parts)


def write_svg(source: "Patch | Sequence", write: Callable[[str], Any], digits: int = 12,
              depth: int = 0) -> None:
    """Send a deterministic SVG of a patch's leaves, a leaf list or paired tiles to `write`,
    `_SVG_CHUNK` polygons a piece.  Ring-to-float conversion happens only here: coordinates
    at depth k are divided by phi^k, and leaf lists and paired tiles take the `depth` of
    their patch.  A first pass keeps each distinct point's "x,y" and the view's bounds
    (repeated points cannot move them); the second writes the polygons."""
    if isinstance(source, Patch):
        depth, source = source.depth, source.leaves()
    scale = ((1 + 5 ** 0.5) / 2) ** (-depth)
    drawn: dict[tuple[int, ...], str] = {}   # coefficients -> "x,y"
    x0, y0, x1, y1 = cmath.inf, cmath.inf, -cmath.inf, -cmath.inf
    for t in tile_records(source):
        for v in t[1:]:
            if v not in drawn:
                p = Cyclo(*v).to_complex() * scale
                x, y = p.real, p.imag
                drawn[v] = f"{_fmt(x, digits)},{_fmt(y, digits)}"
                x0, x1 = (x if x < x0 else x0), (x if x > x1 else x1)
                y0, y1 = (y if y < y0 else y0), (y if y > y1 else y1)
    parts = [_svg_head(x0, y0, x1, y1, digits)]
    for t in tile_records(source):
        if len(parts) >= _SVG_CHUNK:
            write("".join(parts))
            parts.clear()
        parts.append(f'\n<polygon points="{" ".join([drawn[v] for v in t[1:]])}" '
                     f'fill="{_FILL[t[0]]}" stroke="#222222" stroke-width="0.01"/>')
    parts.append("\n</svg>\n")
    write("".join(parts))


def render_star(count: int = 5, digits: int = 12) -> str:
    """The roots-of-unity star: `count` arrows from the origin."""
    points = [0j] + [cmath.exp(2j * cmath.pi * k / count) for k in range(count)]
    xs, ys = [p.real for p in points], [p.imag for p in points]
    body = [f'<line x1="0" y1="0" x2="{_fmt(z.real, digits)}" '
            f'y2="{_fmt(z.imag, digits)}" stroke="#222222" stroke-width="0.02"/>'
            for z in points[1:]]
    return "\n".join([_svg_head(min(xs), min(ys), max(xs), max(ys), digits), *body,
                      "</svg>"]) + "\n"
