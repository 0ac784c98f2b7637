import itertools
import random

import pytest

from quasitoric import tilings
from quasitoric.field import fe, phi
from quasitoric.tilings import (Cyclo, HalfTile, InflateError, MAX_TILE_LEAVES,
                                Node, PHI_C, Patch, ROT36, cross_sign, deflate, inflate,
                                leaf_count, mirror_double, mirror_mate, pair_tiles,
                                render_star, render_svg, seed, tile_key, tile_triple,
                                verify_patch, _lift)

from edges import boundary_edges, children_tile_parent, count_by_kind, on_segment


# -- ring ---------------------------------------------------------------------


def test_zeta_is_fifth_root():
    z = Cyclo.zeta(1)
    acc = Cyclo(1)
    for k in range(5):
        acc = acc * z
    assert acc == Cyclo(1)
    assert Cyclo.zeta(4) == Cyclo(-1, -1, -1, -1)


def test_phi_ring_identities():
    assert PHI_C * PHI_C == PHI_C + Cyclo(1)
    inv = PHI_C - Cyclo(1)
    assert PHI_C * inv == Cyclo(1)
    assert PHI_C.real() == phi()
    assert PHI_C.imag_scaled().is_zero()


def test_rotation_by_36_degrees():
    acc = Cyclo(1)
    for _ in range(10):
        acc = acc * ROT36
    assert acc == Cyclo(1)
    half = ROT36 * ROT36 * ROT36 * ROT36 * ROT36
    assert half == Cyclo(-1)


def test_norm_squared_in_real_subfield():
    assert Cyclo.zeta(1).norm_squared() == fe(1, 0, 5)
    assert PHI_C.norm_squared() == phi() * phi()
    z = Cyclo(2, -1, 3, 0)
    n = z.norm_squared()
    approx = abs(z.to_complex()) ** 2
    assert abs(float(n) - approx) < 1e-9


def test_conjugation_is_involution():
    for coeffs in itertools.product((-2, 0, 1, 3), repeat=4):
        z = Cyclo(*coeffs)
        assert z.conjugate().conjugate() == z


def _reduce(acc):
    """Coefficients of z^0..z^4 to the basis 1, z, z^2, z^3 (z^4 = -1-z-z^2-z^3)."""
    return tuple(x - acc[4] for x in acc[:4])


def _ref_mul(a, b):
    acc = [0] * 5
    for i in range(4):
        for j in range(4):
            acc[(i + j) % 5] += a[i] * b[j]
    return _reduce(acc)


def _ref_conjugate(a):
    acc = [0] * 5
    for k in range(4):
        acc[-k % 5] += a[k]
    return _reduce(acc)


def test_unrolled_arithmetic_matches_reference_convolution():
    rng = random.Random(5)
    for _ in range(2000):
        bits = rng.choice((3, 20, 90))
        a = tuple(rng.randint(-2 ** bits, 2 ** bits) for _ in range(4))
        b = tuple(rng.randint(-2 ** bits, 2 ** bits) for _ in range(4))
        x, y = Cyclo(*a), Cyclo(*b)
        assert (x * y).c == _ref_mul(a, b)
        assert (x + y).c == tuple(p + q for p, q in zip(a, b))
        assert (x - y).c == tuple(p - q for p, q in zip(a, b))
        assert x.conjugate().c == _ref_conjugate(a)
        assert _lift(x).c == _ref_mul(PHI_C.c, a)
        assert x.abs_squared().c == _ref_mul(a, _ref_conjugate(a))


# -- substitution -------------------------------------------------------------


def test_seed_shapes():
    for mode in ("p2", "p3"):
        for kind in ("acute", "obtuse"):
            s = seed(mode, kind)
            s.roots[0].tile.check_shape(mode)
            assert s.depth == 0


@pytest.mark.parametrize("mode", ["p2", "p3"])
@pytest.mark.parametrize("kind", ["acute", "obtuse"])
def test_check_shape_rejects_wrong_shapes(mode, kind):
    a, b1, b2 = seed(mode, kind).roots[0].tile.vertices
    with pytest.raises(ValueError, match="not isosceles"):
        HalfTile(kind, (a, b1 * 2, b2)).check_shape(mode)
    # the other kind's seed has the other triangle (golden vs gnomon)
    other = "obtuse" if kind == "acute" else "acute"
    with pytest.raises(ValueError, match="bad shape"):
        HalfTile(kind, seed(mode, other).roots[0].tile.vertices).check_shape(mode)
    # isosceles with a 72 degree apex: neither ratio
    with pytest.raises(ValueError, match="bad shape"):
        HalfTile(kind, (Cyclo(), Cyclo(1), Cyclo.zeta(1))).check_shape(mode)
    # all three vertices at one point: 0 == 0 * phi^2, but no tile
    with pytest.raises(ValueError, match="degenerate .* zero-length legs"):
        HalfTile(kind, (b1, b1, b1)).check_shape(mode)


def _nodes(node):
    yield node
    for c in node.children:
        yield from _nodes(c)


def test_deflate_checks_the_translation_class_of_every_created_child(monkeypatch):
    monkeypatch.setattr(tilings, "_RULES", {})   # an empty table: every entry is made here
    checked = set()
    check = HalfTile.check_shape
    monkeypatch.setattr(HalfTile, "check_shape",
                        lambda tile, mode: checked.add(tile_key(tile)) or check(tile, mode))
    for mode in ("p2", "p3"):
        for kind in ("acute", "obtuse"):
            start = mirror_double(seed(mode, kind))
            patch = deflate(start, 4)
            created = {tile_key(n.tile) for r in patch.roots for n in _nodes(r)
                       if n is not r}
            assert created and created <= checked
    start = mirror_double(seed("p3", "obtuse"))
    checked.clear()                             # the table is kept: no check is repeated
    deflate(start, 4)
    assert not checked


def test_deflate_refuses_a_rule_with_a_wrong_shaped_child(monkeypatch):
    rule = tilings._children_p2

    def bad(t):   # the first child of every obtuse tile gets one vertex moved
        kids = rule(t)
        if t.kind == "acute":
            return kids
        a, b1, b2 = kids[0].vertices
        return (HalfTile(kids[0].kind, (a, b1 + Cyclo(1), b2)),) + kids[1:]

    monkeypatch.setattr(tilings, "_children_p2", bad)
    monkeypatch.setattr(tilings, "_RULES", {})
    deflate(seed("p2", "acute"), 1)     # no obtuse tile is subdivided yet
    with pytest.raises(ValueError, match="p2 obtuse|not isosceles"):
        deflate(seed("p2", "acute"), 3)


def _deflate_per_tile(patch, steps):
    """The substitution applied to every leaf on its own, level by level."""
    rule = tilings._children_p2 if patch.mode == "p2" else tilings._children_p3

    def extend(node):
        if node.children:
            return Node(node.tile, tuple(extend(c) for c in node.children))
        return Node(node.tile, tuple(Node(t) for t in rule(node.tile)))

    roots = patch.roots
    for _ in range(steps):
        roots = tuple(extend(r) for r in roots)
    return Patch(patch.mode, roots, patch.depth + steps)


def test_deflate_equals_per_tile_subdivision():
    for mode in ("p2", "p3"):
        for kind in ("acute", "obtuse"):
            start = mirror_double(seed(mode, kind))
            assert deflate(start, 5) == _deflate_per_tile(start, 5)
            assert deflate(deflate(start, 2), 3) == _deflate_per_tile(start, 5)


def test_deflate_holds_one_cyclo_per_point():
    for mode in ("p2", "p3"):
        start = mirror_double(seed(mode))
        for patch in (deflate(start, 6), deflate(deflate(start, 2), 4)):
            verts = [v for r in patch.roots for n in _nodes(r) for v in n.tile.vertices]
            assert len({id(v) for v in verts}) == len({v.c for v in verts})


def test_leaf_count_predicts_deflate():
    for mode in ("p2", "p3"):
        for kind in ("acute", "obtuse"):
            for roots, start in ((1, seed(mode, kind)), (2, mirror_double(seed(mode, kind)))):
                for steps in range(6):
                    assert leaf_count(kind, roots, steps) == len(deflate(start, steps).leaves())


def test_leaf_count_budget_boundary():
    assert leaf_count("acute", 2, 12) == 242786 <= MAX_TILE_LEAVES
    assert leaf_count("acute", 1, 13) == 317811 > MAX_TILE_LEAVES
    # counting stops at the first depth past the budget
    assert leaf_count("acute", 1, 10 ** 9) == 317811


def test_deflate_zero_steps_identity():
    s = seed("p2", "acute")
    assert deflate(s, 0) == s


def test_single_step_child_counts():
    s = deflate(seed("p2", "acute"), 1)
    c = count_by_kind(s)
    assert c == {"acute": 2, "obtuse": 1}
    s = deflate(seed("p2", "obtuse"), 1)
    assert count_by_kind(s) == {"acute": 1, "obtuse": 1}
    s = deflate(seed("p3", "acute"), 1)
    assert count_by_kind(s) == {"acute": 2, "obtuse": 1}
    s = deflate(seed("p3", "obtuse"), 1)
    assert count_by_kind(s) == {"acute": 1, "obtuse": 1}


def test_count_recurrence_to_depth_six():
    for mode in ("p2", "p3"):
        patch = seed(mode, "acute")
        a, o = 1, 0
        for _ in range(6):
            patch = deflate(patch, 1)
            a, o = 2 * a + o, a + o
            c = count_by_kind(patch)
            assert (c["acute"], c["obtuse"]) == (a, o)


def test_children_tile_parent_at_every_node():
    for mode in ("p2", "p3"):
        for kind in ("acute", "obtuse"):
            verify_patch(deflate(seed(mode, kind), 4))


def _per_node_verdict(patch):
    """True when every node passes `verify_patch`'s checks, node by node."""
    def ok(node):
        try:
            node.tile.check_shape(patch.mode)
        except ValueError:
            return False
        if node.children and not children_tile_parent(node.tile,
                                                      [c.tile for c in node.children]):
            return False
        return all(ok(c) for c in node.children)
    return all(ok(r) for r in patch.roots)


def _verdict(patch):
    try:
        verify_patch(patch)
    except (ValueError, AssertionError):
        return False
    return True


def _replaced(node, path, tile):
    """`node` with the tile of its descendant at child-index `path` replaced."""
    if not path:
        return Node(tile, node.children)
    kids = list(node.children)
    kids[path[0]] = _replaced(kids[path[0]], path[1:], tile)
    return Node(node.tile, tuple(kids))


def _paths(node, path=()):
    yield path, node
    for i, c in enumerate(node.children):
        yield from _paths(c, path + (i,))


def test_verify_patch_catches_a_child_corrupted_deep_down():
    with pytest.raises(ValueError, match="bad shape"):   # no children to tile it: shape only
        verify_patch(Patch("p2", (Node(HalfTile("acute", (Cyclo(), Cyclo(1), Cyclo.zeta(1)))),), 0))
    for mode in ("p2", "p3"):
        patch = deflate(seed(mode, "acute"), 4)
        for path, node in _paths(patch.roots[0]):
            if len(path) < 2:
                continue
            a, b1, b2 = node.tile.vertices
            moved = HalfTile(node.tile.kind, (a, b1 + Cyclo(0, 1), b2))
            shifted = HalfTile(node.tile.kind, tuple(v + Cyclo(1) for v in node.tile.vertices))
            for tile in (moved, shifted):
                bad = Patch(mode, (_replaced(patch.roots[0], path, tile),), patch.depth)
                with pytest.raises((ValueError, AssertionError)):
                    verify_patch(bad)


def test_verify_patch_names_a_node_off_the_patch_depth():
    roots = deflate(seed("p2"), 2).roots
    verify_patch(Patch("p2", roots, 2))
    with pytest.raises(tilings.PatchFault) as exc:   # render would draw it at phi^-5
        verify_patch(Patch("p2", roots, 5))
    assert (exc.value.trail, exc.value.field) == ((0, 0, 0), "")
    assert str(exc.value) == "leaf at tree depth 2, but every leaf must sit at depth 5"
    with pytest.raises(tilings.PatchFault) as exc:
        verify_patch(Patch("p2", roots, 1))
    assert (exc.value.trail, exc.value.field) == ((0, 0), "")
    assert str(exc.value) == ("node with children at tree depth 1, but every leaf must "
                              "sit at depth 1")


def test_verify_patch_names_the_faulty_node():
    patch = deflate(seed("p3", "obtuse"), 3)
    for path, node in _paths(patch.roots[0]):
        if not node.children:
            continue
        bad = Patch("p3", (_with_children(patch.roots[0], path, node.children[::-1]),), 3)
        with pytest.raises(tilings.PatchFault) as exc:
            verify_patch(bad)
        assert (exc.value.trail, exc.value.field) == ((0,) + path, ".children")
        assert str(exc.value) == "child 0 is not the p3 substitution of the parent"
    root = patch.roots[0]
    a, b1, b2 = root.children[1].tile.vertices
    bent = HalfTile(root.children[1].tile.kind, (a, b1, b2 + Cyclo(1)))
    with pytest.raises(tilings.PatchFault) as exc:   # a child of no shape before its parent
        verify_patch(Patch("p3", (_replaced(root, (1,), bent),), 3))
    assert (exc.value.trail, exc.value.field) == ((0, 1), ".vertices")
    assert "half-tile" in str(exc.value)


def _with_children(node, path, kids):
    """`node` with the children of its descendant at child-index `path` replaced."""
    if not path:
        return Node(node.tile, kids)
    out = list(node.children)
    out[path[0]] = _with_children(out[path[0]], path[1:], kids)
    return Node(node.tile, tuple(out))


def test_verify_patch_agrees_with_a_per_node_walk_on_mutations():
    """`verify_patch` accepts only the unmutated patch, and never a patch the
    edge-cancellation walk rejects.  The walk is weaker: a child with its base
    vertices swapped still covers the same triangle."""
    rng = random.Random(20261018)
    deltas = (Cyclo(), Cyclo(1), Cyclo(0, -1), Cyclo(0, 0, 1), PHI_C, -ROT36)
    seen, oracle_only = set(), 0
    for mode in ("p2", "p3"):
        for kind in ("acute", "obtuse"):
            patch = deflate(seed(mode, kind), 5)
            nodes = list(_paths(patch.roots[0]))
            for _ in range(8):
                path, node = rng.choice(nodes)
                verts = list(node.tile.vertices)
                if rng.random() < 0.25:     # mirror: swap the base vertices
                    verts[1], verts[2] = verts[2], verts[1]
                else:
                    i = rng.randrange(3)
                    verts[i] = verts[i] + rng.choice(deltas)
                tile = HalfTile(node.tile.kind, tuple(verts))
                mutated = Patch(mode, (_replaced(patch.roots[0], path, tile),), patch.depth)
                verdict, oracle = _verdict(mutated), _per_node_verdict(mutated)
                assert verdict == (tile == node.tile)
                assert oracle or not verdict
                oracle_only += oracle and not verdict
                seen.add(verdict)
    assert seen == {True, False} and oracle_only


def test_verify_patch_checks_each_translation_class_once(monkeypatch):
    calls = []
    for name in ("_children_p2", "_children_p3"):
        rule = getattr(tilings, name)
        monkeypatch.setattr(tilings, name, lambda t, rule=rule: calls.append(tile_key(t)) or rule(t))
    for mode in ("p2", "p3"):
        patch = deflate(mirror_double(seed(mode, "acute")), 6)
        classes = {tile_key(n.tile) for r in patch.roots for n in _nodes(r) if n.children}
        monkeypatch.setattr(tilings, "_RULES", {})
        calls.clear()
        verify_patch(patch)
        assert sorted(calls) == sorted(classes) and len(classes) <= 40
        calls.clear()
        verify_patch(patch)                     # the table outlives the call
        assert not calls


SEEDS = [(mode, kind, doubled) for mode in ("p2", "p3") for kind in ("acute", "obtuse")
         for doubled in (False, True)]

# Each child's handedness relative to its parent's, per (mode, parent kind), in
# the order the rule lists the children.  A child swapped for its mirror image
# covers the same triangle, so neither shapes nor edge cancellation see it.  The
# p3 rows are Robinson's decomposition as Preshing writes it ("Penrose Tiling
# Explained", 2011), for a parent (A, B, C) with apex A and P = A + (B - A)/phi,
# Q = B + (A - B)/phi, R = B + (C - B)/phi: a golden triangle gives the golden
# triangle (C, P, B) and the gnomon (P, C, A), a gnomon gives the gnomons
# (R, C, A) and (Q, R, B) and the golden triangle (R, Q, A).
HANDEDNESS = {("p2", "acute"): (1, -1, 1), ("p2", "obtuse"): (1, -1),
              ("p3", "acute"): (1, -1, -1), ("p3", "obtuse"): (1, 1)}


def _check_entries(table):
    """Every entry of `table` by its own shapes, by edge cancellation and by the
    children's handedness: the parent rebuilt from its key with the apex at 0
    (so the lifted apex is 0 too), the children read straight from the offsets.
    Each child's stored key is its own."""
    for (mode, (kind, *diffs)), rule in table.items():
        parent = HalfTile(kind, (Cyclo(), Cyclo(*diffs[:4]), Cyclo(*diffs[4:])))
        children = [HalfTile(k, tuple(Cyclo(*o) for o in offsets)) for k, offsets, _ in rule]
        for t in [parent] + children:
            t.check_shape(mode)
        assert children_tile_parent(parent, children), (mode, kind, diffs)
        hand = cross_sign(*parent.vertices)
        assert tuple(cross_sign(*c.vertices) * hand for c in children) == HANDEDNESS[mode, kind]
        assert [key for _, _, key in rule] == [(mode, tile_key(c)) for c in children]


def test_every_table_entry_tiles_its_parent(monkeypatch):
    table = {}
    monkeypatch.setattr(tilings, "_RULES", table)
    for mode, kind, doubled in SEEDS:
        start = seed(mode, kind)
        deflate(mirror_double(start) if doubled else start, 6)
    assert sorted(mode for mode, _key in table) == ["p2"] * 40 + ["p3"] * 40
    _check_entries(table)
    # check_shape accepts any scale: a root rotated by zeta and scaled by phi
    # reaches entries of its own
    table.clear()
    for mode, kind, doubled in SEEDS:
        tile = seed(mode, kind).roots[0].tile
        moved = HalfTile(kind, tuple(v * Cyclo.zeta(1) * PHI_C for v in tile.vertices))
        start = Patch(mode, (Node(moved),), 0)
        verify_patch(start)
        verify_patch(deflate(mirror_double(start) if doubled else start, 6))
    assert table
    _check_entries(table)


def test_edge_cancellation_rejects_corruption():
    s = deflate(seed("p2", "acute"), 1)
    parent = s.roots[0].tile
    children = [c.tile for c in s.roots[0].children]
    assert children_tile_parent(parent, children)
    assert not children_tile_parent(parent, children[:-1])
    shifted = HalfTile(children[0].kind,
                       tuple(v + Cyclo(1) for v in children[0].vertices))
    assert not children_tile_parent(parent, [shifted] + children[1:])


def test_inflate_inverts_deflate():
    for mode in ("p2", "p3"):
        s = seed(mode, "acute")
        for k in (1, 2, 4):
            assert inflate(deflate(s, k), k) == s
        d2 = deflate(s, 2)
        assert deflate(inflate(d2, 1), 1) == d2
        assert inflate(d2, 0) == d2


def test_inflate_beyond_seed_fails():
    with pytest.raises(InflateError):
        inflate(seed("p2", "acute"), 1)
    with pytest.raises(InflateError):
        inflate(deflate(seed("p3", "obtuse"), 2), 3)


def test_exact_vertex_sharing():
    # shared vertices across adjacent tiles agree exactly (integer tuples)
    patch = deflate(seed("p2", "acute"), 5)
    points = {}
    for t in patch.leaves():
        for v in t.vertices:
            points[v.c] = points.get(v.c, 0) + 1
    assert any(k >= 3 for k in points.values())   # interior corners shared


def test_area_conservation_float_check():
    def area(tile):
        a, b1, b2 = (v.to_complex() for v in tile.vertices)
        return abs((b1 - a).real * (b2 - a).imag - (b1 - a).imag * (b2 - a).real) / 2

    for mode in ("p2", "p3"):
        s = seed(mode, "acute")
        parent_area = area(s.roots[0].tile)
        d = deflate(s, 3)
        phi_f = (1 + 5 ** 0.5) / 2
        total = sum(area(t) for t in d.leaves()) / phi_f ** (2 * d.depth)
        assert abs(total - parent_area) < 1e-9


def test_count_ratio_at_depth_ten():
    patch = deflate(seed("p2", "acute"), 10)
    c = count_by_kind(patch)
    ratio = c["acute"] / c["obtuse"]
    assert abs(ratio - (1 + 5 ** 0.5) / 2) < 1e-3


# -- pairing ------------------------------------------------------------------


def test_mirror_double_pairs_to_whole_tile():
    names = {("p2", "acute"): "kite", ("p2", "obtuse"): "dart",
             ("p3", "acute"): "thick", ("p3", "obtuse"): "thin"}
    for (mode, kind), whole in names.items():
        rep = pair_tiles(mirror_double(seed(mode, kind)))
        assert len(rep.tiles) == 1 and not rep.leftovers
        assert rep.tiles[0].kind == whole


def test_mirror_mate_is_valid_tile():
    for mode in ("p2", "p3"):
        for kind in ("acute", "obtuse"):
            t = seed(mode, kind).roots[0].tile
            m = mirror_mate(t, mode)
            m.check_shape(mode)
            assert m.glue_edge(mode)[0] in t.vertices or mode == "p3"


def _mate_by_norm(tile, mode):
    """The p2 mate as the reflection across the axis e = b2 - a, with 1/|e|^2
    found as a phi power of at most 64 steps: None past that."""
    a, b1, b2 = tile.vertices
    e = b2 - a
    x, inv, golden = e.norm_squared(), Cyclo(1), phi()
    for _ in range(65):
        if x == 1:
            return HalfTile(tile.kind, (a, a + e * e * (b1 - a).conjugate() * inv, b2))
        x, inv = x / golden, inv * (PHI_C - Cyclo(1))
    return None


def test_mirror_mate_of_scaled_and_rotated_seeds():
    scales, known = [Cyclo(1)], 0
    for _ in range(100):
        scales.append(scales[-1] * PHI_C)
    for mode in ("p2", "p3"):
        for kind in ("acute", "obtuse"):
            a, b1, b2 = seed(mode, kind).roots[0].tile.vertices
            for k, scale in enumerate(scales):
                turn = Cyclo.zeta(k % 5) * (-1) ** k
                move = Cyclo(k, -k, 2, k % 3)
                tile = HalfTile(kind, tuple(v * scale * turn + move for v in (a, b1, b2)))
                tile.check_shape(mode)
                mate = mirror_mate(tile, mode)
                mate.check_shape(mode)
                assert mirror_mate(mate, mode) == tile
                if mode == "p2":   # a mirror image across the shared axis
                    assert cross_sign(*mate.vertices) == -cross_sign(*tile.vertices)
                    assert mate.glue_edge(mode) == tile.glue_edge(mode)
                    old = _mate_by_norm(tile, mode)
                    assert old is None or old == mate
                    known += old is not None
    assert 0 < known < 2 * len(scales)   # the norm route gives up on large scales


def test_mirror_mate_of_a_half_kite_with_a_long_axis():
    axis = Cyclo(2) + Cyclo.zeta(1)     # 2 + zeta: no phi power in length
    a = Cyclo(3, 1)
    tile = HalfTile("acute", (a, a + axis * ROT36.conjugate(), a + axis))
    tile.check_shape("p2")
    assert _mate_by_norm(tile, "p2") is None
    mate = mirror_mate(tile, "p2")
    assert mate == HalfTile("acute", (a, a + axis * ROT36, a + axis))
    mate.check_shape("p2")


def test_mirror_mate_refuses_a_turn_of_no_tenth_root():
    with pytest.raises(ValueError, match="apex turn"):
        mirror_mate(HalfTile("acute", (Cyclo(), Cyclo(2), Cyclo(1, 1))), "p2")


def test_empty_pairing():
    rep = pair_tiles(seed("p2", "acute"))
    assert not rep.tiles and rep.leftovers == (0,)


def test_depth_three_pairing_leftovers_on_boundary():
    patch = deflate(seed("p2", "acute"), 3)
    rep = pair_tiles(patch)
    leaves = patch.leaves()
    assert 2 * len(rep.tiles) + len(rep.leftovers) == len(leaves)
    bnd = boundary_edges(patch)

    def on_boundary(p, q):
        return any(on_segment(u, v, p) and on_segment(u, v, q) for u, v in bnd)

    for i in rep.leftovers:
        assert on_boundary(*leaves[i].glue_edge(patch.mode))
    # paired tiles glue along interior edges
    for tile in rep.tiles:
        i, _j = tile.halves
        assert not on_boundary(*leaves[i].glue_edge(patch.mode))


def test_pairing_doubled_deflated_patch():
    patch = deflate(mirror_double(seed("p3", "acute")), 2)
    rep = pair_tiles(patch)
    assert 2 * len(rep.tiles) + len(rep.leftovers) == len(patch.leaves())
    assert rep.tiles          # interior pairs exist


# -- shipped triples and rendering ---------------------------------------------


def test_tile_triple_registry():
    t = tile_triple("kite")
    from example_builders import kite
    assert t.polytope.halfspaces == kite().polytope.halfspaces
    for kind in ("thick_rhombus", "thin_rhombus",
                 "prolate_rhombohedron", "oblate_rhombohedron"):
        assert tile_triple(kind).polytope.d in (4, 6)
    with pytest.raises(ValueError):
        tile_triple("dart")


def test_render_polygon_count():
    patch = deflate(seed("p2", "acute"), 5)
    svg = render_svg(patch)
    assert svg.count("<polygon") == 89 + 55
    assert svg.startswith("<svg ")


def test_render_empty_and_star():
    empty = render_svg([])
    assert "viewBox" in empty and "<polygon" not in empty
    star = render_star(5)
    assert star.count("<line") == 5


def test_render_deterministic():
    patch = deflate(seed("p3", "obtuse"), 3)
    assert render_svg(patch) == render_svg(patch)
