"""Directed-edge cancellation over Z[zeta_5], and leaf counts, used only by the tests.

The independent oracle for the substitution table: children tile their
lifted parent exactly when their interior directed edges cancel in opposite
pairs and the edges left over run, in the parent's orientation, along its
boundary.  It decides this from the geometry alone, without the rule that made
the children.
"""
from quasitoric.tilings import HalfTile, _lift, cross_sign


def oriented_edges(tile):
    """The tile's three edges as (start, end) pairs, counterclockwise."""
    a, b1, b2 = tile.vertices
    cycle = (a, b1, b2) if cross_sign(a, b1, b2) > 0 else (a, b2, b1)
    return [(cycle[0], cycle[1]), (cycle[1], cycle[2]), (cycle[2], cycle[0])]


def on_segment(p, q, x):
    """x on the closed segment [p, q], decided in the sheared exact plane."""
    if cross_sign(p, q, x) != 0:
        return False
    dpx = (x - p).real() * (q - p).real() + (x - p).imag_scaled() * (q - p).imag_scaled()
    dq = (q - p).real() * (q - p).real() + (q - p).imag_scaled() * (q - p).imag_scaled()
    return dpx.sign() >= 0 and (dq - dpx).sign() >= 0


def uncancelled_edges(tiles):
    """Directed edges of `tiles` left after opposite pairs cancel, with counts."""
    counts = {}
    for t in tiles:
        for e in oriented_edges(t):
            rev = (e[1], e[0])
            if counts.get(rev, 0) > 0:
                counts[rev] -= 1
                if counts[rev] == 0:
                    del counts[rev]
            else:
                counts[e] = counts.get(e, 0) + 1
    return counts


def children_tile_parent(parent, children):
    """The children exactly tile the lifted parent: no edge is left twice in one
    direction, and the edges left cover each parent edge as one contiguous chain
    with the parent's orientation, with none to spare."""
    lifted = HalfTile(parent.kind, tuple(_lift(v) for v in parent.vertices))
    counts = uncancelled_edges(children)
    if any(k != 1 for k in counts.values()):
        return False
    remaining = list(counts)
    used = [False] * len(remaining)
    for start, end in oriented_edges(lifted):
        cursor = start
        while cursor != end:
            step = next((i for i, (u, v) in enumerate(remaining)
                         if not used[i] and u == cursor and on_segment(start, end, v)),
                        None)
            if step is None:
                return False
            used[step] = True
            cursor = remaining[step][1]
    return all(used)


def boundary_edges(patch):
    """Uncancelled directed leaf edges: the boundary of the patch union."""
    return [e for e, k in uncancelled_edges(patch.leaves()).items() for _ in range(k)]


def count_by_kind(patch):
    """The patch's leaves counted by kind, as {"acute": a, "obtuse": o}."""
    counts = {"acute": 0, "obtuse": 0}
    for t in patch.leaves():
        counts[t.kind] += 1
    return counts
