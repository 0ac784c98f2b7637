"""Seeded cuts of shipped triples, shared by the construction and polytope tests."""
from quasitoric.construction import cut_and_present
from quasitoric.quasilattice import combination

SIMPLE_EXAMPLES = ("cube", "dodecahedron", "kite", "oblate_rhombohedron",
                   "orbisphere", "prolate_rhombohedron", "quasisphere", "sphere",
                   "tetrahedron", "thick_rhombus", "thin_rhombus")


def seeded_cuts(t, rng, tries=3):
    """`tries` cuts of t as (normal, level, t_plus, t_minus): the normal a small
    integer combination of the generators, the level strictly between two
    consecutive vertex values."""
    cuts = []
    points = [v.point for v in t.polytope.vertices()]
    while len(cuts) < tries:
        cert = [rng.randint(-2, 2) for _ in range(t.lattice.m)]
        normal = combination(t.lattice, cert)
        values = sorted(set(normal.dot(x) for x in points))
        if len(values) < 2:
            continue
        k = rng.randrange(len(values) - 1)
        level = (values[k] + values[k + 1]) / 2
        t_plus, t_minus, _pp, _pm = cut_and_present(t, normal, level, cert)
        cuts.append((normal, level, t_plus, t_minus))
    return cuts


def seeded_halves(t, rng, tries=3):
    """Both halves of `tries` seeded cuts of t."""
    return [half for _n, _l, *pair in seeded_cuts(t, rng, tries) for half in pair]
