"""Microkernels: arithmetic too hot to wrap, timed in loops on workload values.

A wrapper would cost more than `FieldElem.__mul__` itself, so these per-call
times come from tight loops over fixed values taken from the workloads' own
inputs: the icosahedron and dodecahedron facet data, the icosahedron's 3x3
normal subsets, the shipped relation matrices, and the vertices of
depth-5 Penrose patches.  `verify_patch`, on no CLI path yet, and
`pair_tiles`, on the CLI path only of `render --paired` (see README.md,
"Known defect"), are timed the same way on one depth-6 patch per mode.
"""
from __future__ import annotations

import itertools
import time

MIN_SECONDS = 0.05
VERIFY_DEPTH = 6


def _per_call(fn, args: list) -> float:
    """Seconds per call of fn over `args`, looping until MIN_SECONDS pass."""
    calls, start = 0, time.perf_counter()
    while True:
        for a in args:
            fn(*a)
        calls += len(args)
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SECONDS:
            return elapsed / calls


def run(q) -> dict:
    from operator import add, mul
    tilings = q.tilings
    solids = [q.examples.get_example(n) for n in ("icosahedron", "dodecahedron")]
    values = [x for t in solids for h in t.polytope.halfspaces
              for x in list(h.normal) + [h.level] if not x.is_zero()]
    pairs = [(values[i], values[(7 * i + 3) % len(values)]) for i in range(len(values))]
    diffs = [(x - y,) for x, y in pairs if x != y]
    normals = [h.normal for h in solids[0].polytope.halfspaces]
    subsets = [(q.field.KMatrix.from_vectors(list(s)),)
               for s in itertools.combinations(normals, 3)]
    relations = []
    for name in sorted(q.examples.EXAMPLES):
        t = q.examples.get_example(name)
        rows = [list(r) for r in q.quasilattice.relation_lattice(t.lattice)]
        relations.append((rows + [list(c) for c in t.certificates], t.lattice.m))
    tiles = [leaf for mode in ("p2", "p3")
             for leaf in tilings.deflate(tilings.seed(mode), 5).leaves()]
    edges = [(b - a,) for t in tiles for a, b in itertools.combinations(t.vertices, 2)]
    verify = [(tilings.deflate(tilings.seed(mode), VERIFY_DEPTH),) for mode in ("p2", "p3")]
    tiles_found = sum(len(tilings.pair_tiles(p).tiles) for p, in verify)
    return {
        "field.fe_mul_ns": _per_call(mul, pairs) * 1e9,
        "field.fe_add_ns": _per_call(add, pairs) * 1e9,
        "field.fe_sign_ns": _per_call(q.field.FieldElem.sign, diffs) * 1e9,
        "field.rref_3x3_us": _per_call(q.field.KMatrix.rank, subsets) * 1e6,
        "intlattice.snf_relations_us": _per_call(lambda rows, m: q.intlattice.snf(rows, ncols=m),
                                                 relations) * 1e6,
        "tilings.norm_squared_us": _per_call(tilings.Cyclo.norm_squared, edges) * 1e6,
        "tilings.cross_sign_us": _per_call(tilings.cross_sign, [t.vertices for t in tiles]) * 1e6,
        "tilings.verify_patch_s": _per_call(tilings.verify_patch, verify),
        "tilings.pair_tiles_s": _per_call(tilings.pair_tiles, verify),
        # whole tiles x 2 / half-tiles: the share of leaves merged into tiles
        "tilings.pair_yield": 2 * tiles_found / sum(len(p.leaves()) for p, in verify),
    }
