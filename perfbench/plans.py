"""Seeded inputs for the three workloads.

A plan is a list of rounds and a round is a list of ops.  Each op carries the
argv handed to ``quasitoric.cli.main``, the exit code it must return, the
expectations its output is checked against (computed here, never read back
from the code under test) and ``items``, the work units it completes:
polytope vertices for triples ops, half-tiles for Penrose ops.

The seed fixes every input, and no two ops of one plan share an input: a CLI
user pays for a fresh process on every call, so a cache kept across calls
could never serve them and must not serve the benchmark either.

Within a round, ops of the same class (same polytope and command, or same
Penrose kind, doubling and depth) do the same amount of work, so the cost of
a round does not depend on the seed.  Each op also has a ``traced`` flag: in a
traced run only flagged ops are traced, and ops of one class alternate, which
gives the tracing overhead from matched work.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

# penrose-paired is not in BENCHMARK.json: it renders the penrose-read
# documents --paired, which fails its extent check at the commit that added
# the benchmark (see README.md, "Known defect").
WORKLOADS = ("triples", "penrose-write", "penrose-read", "penrose-paired")

# Vertex counts of the shipped examples, from their geometry.
KNOWN_VERTICES = {
    "sphere": 2, "orbisphere": 2, "quasisphere": 2,
    "kite": 4, "thick_rhombus": 4, "thin_rhombus": 4,
    "prolate_rhombohedron": 8, "oblate_rhombohedron": 8, "cube": 8,
    "tetrahedron": 4, "octahedron": 6, "dodecahedron": 20, "icosahedron": 12,
}
NONSIMPLE = ("octahedron", "icosahedron")
SIMPLE = tuple(sorted(set(KNOWN_VERTICES) - set(NONSIMPLE)))

HALF_COMMANDS = ("validate", "classify", "report")
# Round 0 runs each shipped example once.  The command is fixed rather than
# seeded, because report and validate of one example differ a thousandfold in
# output size; the seed varies the cut rounds instead.
EXAMPLE_COMMANDS = {
    "sphere": "validate", "orbisphere": "classify", "quasisphere": "report",
    "kite": "report", "thick_rhombus": "validate", "thin_rhombus": "classify",
    "prolate_rhombohedron": "classify", "oblate_rhombohedron": "report",
    "cube": "validate", "tetrahedron": "report", "octahedron": "report",
    "dodecahedron": "report", "icosahedron": "classify",
}
# Facet counts (cut facet included) of the two halves of every seeded cut of
# each solid: the most common pair for a cut through the middle half of the
# vertex values.  Vertex enumeration cost grows like C(facets, dim), so fixing
# the counts keeps the cost of a round the same for every seed.
HALF_FACETS = {
    "sphere": (2, 2), "orbisphere": (2, 2), "quasisphere": (2, 2),
    "kite": (3, 5), "thick_rhombus": (3, 5), "thin_rhombus": (3, 5),
    "cube": (5, 7), "tetrahedron": (4, 5), "prolate_rhombohedron": (6, 7),
    "oblate_rhombohedron": (5, 7), "dodecahedron": (8, 12),
}
# The half each command reads: index into HALF_FACETS.
HALF_SIDE = {"validate": 1, "classify": 0, "report": 1}
# Rounds of seeded cut ops after round 0: with round 0, about 25 s of work at
# the commit that added the benchmark.
TRIPLE_ROUNDS = 3


def build(workload: str, seed: int, workdir: str, docdir: str) -> dict:
    """Generate the inputs of one run under `workdir`; returns the manifest.

    Penrose documents, which depend on the code under test alone, are named
    under `docdir` and written there by the prepare phase.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    if workload == "triples":
        return _triples(rng, workdir)
    if workload == "penrose-write":
        return _penrose_write(rng, workdir)
    if workload in ("penrose-read", "penrose-paired"):
        return _penrose_read(rng, workdir, docdir, paired=workload == "penrose-paired")
    raise ValueError(f"unknown workload {workload!r}")


def _spread(ops: list) -> list:
    """Put ops in one fixed pseudo-random order, the same for every seed.

    A burst of load from outside then slows a mix of classes rather than all
    ops of one size, and the order of big and small ops, which changed the
    times of small ops when it was seeded, does not change with the seed.
    """
    random.Random("perfbench-order").shuffle(ops)
    return ops


def _op(workdir: str, op_id: str, cls: str, argv: list, ext: str, rc: int,
        items: int, expect: dict, traced: bool) -> dict:
    out = os.path.join(workdir, "out", f"{op_id}.{ext}")
    return {"id": op_id, "cls": cls, "argv": argv + ["--output", out], "out": out,
            "rc": rc, "items": items, "expect": expect, "traced": traced}


# ---------------------------------------------------------------------------
# triples: shipped examples, seeded cuts and the halves of further cuts
# ---------------------------------------------------------------------------
#
# Why: polytope/field elimination dominates the few slow ops (icosahedron
# classify, dodecahedron cut), while construction, quasilattice, intlattice
# and per-command overhead dominate the many small ops on tiles and
# intervals.  An enumeration gain moves ops_per_s and op_tail_ms; a cost paid
# on every small input moves op_p50_ms.


def parse_fe(obj: dict) -> tuple[Fraction, Fraction]:
    return Fraction(obj["a"]), Fraction(obj.get("b", "0"))


def fe_float(x: tuple[Fraction, Fraction], d: int) -> float:
    return float(x[0]) + (float(x[1]) * math.sqrt(d) if d else 0.0)


def _fe_json(x: tuple[Fraction, Fraction], d: int) -> dict:
    out = {"a": str(x[0])}
    if d:
        out["b"] = str(x[1])
    return out


def _fe_arg(x: tuple[Fraction, Fraction], d: int) -> str:
    a, b = x
    if not d or b == 0:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}sqrt{d}"


def _solve(rows: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Gaussian elimination with partial pivoting; None when singular."""
    n = len(rows)
    m = [r[:] + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(m[i][c]))
        if abs(m[p][c]) < 1e-9:
            return None
        m[c], m[p] = m[p], m[c]
        for i in range(n):
            if i != c:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


class Solid:
    """Float model of a shipped simple polytope: vertices, facets, edges."""

    def __init__(self, name: str, doc: dict) -> None:
        self.name, self.doc = name, doc
        self.d = doc["field"]["D"]
        self.n = doc["polytope"]["dim"]
        hs = doc["polytope"]["halfspaces"]
        self.normals = [[fe_float(parse_fe(x), self.d) for x in h["normal"]] for h in hs]
        self.levels = [fe_float(parse_fe(h["lambda"]), self.d) for h in hs]
        self.gens = [[parse_fe(x) for x in g] for g in doc["quasilattice"]["generators"]]
        self.points: list[list[float]] = []
        self.active: list[frozenset[int]] = []
        for subset in itertools.combinations(range(len(hs)), self.n):
            x = _solve([self.normals[j] for j in subset], [self.levels[j] for j in subset])
            if x is None or any(self._slack(j, x) < -1e-9 for j in range(len(hs))):
                continue
            if any(max(abs(a - b) for a, b in zip(x, p)) < 1e-7 for p in self.points):
                continue
            self.points.append(x)
            self.active.append(frozenset(j for j in range(len(hs))
                                         if abs(self._slack(j, x)) < 1e-9))
        # in a simple polytope two vertices span an edge iff they share n-1 facets
        self.edges = [(u, v) for u, v in itertools.combinations(range(len(self.points)), 2)
                      if len(self.active[u] & self.active[v]) == self.n - 1]

    def _slack(self, j: int, x: list[float]) -> float:
        return sum(a * b for a, b in zip(self.normals[j], x)) - self.levels[j]

    def cut(self, rng: random.Random) -> dict:
        """A seeded cut whose halves have the facet counts HALF_FACETS names."""
        for _ in range(10000):
            c = self._cut(rng)
            counts = sorted(len(c[side]["kept"]) + 1 for side in ("plus", "minus"))
            if tuple(counts) == HALF_FACETS[self.name]:
                return c
        raise RuntimeError(f"no cut of {self.name} with halves of {HALF_FACETS[self.name]} facets")

    def _cut(self, rng: random.Random) -> dict:
        """A seeded cut: normal = small integer combination of generators.

        The level is a rational strictly inside a gap between two consecutive
        vertex values, so no vertex lies on the cutting plane and both halves
        are simple.
        """
        while True:
            coeffs = [rng.randint(-2, 2) for _ in self.gens]
            normal = [(sum((c * g[k][0] for c, g in zip(coeffs, self.gens)), Fraction(0)),
                       sum((c * g[k][1] for c, g in zip(coeffs, self.gens)), Fraction(0)))
                      for k in range(self.n)]
            fn = [fe_float(x, self.d) for x in normal]
            values = [sum(a * b for a, b in zip(fn, p)) for p in self.points]
            distinct: list[float] = []
            for v in sorted(values):
                if not distinct or v - distinct[-1] > 1e-6 * max(1.0, abs(v)):
                    distinct.append(v)
            if len(distinct) >= 2:
                break
        # a gap from the middle half, so that both halves keep a share of the facets
        gaps = len(distinct) - 1
        i = rng.randrange(gaps // 4, gaps - gaps // 4)
        level = _between(distinct[i], distinct[i + 1])
        plus = {k for k, v in enumerate(values) if v > level}
        minus = {k for k, v in enumerate(values) if v < level}
        crossing = sum(1 for u, v in self.edges if (u in plus) != (v in plus))
        return {"coeffs": coeffs, "normal": normal, "level": (level, Fraction(0)),
                "plus": {"kept": sorted({j for k in plus for j in self.active[k]}),
                         "vertices": len(plus) + crossing},
                "minus": {"kept": sorted({j for k in minus for j in self.active[k]}),
                          "vertices": len(minus) + crossing}}

    def half_doc(self, cut: dict, side: str) -> dict:
        """Triple document of one half, as `cut` would write it."""
        sign = 1 if side == "plus" else -1
        hs = [self.doc["polytope"]["halfspaces"][j] for j in cut[side]["kept"]]
        hs.append({"normal": [_fe_json((sign * a, sign * b), self.d) for a, b in cut["normal"]],
                   "lambda": _fe_json((sign * cut["level"][0], Fraction(0)), self.d),
                   "certificate": [sign * c for c in cut["coeffs"]]})
        return {"schema_version": 1, "field": self.doc["field"],
                "polytope": {"dim": self.n, "halfspaces": hs},
                "quasilattice": self.doc["quasilattice"]}


def _between(lo: float, hi: float) -> Fraction:
    """The rational of smallest denominator in the middle third of (lo, hi)."""
    a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
    den = 1
    while True:
        num = math.ceil(a * den)
        if num / den <= b:
            return Fraction(num, den)
        den += 1


def _triples(rng: random.Random, workdir: str) -> dict:
    from quasitoric import examples, jsonio
    docs = {name: jsonio.encode_triple(examples.get_example(name)) for name in KNOWN_VERTICES}
    solids = {name: Solid(name, docs[name]) for name in SIMPLE}
    for name, s in solids.items():
        if len(s.points) != KNOWN_VERTICES[name]:
            raise RuntimeError(f"benchmark geometry: {name} has {len(s.points)} vertices")

    first = []
    for name, cmd in EXAMPLE_COMMANDS.items():
        nonsimple = name in NONSIMPLE
        rc = 2 if nonsimple and cmd != "validate" else 0
        first.append(_triple_op(workdir, f"r0-{name}", f"{name}/{cmd}/example", cmd,
                                ["--example", name], rc, docs[name], KNOWN_VERTICES[name],
                                not nonsimple, True))
    rounds = [_spread(first)]
    offsets = {(name, cmd): rng.randrange(2) for name in SIMPLE
               for cmd in ("cut",) + HALF_COMMANDS}
    for r in range(1, TRIPLE_ROUNDS + 1):
        ops = []
        for name in SIMPLE:
            s = solids[name]
            c = s.cut(rng)
            traced = (r + offsets[(name, "cut")]) % 2 == 0
            ops.append(_op(workdir, f"r{r}-{name}-cut", f"{name}/cut",
                           ["cut", "--example", name,
                            "--normal=" + ",".join(_fe_arg(x, s.d) for x in c["normal"]),
                            "--level=" + _fe_arg(c["level"], s.d)],
                           "json", 0, len(s.points) + c["plus"]["vertices"] + c["minus"]["vertices"],
                           {"type": "cut", "solid": name, "n": s.n, "normal": _strs(c["normal"]),
                            "level": _strs([c["level"]])[0],
                            "kept": {side: c[side]["kept"] for side in ("plus", "minus")}},
                           traced))
            for cmd in HALF_COMMANDS:
                c = s.cut(rng)
                want = HALF_FACETS[name][HALF_SIDE[cmd]]
                side = "plus" if len(c["plus"]["kept"]) + 1 == want else "minus"
                doc = s.half_doc(c, side)
                path = os.path.join(workdir, f"r{r}-{name}-{cmd}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                traced = (r + offsets[(name, cmd)]) % 2 == 0
                ops.append(_triple_op(workdir, f"r{r}-{name}-{cmd}", f"{name}/{cmd}", cmd,
                                      ["--input", path], 0, doc, c[side]["vertices"],
                                      True, traced))
        rounds.append(_spread(ops))
    return {"rounds": rounds,
            "solids": {name: docs[name] for name in SIMPLE}}


def _strs(xs) -> list:
    return [[str(a), str(b)] for a, b in xs]


def _triple_op(workdir: str, op_id: str, cls: str, cmd: str, source: list, rc: int,
               doc: dict, vertices: int, simple: bool, traced: bool) -> dict:
    argv = [cmd] + source + (["--format", "json"] if cmd == "report" else [])
    facets = len(doc["polytope"]["halfspaces"])
    return _op(workdir, op_id, cls, argv, "json", rc, vertices,
               {"type": cmd, "vertices": vertices, "facets": facets,
                "n": doc["polytope"]["dim"], "simple": simple}, traced)


# ---------------------------------------------------------------------------
# Penrose workloads
# ---------------------------------------------------------------------------


def leaf_counts(kind: str, doubled: bool, depth: int) -> dict:
    """Half-tiles by kind after `depth` deflations: acute -> 2 acute + 1 obtuse,
    obtuse -> 1 acute + 1 obtuse (F(2N+1), F(2N) from one acute seed)."""
    a, o = (1, 0) if kind == "acute" else (0, 1)
    for _ in range(depth):
        a, o = 2 * a + o, a + o
    m = 2 if doubled else 1
    return {"acute": m * a, "obtuse": m * o}


def penrose_slots(rng: random.Random, classes: list) -> list[tuple]:
    """The (mode, kind, doubled, depth) chooser shared by both Penrose workloads.

    Each (kind, doubled, depth) class runs once in each mode, so the leaf
    counts, and so the work, are the same for every seed; the seed picks which
    op of each pair is traced.  Returns (mode, kind, doubled, depth, traced)
    tuples.
    """
    slots = []
    for kind, doubled, depth in classes:
        traced_mode = rng.choice(("p2", "p3"))
        slots.extend((mode, kind, doubled, depth, mode == traced_mode) for mode in ("p2", "p3"))
    return slots


def _every_class(max_depth: int) -> list:
    return [(kind, doubled, depth) for depth in range(max_depth + 1)
            for kind in ("acute", "obtuse") for doubled in (False, True)]


def _tile_argv(mode: str, kind: str, doubled: bool, depth: int) -> list:
    return (["tile", "--type", mode, "--seed", kind] + (["--doubled"] if doubled else [])
            + ["--steps", str(depth)])


def _slot_name(mode: str, kind: str, doubled: bool, depth: int) -> str:
    return f"{mode}-{kind}-{'doubled' if doubled else 'single'}-d{depth}"


# penrose-write.  Why: tilings.deflate (Cyclo arithmetic, check_shape through
# FieldElem) and jsonio patch encoding do almost all the work; no polytope or
# lattice code runs.  Depth 10 is the `tile --steps 10` of the roadmap.
def _penrose_write(rng: random.Random, workdir: str) -> dict:
    slots = penrose_slots(rng, _every_class(8) + [("acute", False, 9), ("obtuse", False, 9)])
    slots.append((rng.choice(("p2", "p3")), "acute", False, 10, True))
    ops = []
    for mode, kind, doubled, depth, traced in slots:
        counts = leaf_counts(kind, doubled, depth)
        created = sum(sum(leaf_counts(kind, doubled, k).values()) for k in range(1, depth + 1))
        ops.append(_op(workdir, _slot_name(mode, kind, doubled, depth),
                       f"{kind}-{doubled}-{depth}", _tile_argv(mode, kind, doubled, depth),
                       "json", 0, sum(counts.values()),
                       {"type": "tile", "mode": mode, "depth": depth, "counts": counts,
                        "roots": 2 if doubled else 1, "created": created}, traced))
    return {"rounds": [_spread(ops)]}


# penrose-read.  Why: it reads the patch format penrose-write writes
# (json.load, parse_patch, SVG output), so work moved from write to read shows
# here as a loss beside penrose-write's gain.  The documents are written by
# `tile` of the code under test in the prepare phase, and each is read by one
# op.  penrose-paired draws the same documents --paired, through pair_tiles.
def _penrose_read(rng: random.Random, workdir: str, docdir: str, paired: bool) -> dict:
    classes = _every_class(9)
    ops = []
    for mode, kind, doubled, depth, traced in penrose_slots(rng, classes):
        name = _slot_name(mode, kind, doubled, depth)
        doc = os.path.join(docdir, f"{name}.json")
        counts = leaf_counts(kind, doubled, depth)
        op = _op(workdir, name, f"{kind}-{doubled}-{depth}",
                 ["render", "--input", doc] + (["--paired"] if paired else []),
                 "svg", 0, sum(counts.values()),
                 {"type": "render", "mode": mode, "depth": depth, "counts": counts,
                  "paired": paired, "doc": doc}, traced)
        op["prepare"] = _tile_argv(mode, kind, doubled, depth) + ["--output", doc]
        ops.append(op)
    return {"rounds": [_spread(ops)], "docdir": docdir}
