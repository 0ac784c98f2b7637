"""Output checks, written against the mathematics rather than the code under test.

Each check returns None when the op's output is right, or a one-line reason.
Expected values come from the plan (known vertex counts, the benchmark's own
float geometry, the substitution recurrence) or are recomputed here from the
op's input document; nothing is read back from the library.
"""
from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction

from plans import parse_fe

KINDS = ("manifold", "orbifold", "quasifold")


def check(op: dict, rc, exc, stderr: str, solids: dict) -> str | None:
    if exc is not None:
        return f"raised {exc}"
    if rc != op["rc"]:
        return f"exit {rc}, expected {op['rc']}: {stderr.strip()[:200]}"
    exp = op["expect"]
    if op["rc"] == 2:
        try:
            refusal = json.loads(stderr.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "refusal is not JSON on stderr"
        if refusal.get("refusal") != "nonsimple-polytope":
            return f"unexpected refusal {refusal}"
        if exp["type"] != "classify":
            return None
    kind = exp["type"]
    if kind == "render":
        with open(op["out"], encoding="utf-8") as fh:
            return _check_render(exp, fh.read())
    with open(op["out"], encoding="utf-8") as fh:
        doc = json.load(fh)
    if kind == "validate":
        want = {"bounded": True, "full_dim": True, "irredundant_facets": True,
                "simple": exp["simple"], "vertex_count": exp["vertices"],
                "certified_normals": exp["facets"]}
        return None if doc == want else f"validate gave {doc}, expected {want}"
    if kind == "classify":
        if doc.get("simple") != exp["simple"]:
            return f"simple={doc.get('simple')}"
        if not exp["simple"]:
            ok = doc.get("chart_kinds") is None and str(doc.get("kind")).startswith("stratified")
            return None if ok else f"nonsimple classification {doc}"
        kinds = doc.get("chart_kinds") or []
        if len(kinds) != exp["vertices"]:
            return f"{len(kinds)} charts for {exp['vertices']} vertices"
        if doc.get("kind") not in KINDS or any(k not in KINDS for k in kinds):
            return f"unknown kinds {doc.get('kind')} {kinds}"
        return None
    if kind == "report":
        return (_check_presentation(doc, exp["facets"], exp["n"])
                or (None if len(doc.get("charts", [])) == exp["vertices"]
                    else f"{len(doc.get('charts', []))} charts for {exp['vertices']} vertices"))
    if kind == "cut":
        return _check_cut(exp, doc, solids[exp["solid"]])
    if kind == "tile":
        return _check_tile(exp, doc)
    return f"no check for {kind}"


def _check_presentation(doc: dict, facets: int, n: int) -> str | None:
    if doc.get("facets") != facets or doc.get("dim") != n:
        return f"presentation of {doc.get('facets')} facets in dim {doc.get('dim')}"
    if len(doc.get("level_rows", [])) != facets - n:
        return f"{len(doc.get('level_rows', []))} level rows, expected {facets - n}"
    return None


def _check_cut(exp: dict, doc: dict, parent: dict) -> str | None:
    gens = [[parse_fe(x) for x in g] for g in parent["quasilattice"]["generators"]]
    normal = [(Fraction(a), Fraction(b)) for a, b in exp["normal"]]
    level = Fraction(exp["level"][0])
    for side, sign in (("plus", 1), ("minus", -1)):
        half = doc[side]["triple"]["polytope"]["halfspaces"]
        kept = exp["kept"][side]
        if len(half) != len(kept) + 1:
            return f"{side} half has {len(half)} facets, expected {len(kept) + 1}"
        for h, j in zip(half, kept):
            src = parent["polytope"]["halfspaces"][j]
            if ([parse_fe(x) for x in h["normal"]] != [parse_fe(x) for x in src["normal"]]
                    or parse_fe(h["lambda"]) != parse_fe(src["lambda"])):
                return f"{side} half does not keep facet {j}"
        new = half[-1]
        want = [(sign * a, sign * b) for a, b in normal]
        if [parse_fe(x) for x in new["normal"]] != want:
            return f"{side} cut facet normal differs"
        if parse_fe(new["lambda"]) != (sign * level, 0):
            return f"{side} cut facet level differs"
        cert = new["certificate"]
        combo = [(sum((c * g[k][0] for c, g in zip(cert, gens)), Fraction(0)),
                  sum((c * g[k][1] for c, g in zip(cert, gens)), Fraction(0)))
                 for k in range(len(normal))]
        if combo != want:
            return f"{side} cut certificate does not re-substitute"
        bad = _check_presentation(doc[side]["presentation"], len(half), exp["n"])
        if bad:
            return f"{side}: {bad}"
    return None


def _leaves(doc: dict):
    """Yield (kind, vertices, depth) of every leaf, in the patch's leaf order."""
    stack = [(r, 0) for r in reversed(doc["roots"])]
    while stack:
        node, depth = stack.pop()
        children = node.get("children") or []
        if children:
            stack.extend((c, depth + 1) for c in reversed(children))
        else:
            yield node["kind"], node["vertices"], depth


def _check_tile(exp: dict, doc: dict) -> str | None:
    if doc.get("mode") != exp["mode"] or doc.get("depth") != exp["depth"]:
        return f"patch mode/depth {doc.get('mode')}/{doc.get('depth')}"
    if len(doc.get("roots", [])) != exp["roots"]:
        return f"{len(doc.get('roots', []))} roots, expected {exp['roots']}"
    counts = {"acute": 0, "obtuse": 0}
    for kind, verts, depth in _leaves(doc):
        if depth != exp["depth"]:
            return f"leaf at depth {depth}, expected {exp['depth']}"
        if len(verts) != 3 or any(len(v) != 4 for v in verts):
            return "leaf vertices are not three Z[zeta5] vectors"
        counts[kind] += 1
    return None if counts == exp["counts"] else f"leaves {counts}, expected {exp['counts']}"


_ZETA = cmath.exp(2j * cmath.pi / 5)
_PHI = (1 + math.sqrt(5)) / 2
_VIEWBOX = re.compile(r'viewBox="([^"]*)"')
_POLYGON = re.compile(r'<polygon points="([^"]*)"')


def _to_point(c: list, scale: float) -> complex:
    return sum(a * _ZETA ** k for k, a in enumerate(c)) * scale


def _pairs(mode: str, leaves: list) -> list:
    """Whole tiles: mirror mates sharing their glue edge (the axis a->b2 in
    p2, the base b1b2 with point-symmetric apexes in p3)."""
    groups: dict = {}
    for i, (kind, (a, b1, b2), _) in enumerate(leaves):
        key = (kind, tuple(a), tuple(b2)) if mode == "p2" else (kind, frozenset((tuple(b1), tuple(b2))))
        groups.setdefault(key, []).append(i)
    tiles = []
    for group in groups.values():
        if len(group) != 2:
            continue
        (_, (a, b1, b2), _), (_, (a2, c1, _), _) = leaves[group[0]], leaves[group[1]]
        if mode == "p2":
            tiles.append((a, b1, b2, c1))
        elif [x + y - z for x, y, z in zip(b1, b2, a)] == a2:
            tiles.append((a, b1, a2, b2))
    return tiles


def _viewbox(points: list) -> list:
    if not points:
        return [0.0, 0.0, 1.0, 1.0]
    xs, ys = [p.real for p in points], [p.imag for p in points]
    w, h = max(xs) - min(xs), max(ys) - min(ys)
    pad = 0.05 * max(w, h, 1.0)
    return [min(xs) - pad, min(ys) - pad, w + 2 * pad, h + 2 * pad]


def _check_render(exp: dict, svg: str) -> str | None:
    """Polygon count and drawing extent; a paired drawing uses the same
    phi^-depth scale as the plain drawing of the same patch."""
    with open(exp["doc"], encoding="utf-8") as fh:
        doc = json.load(fh)
    leaves = list(_leaves(doc))
    scale = _PHI ** -doc["depth"]
    polys = [v for _, v, _ in leaves]
    if exp["paired"]:
        polys = _pairs(doc["mode"], leaves)
    found = _POLYGON.findall(svg)
    if len(found) != len(polys):
        return f"{len(found)} polygons, expected {len(polys)}"
    corners = 4 if exp["paired"] else 3
    if any(len(p.split()) != corners for p in found):
        return f"polygons without {corners} corners"
    want = _viewbox([_to_point(v, scale) for poly in polys for v in poly])
    m = _VIEWBOX.search(svg)
    got = [float(x) for x in m.group(1).split()] if m else []
    if len(got) != 4 or any(abs(g - w) > 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want)):
        return ("extent " + " ".join(f"{x:.6g}" for x in got) + ", expected "
                + " ".join(f"{x:.6g}" for x in want))
    return None
