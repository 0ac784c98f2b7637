"""Per-layer metrics derived from the spans of a traced run.

Times and call counts are per traced op (`s/op`, `1/op`), so runs that
complete different numbers of ops compare directly.  A layer that a workload
never enters reads 0 there.
"""
from __future__ import annotations

SELF_TIMES = (
    "examples.get_example", "jsonio.parse_triple", "jsonio.encode_patch",
    "jsonio.dumps_canonical", "jsonio.json_load", "jsonio.parse_patch",
    "construction.build_presentation", "construction.build_charts", "construction.classify",
    "construction.cut_and_present", "construction.emit_report",
    "polytope.is_bounded", "polytope.vertices", "polytope.validate", "polytope.cut_with_maps",
    "quasilattice.quotient_by", "quasilattice.member",
    "intlattice.snf", "intlattice.int_solve", "intlattice.hnf",
    "field.rank", "field.solve", "field.kernel_basis",
    "tilings.deflate", "tilings.render_svg",
)
CALLS = (
    "quasilattice.quotient_by", "quasilattice.relation_lattice", "quasilattice.member",
    "intlattice.snf", "intlattice.int_solve",
    "field.rank", "field.solve", "field.kernel_basis",
)

# name -> unit, for every metric per_layer() and micro.run() report
UNITS = {"cli.self_s": "s/op", "trace.overhead_ratio": "ratio",
         "construction.charts_built": "1/op", "polytope.vertex_yield": "ratio",
         "jsonio.patch_doc_kb": "kB", "tilings.deflate_leaves_per_s": "1/s",
         "tilings.check_shape_calls": "1/op", "tilings.pair_yield": "ratio",
         "tilings.pair_tiles_s": "s",
         "tilings.svg_kb": "kB",
         "field.fe_mul_ns": "ns", "field.fe_add_ns": "ns", "field.fe_sign_ns": "ns",
         "field.rref_3x3_us": "us", "intlattice.snf_relations_us": "us",
         "tilings.norm_squared_us": "us", "tilings.cross_sign_us": "us",
         "tilings.verify_patch_s": "s"}
UNITS.update({f"{name}_s": "s/op" for name in SELF_TIMES})
UNITS.update({f"{name}_calls": "1/op" for name in CALLS})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, manifest: dict, records: list) -> dict:
    ops = {op["id"]: op for ops in manifest["rounds"] for op in ops}
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    spans = tracer.spans
    self_times = tracer.self_times()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, self_times):
        total[span[0]] = total.get(span[0], 0.0) + own
        calls[span[0]] = calls.get(span[0], 0) + 1

    def spans_of(name: str):
        return [s for s in spans if s[0] == name]

    out = {"cli.self_s": _ratio(total.get("cli.main", 0.0), n)}
    out.update({f"{name}_s": _ratio(total.get(name, 0.0), n) for name in SELF_TIMES})
    out.update({f"{name}_calls": _ratio(calls.get(name, 0), n) for name in CALLS})
    out["construction.charts_built"] = _ratio(
        sum(s[5] for s in spans_of("construction.build_charts") if s[5] is not None), n)

    # vertices found per KMatrix.solve call made while enumerating
    solves_under: dict[int, int] = {}
    for s in spans_of("field.solve"):
        if s[3] >= 0 and spans[s[3]][0] == "polytope.vertices":
            solves_under[s[3]] = solves_under.get(s[3], 0) + 1
    found = sum(spans[i][5] for i in solves_under)
    out["polytope.vertex_yield"] = _ratio(found, sum(solves_under.values()))

    docs = [s[5] for s in spans_of("jsonio.dumps_canonical")
            if ops[s[4]]["expect"]["type"] == "tile"]
    out["jsonio.patch_doc_kb"] = _ratio(sum(docs), len(docs)) / 1024
    deflates = spans_of("tilings.deflate")
    out["tilings.deflate_leaves_per_s"] = _ratio(
        sum(ops[s[4]]["expect"]["created"] for s in deflates),
        sum(s[2] - s[1] for s in deflates))
    out["tilings.check_shape_calls"] = _ratio(
        sum(r["counts"].get("tilings.check_shape", 0) for r in traced), n)
    svgs = [s[5] for s in spans_of("tilings.render_svg")]
    out["tilings.svg_kb"] = _ratio(sum(svgs), len(svgs)) / 1024
    out["trace.overhead_ratio"] = overhead_ratio(ops, records)
    return out


def overhead_ratio(ops: dict, records: list) -> float:
    """Traced / untraced ops per second over classes run both ways.

    Ops of one class do the same work, so the ratio of class mean times is
    the tracing overhead alone: sum of untraced means / sum of traced means.
    """
    times: dict[str, dict[bool, list]] = {}
    for r in records:
        cls = ops[r["id"]]["cls"]
        times.setdefault(cls, {True: [], False: []})[r["traced"]].append(r["end"] - r["start"])
    both = [t for t in times.values() if t[True] and t[False]]
    untraced = sum(sum(t[False]) / len(t[False]) for t in both)
    traced = sum(sum(t[True]) / len(t[True]) for t in both)
    return _ratio(untraced, traced)


def span_table(tracer) -> dict:
    """name -> [calls, self seconds, inclusive seconds], over the whole run."""
    table: dict[str, list] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own
        row[2] += span[2] - span[1]
    return table
