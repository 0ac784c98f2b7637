"""Span tracing from outside the library.

`Tracer.install` replaces each public function at the name its callers look
up (a module attribute, a name a caller imported, or a class attribute for
methods) with a wrapper that records a span: name, start, end, parent span
and op id.  `uninstall` puts the originals back, so untraced ops run the
library exactly as shipped.  Spans stay in memory until `dump`.

Functions too hot to wrap (FieldElem arithmetic, Cyclo arithmetic) are timed
by the microkernels instead; `HalfTile.check_shape` is only counted.
"""
from __future__ import annotations

import json
import time


class _JsonProxy:
    """Stands in for the `json` module inside `quasitoric.cli`, so that only
    the CLI's own `json.load` calls are traced."""

    def __init__(self, load) -> None:
        self.load = load

    def __getattr__(self, attr: str):
        return getattr(json, attr)


def _targets(q) -> list:
    """(span name, [(owner, attribute)], info) for every traced function.

    `info` maps a result to a number kept with the span.  Every site of one
    span holds the same function object.
    """
    cli, construction, examples = q.cli, q.construction, q.examples
    jsonio, polytope, quasilattice = q.jsonio, q.polytope, q.quasilattice
    intlattice, field, tilings = q.intlattice, q.field, q.tilings
    n = len
    return [
        ("examples.get_example", [(examples, "get_example")], None),
        ("examples.kite_axis_cut", [(examples, "kite_axis_cut")], None),
        ("jsonio.parse_triple", [(jsonio, "parse_triple")], None),
        ("jsonio.parse_patch", [(jsonio, "parse_patch")], None),
        ("jsonio.encode_triple", [(jsonio, "encode_triple")], None),
        ("jsonio.encode_presentation", [(jsonio, "encode_presentation")], None),
        ("jsonio.encode_charts", [(jsonio, "encode_charts")], None),
        ("jsonio.encode_classification", [(jsonio, "encode_classification")], None),
        ("jsonio.encode_patch", [(jsonio, "encode_patch")], None),
        ("jsonio.dumps_canonical", [(jsonio, "dumps_canonical")], n),
        ("construction.build_presentation",
         [(cli, "build_presentation"), (construction, "build_presentation")], None),
        ("construction.build_charts", [(cli, "build_charts"), (construction, "build_charts")], n),
        ("construction.classify", [(cli, "classify"), (construction, "classify")], None),
        ("construction.cut_and_present", [(cli, "cut_and_present")], None),
        ("construction.emit_report", [(cli, "emit_report")], None),
        ("polytope.is_bounded", [(polytope.PolytopeH, "is_bounded")], None),
        ("polytope.vertices", [(polytope.PolytopeH, "vertices")], n),
        ("polytope.validate", [(polytope.PolytopeH, "validate")], None),
        ("polytope.cut_with_maps", [(construction, "cut_with_maps"), (polytope, "cut_with_maps")],
         None),
        ("quasilattice.member", [(quasilattice, "member"), (jsonio, "member")], None),
        ("quasilattice.quotient_by", [(construction, "quotient_by"), (quasilattice, "quotient_by")],
         None),
        ("quasilattice.relation_lattice", [(quasilattice, "relation_lattice")], None),
        ("intlattice.snf", [(quasilattice, "snf"), (intlattice, "snf")], None),
        ("intlattice.int_solve", [(construction, "int_solve"), (quasilattice, "int_solve"),
                                  (intlattice, "int_solve")], None),
        ("intlattice.hnf", [(intlattice, "hnf")], None),
        ("field.rank", [(field.KMatrix, "rank")], None),
        ("field.solve", [(field.KMatrix, "solve")], None),
        ("field.kernel_basis", [(field.KMatrix, "kernel_basis")], None),
        ("field.parse_field_elem", [(cli, "parse_field_elem")], None),
        ("tilings.seed", [(tilings, "seed")], None),
        ("tilings.mirror_double", [(tilings, "mirror_double")], None),
        ("tilings.deflate", [(tilings, "deflate")], None),
        ("tilings.pair_tiles", [(tilings, "pair_tiles")], lambda r: len(r.tiles)),
        ("tilings.render_svg", [(tilings, "render_svg")], n),
    ]


class Tracer:
    def __init__(self, q) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index, op id, info]
        self.counts: dict[str, int] = {}
        self.op: str | None = None
        self._stack: list[int] = []
        self._swaps: list[tuple] = []     # (owner, attribute, original, wrapper)
        for name, sites, info in _targets(q):
            original = getattr(*sites[0])
            wrapper = self.wrap(name, original, info)
            for owner, attr in sites:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
                self._swaps.append((owner, attr, original, wrapper))
        self._swaps.append((q.cli, "json", q.cli.json,
                            _JsonProxy(self.wrap("jsonio.json_load", json.load))))
        shape = q.tilings.HalfTile.check_shape
        self._swaps.append((q.tilings.HalfTile, "check_shape", shape,
                            self.count("tilings.check_shape", shape)))

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, op_id: str) -> None:
        self.op = op_id
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
        self.op = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")
