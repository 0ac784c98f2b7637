"""Command-line interface.

Commands
    validate   check a triple document (or shipped example)
    present    level-set presentation, text or JSON
    charts     vertex charts
    classify   manifold / orbifold / quasifold report (exit 2 on refusal)
    cut        split a triple along a hyperplane and present both halves
    tile       deflate a seed half-tile into a patch document
    render     SVG from a patch document (or the roots-of-unity star)
    report     presentation plus charts in one document

Exit codes: 0 success, 2 mathematically meaningful refusal (nonsimple
polytope, degenerate cut) or work over a budget (tile leaves, rays
held), 1 anything else (usage errors included).
Refusals are structured JSON on stderr.  QTK_PRECISION sets SVG float digits (an
integer 1..17, default 12).  The cyclic garbage collector is paused while a command runs.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from typing import Any, Callable, Optional

from . import construction, examples, jsonio, tilings
from .construction import (DegenerateTripleError, NonsimpleTripleError,
                           build_charts, build_presentation, classify,
                           cut_and_present, emit_report)
from .field import KVector, parse_field_elem
from .jsonio import ParseError
from .polytope import DegenerateCutError, VertexBudgetError

MAX_STAR_ARROWS = 1000   # `render --star` bound: about 100 bytes of SVG an arrow


def _svg_digits() -> int:
    raw = os.environ.get("QTK_PRECISION", "12")
    try:
        return max(1, min(int(raw), 17))
    except ValueError:
        raise ValueError(f"QTK_PRECISION must be an integer (1 to 17), got {raw!r}") from None


def _load_triple(args: argparse.Namespace) -> construction.Triple:
    if args.example:
        return examples.get_example(args.example)
    with open(args.input, "r", encoding="utf-8") as fh:
        return jsonio.parse_triple(json.load(fh))


def _send(path: Optional[str], emit: Callable[[Callable[[str], Any]], None]) -> None:
    """Call `emit` with the `write` of a new file at `path`, or of stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh.write)
    else:
        emit(sys.stdout.write)


def _write(text: str, path: Optional[str]) -> None:
    _send(path, lambda write: write(text))


def _refuse(kind: str, detail: dict) -> int:
    sys.stderr.write(json.dumps({"refusal": kind, **detail}, sort_keys=True) + "\n")
    return 2


def cmd_validate(args: argparse.Namespace) -> int:
    triple = _load_triple(args)
    report = triple.polytope.validate()
    doc = {"bounded": report.bounded, "full_dim": report.full_dim,
           "irredundant_facets": report.irredundant_facets,
           "simple": report.simple, "vertex_count": report.vertex_count,
           "certified_normals": len(triple.certificates)}
    _write(jsonio.dumps_canonical(doc), args.output)
    return 0 if report.valid else 1


def cmd_present(args: argparse.Namespace) -> int:
    triple = _load_triple(args)
    pres = build_presentation(triple)
    _write(emit_report(pres, None, args.format), args.output)
    return 0


def cmd_charts(args: argparse.Namespace) -> int:
    triple = _load_triple(args)
    charts = build_charts(triple)
    if args.format == "text":
        pres = build_presentation(triple)
        _write(emit_report(pres, charts, "text"), args.output)
    else:
        _write(jsonio.dumps_canonical(jsonio.encode_charts(charts)), args.output)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    triple = _load_triple(args)
    cls = classify(triple)
    _write(jsonio.dumps_canonical(jsonio.encode_classification(cls)), args.output)
    if not cls.simple:
        return _refuse("nonsimple-polytope", {"kind": cls.kind})
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    triple = _load_triple(args)
    pres = build_presentation(triple)
    charts = build_charts(triple)
    _write(emit_report(pres, charts, args.format), args.output)
    return 0


def cmd_cut(args: argparse.Namespace) -> int:
    triple = _load_triple(args)
    if args.axis_of:
        if args.axis_of != "kite":
            raise ValueError("--axis-of currently knows only 'kite'")
        normal, level = examples.kite_axis_cut()
    else:
        if not args.normal or args.level is None:
            raise ValueError("cut needs --normal and --level (or --axis-of)")
        # the halves hold the triple's rationals and the cut's: one digit budget for all
        fes = [x for v in triple.lattice.generators for x in v]
        fes += [x for h in triple.polytope.halfspaces for x in (*h.normal, h.level)]
        written = "".join(r for x in fes for r in jsonio.encode_fe(x).values())
        digits = sum(map(str.isdigit, written + args.normal + args.level))
        if digits > jsonio.MAX_TRIPLE_DIGITS:
            raise ValueError(f"--normal, --level and the triple: {digits} digits, over "
                             f"{jsonio.MAX_TRIPLE_DIGITS}")
        d = triple.lattice.field_d
        parts = [p.strip() for p in args.normal.split(",")]
        if len(parts) != triple.polytope.dim:
            raise ValueError(f"--normal needs {triple.polytope.dim} comma-separated "
                             f"entries (the polytope dimension), got {len(parts)}")
        normal = KVector([parse_field_elem(p, d) for p in parts])
        level = parse_field_elem(args.level, d)
    t_plus, t_minus, p_plus, p_minus = cut_and_present(triple, normal, level)
    doc = {"schema_version": jsonio.SCHEMA_VERSION,
           "plus": {"triple": jsonio.encode_triple(t_plus),
                    "presentation": jsonio.encode_presentation(p_plus)},
           "minus": {"triple": jsonio.encode_triple(t_minus),
                     "presentation": jsonio.encode_presentation(p_minus)}}
    _write(jsonio.dumps_canonical(doc), args.output)
    return 0


def cmd_tile(args: argparse.Namespace) -> int:
    roots = 2 if args.doubled else 1
    leaves = tilings.leaf_count(args.seed, roots, args.steps)
    if leaves > tilings.MAX_TILE_LEAVES:
        return _refuse("tile-budget", {"leaves": leaves, "budget": tilings.MAX_TILE_LEAVES})
    patch = tilings.seed(args.type, args.seed)
    if args.doubled:
        patch = tilings.mirror_double(patch)
    _send(args.output, lambda write: jsonio.write_patch(patch, write, args.steps))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    digits = _svg_digits()
    if args.star is not None:
        if not 1 <= args.star <= MAX_STAR_ARROWS:
            raise ValueError(f"--star takes 1 to {MAX_STAR_ARROWS} arrows, got {args.star}")
        _write(tilings.render_star(args.star, digits), args.output)
        return 0
    # checked before the output is opened; the text, held by the callee alone, is freed then
    if args.input == "-" or args.input is None:
        mode, depth, source = jsonio.read_patch_text(sys.stdin.read())
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            mode, depth, source = jsonio.read_patch_text(fh.read())
    source = tilings.pair_tiles(source, mode).tiles if args.paired else source
    _send(args.output, lambda write: tilings.write_svg(source, write, digits, depth))
    return 0


@functools.cache   # one parser per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quasitoric", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, fmt: bool = True) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="triple JSON file")
        src.add_argument("--example", choices=sorted(examples.EXAMPLES),
                         help="shipped example name")
        p.add_argument("--output", help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="validate a triple")
    add_io(p, fmt=False)
    p.set_defaults(func=cmd_validate)

    for name, fn in (("present", cmd_present), ("charts", cmd_charts),
                     ("report", cmd_report)):
        p = sub.add_parser(name)
        add_io(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("classify", help="classification report (exit 2 on refusal)")
    add_io(p, fmt=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cut", help="symplectic cut at the polytope level")
    add_io(p, fmt=False)
    p.add_argument("--normal", help="comma-separated field elements, e.g. '1,-1'")
    p.add_argument("--level", help="field element, e.g. '0' or '1/2+1/2sqrt5'")
    p.add_argument("--axis-of", dest="axis_of",
                   help="named cut convention (kite: the symmetry axis)")
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("tile", help="deflate a seed half-tile")
    p.add_argument("--type", choices=("p2", "p3"), required=True)
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--seed", choices=("acute", "obtuse"), default="acute")
    p.add_argument("--doubled", action="store_true",
                   help="start from the mirror-doubled whole tile")
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("render", help="SVG output")
    p.add_argument("--input", help="patch JSON file ('-' for stdin)")
    p.add_argument("--star", type=int, nargs="?", const=5, default=None,
                   help=f"draw the roots-of-unity star instead (default 5, 1 to {MAX_STAR_ARROWS})")
    p.add_argument("--paired", action="store_true",
                   help="merge half-tiles into whole tiles first")
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # The cyclic collector is paused: patch trees hold no cycles, yet rescanning them took
    # 18% of penrose-write.  Commands leave no object in a cycle (the JSON and patch writers
    # and the patch reader recurse at module level, not through closures); building the
    # parser, once per process, leaves 97 argparse objects to the next collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # after --help (0) or a usage error (2; 2 is for refusals here)
        return 1 if exc.code else 0
    except NonsimpleTripleError as exc:
        return _refuse("nonsimple-polytope", {"kind": exc.classification.kind})
    except DegenerateCutError as exc:
        return _refuse("degenerate-cut", {"detail": str(exc)})
    except VertexBudgetError as exc:
        candidates, budget = exc.args
        return _refuse("vertex-budget", {"budget": budget, "candidates": candidates})
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    except RecursionError:
        sys.stderr.write("parse error: $: document nested too deeply\n")
        return 1
    except (ValueError, OSError, json.JSONDecodeError, DegenerateTripleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
