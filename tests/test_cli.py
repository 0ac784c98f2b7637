import gc
import io
import itertools
import json
import math
import re
import sys
import tracemalloc

import pytest

from quasitoric import construction, field, jsonio, polytope, quasilattice, tilings
from quasitoric.cli import MAX_STAR_ARROWS, build_parser, main
from quasitoric.construction import Triple, build_presentation
from quasitoric.examples import EXAMPLES, get_example
from quasitoric.field import KVector, fe
from quasitoric.polytope import HalfSpace, PolytopeH
from quasitoric.quasilattice import Quasilattice
from quasitoric.tilings import deflate, seed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_every_example(tmp_path, capsys):
    for name in EXAMPLES:
        code, out, _err = run(capsys, "validate", "--example", name)
        assert code == 0, name
        doc = json.loads(out)
        assert doc["bounded"] and doc["full_dim"]


def test_present_kite_text(capsys):
    code, out, _ = run(capsys, "present", "--example", "kite")
    assert code == 0
    assert out.count("= ") >= 2         # two level equations
    assert "continuous torus directions" in out


def test_present_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "pres.json"
    code, _, _ = run(capsys, "present", "--example", "quasisphere",
                     "--format", "json", "--output", str(out_path))
    assert code == 0
    pres = build_presentation(get_example("quasisphere"))
    assert out_path.read_text() == jsonio.dumps_canonical(jsonio.encode_presentation(pres))
    # byte determinism
    code, again, _ = run(capsys, "present", "--example", "quasisphere", "--format", "json")
    assert (code, again) == (0, out_path.read_text())


def test_classify_octahedron_exit_2(capsys):
    code, out, err = run(capsys, "classify", "--example", "octahedron")
    assert code == 2
    assert json.loads(out)["kind"] == "stratified-by-manifolds"
    refusal = json.loads(err)
    assert refusal["refusal"] == "nonsimple-polytope"


def test_present_octahedron_refused(capsys):
    code, _out, err = run(capsys, "present", "--example", "octahedron")
    assert code == 2
    assert "nonsimple" in err


def test_classify_dodecahedron(capsys):
    code, out, _ = run(capsys, "classify", "--example", "dodecahedron")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "quasifold" and len(doc["chart_kinds"]) == 20


def test_charts_json(capsys):
    code, out, _ = run(capsys, "charts", "--example", "orbisphere",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["charts"]) == 2


def test_cut_axis_of_kite(tmp_path, capsys):
    out_path = tmp_path / "cut.json"
    code, _, _ = run(capsys, "cut", "--example", "kite", "--axis-of", "kite",
                     "--output", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    gens = doc["minus"]["presentation"]["cont_gens"]
    assert gens == [[{"a": "1", "b": "0"}, {"a": "1/2", "b": "1/2"},
                     {"a": "1/2", "b": "1/2"}]]
    # both halves parse back into valid triples
    for half in ("plus", "minus"):
        t = jsonio.parse_triple(doc[half]["triple"])
        assert t.polytope.d == 3


def test_cut_with_explicit_normal(capsys):
    code, out, _ = run(capsys, "cut", "--example", "sphere",
                       "--normal", "1", "--level", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["plus"]["presentation"]["level_rows"]


@pytest.mark.parametrize("example,normal,dim,given", [
    ("sphere", "1,0", 1, 2), ("kite", "1", 2, 1), ("cube", "1,0,0,0", 3, 4)])
def test_cut_normal_arity_names_the_flag(example, normal, dim, given, capsys):
    code, out, err = run(capsys, "cut", "--example", example,
                         "--normal", normal, "--level", "0")
    assert (code, out) == (1, "")
    assert err == (f"error: --normal needs {dim} comma-separated entries "
                   f"(the polytope dimension), got {given}\n")


@pytest.mark.parametrize("example, normal, level, bad", [
    ("sphere", "1/0", "1", "1/0"), ("sphere", "1", "1/0", "1/0"),
    ("quasisphere", "1", "1+1/0sqrt5", "1+1/0sqrt5")])
def test_cut_zero_denominator_is_an_error(example, normal, level, bad, capsys):
    code, out, err = run(capsys, "cut", "--example", example, "--normal", normal,
                         "--level", level)
    assert (code, out) == (1, "")
    assert err == f"error: zero denominator in field element {bad!r}\n"


def test_cut_degenerate_exit_2(capsys):
    code, _out, err = run(capsys, "cut", "--example", "sphere",
                          "--normal", "1", "--level", "7")
    assert code == 2
    assert json.loads(err)["refusal"] == "degenerate-cut"


def test_tile_render_pipeline(tmp_path, capsys):
    patch_path = tmp_path / "patch.json"
    code, _, _ = run(capsys, "tile", "--type", "p2", "--steps", "4",
                     "--output", str(patch_path))
    assert code == 0
    doc = json.loads(patch_path.read_text())
    patch = jsonio.parse_patch(doc)
    assert patch.depth == 4
    svg_path = tmp_path / "patch.svg"
    code, _, _ = run(capsys, "render", "--input", str(patch_path),
                     "--output", str(svg_path))
    assert code == 0
    assert svg_path.read_text().count("<polygon") == 34 + 21


def test_tile_doubled_and_paired_render(tmp_path, capsys):
    patch_path = tmp_path / "patch.json"
    code, _, _ = run(capsys, "tile", "--type", "p3", "--steps", "2",
                     "--doubled", "--output", str(patch_path))
    assert code == 0
    code, out, _ = run(capsys, "render", "--input", str(patch_path), "--paired")
    assert code == 0
    assert "<polygon" in out



def test_consecutive_calls_share_no_flags(tmp_path, capsys):
    # one parser serves every call of a process: a flag given once must not stick
    patch = str(tmp_path / "patch.json")
    tile = ["tile", "--type", "p2", "--steps", "2"]
    plain = [run(capsys, *tile)[1] for _ in range(2)]
    doubled = run(capsys, *tile, "--doubled", "--seed", "obtuse")[1]
    assert run(capsys, *tile)[1] == plain[0] == plain[1] != doubled
    assert run(capsys, *tile, "--output", patch)[:2] == (0, "")
    renders = [run(capsys, "render", "--input", patch, *flags)[1]
               for flags in ([], ["--paired"], [], ["--star", "3"], [], ["--paired"])]
    assert renders[0] == renders[2] == renders[4] != renders[1] == renders[5]
    assert renders[3].count("<line") == 3
    assert run(capsys, "render", "--star")[1].count("<line") == 5   # the const, not 3
    args = build_parser().parse_args(tile)
    assert (args.doubled, args.seed, args.output) == (False, "acute", None)
    assert build_parser() is build_parser()


def test_commands_leave_no_reference_cycles(tmp_path, capsys):
    # garbage in a cycle outlives its command until some later collection,
    # so one command's output text could share the next command's peak memory
    patch = str(tmp_path / "patch.json")
    argvs = (["tile", "--type", "p3", "--steps", "4", "--output", patch],
             ["render", "--input", patch], ["render", "--input", patch, "--paired"],
             ["report", "--example", "cube", "--format", "json"])
    was = gc.isenabled()
    gc.disable()
    try:
        for argv in argvs:   # builds the parser, which lives as long as the process
            main(argv)
        gc.collect()
        for argv in argvs:
            assert main(argv) == 0
            assert gc.collect() == 0, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()

def test_render_star(capsys):
    code, out, _ = run(capsys, "render", "--star")
    assert code == 0
    assert out.count("<line") == 5


@pytest.mark.parametrize("count", ["0", "-3", "1000000000"])
def test_render_star_out_of_range_is_a_usage_error(count, tmp_path, capsys, monkeypatch):
    class Unread(io.StringIO):
        def read(self, *args):
            raise AssertionError("stdin read")

    monkeypatch.setattr(sys, "stdin", Unread())
    svg = tmp_path / "star.svg"
    code, out, err = run(capsys, "render", "--star", count, "--output", str(svg))
    assert (code, out) == (1, "") and not svg.exists()
    assert err == f"error: --star takes 1 to {MAX_STAR_ARROWS} arrows, got {count}\n"
    assert run(capsys, "render", "--star", str(MAX_STAR_ARROWS))[1].count("<line") == 1000


def test_patch_roundtrip_bytes(tmp_path, capsys):
    patch = deflate(seed("p3", "acute"), 3)
    doc = jsonio.encode_patch(patch)
    text = jsonio.dumps_canonical(doc)
    again = jsonio.parse_patch(json.loads(text))
    assert again == patch
    assert jsonio.dumps_canonical(jsonio.encode_patch(again)) == text


def test_triple_roundtrip_bytes():
    for name in ("quasisphere", "kite", "cube", "prolate_rhombohedron"):
        t = get_example(name)
        text = jsonio.dumps_canonical(jsonio.encode_triple(t))
        again = jsonio.parse_triple(json.loads(text))
        assert jsonio.dumps_canonical(jsonio.encode_triple(again)) == text


def test_parse_error_names_path(tmp_path, capsys):
    bad = {"schema_version": 1, "field": {"D": 0},
           "polytope": {"dim": 1, "halfspaces": [
               {"normal": [{"a": "1//2"}], "lambda": {"a": "0"}}]},
           "quasilattice": {"dim": 1, "generators": [[{"a": "1"}]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _out, err = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert "halfspaces[0].normal[0].a" in err


def test_parse_rejects_sqrt_part_in_rational_field(tmp_path, capsys):
    bad = {"schema_version": 1, "field": {"D": 0},
           "polytope": {"dim": 1, "halfspaces": [
               {"normal": [{"a": "1", "b": "1"}], "lambda": {"a": "0"}}]},
           "quasilattice": {"dim": 1, "generators": [[{"a": "1"}]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _out, err = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert "sqrt part" in err


def test_certificates_recomputed_when_absent(tmp_path):
    t = get_example("kite")
    doc = jsonio.encode_triple(t)
    for h in doc["polytope"]["halfspaces"]:
        del h["certificate"]
    parsed = jsonio.parse_triple(doc)
    from quasitoric.quasilattice import combination
    for j, cert in enumerate(parsed.certificates):
        assert combination(parsed.lattice, cert) == parsed.polytope.halfspaces[j].normal


def test_certificate_mismatch_rejected(tmp_path, capsys):
    t = get_example("quasisphere")
    doc = jsonio.encode_triple(t)
    doc["polytope"]["halfspaces"][0]["certificate"] = [5, 5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _out, err = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert "certificate" in err


def test_qtk_precision_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QTK_PRECISION", "3")
    code, out, _ = run(capsys, "render", "--star")
    assert code == 0
    for token in out.split('"'):
        if token.replace("-", "").replace(".", "").isdigit() and "." in token:
            assert len(token.split(".")[1]) <= 3


def _svg_points(svg):
    box = [float(v) for v in re.search(r'viewBox="([^"]+)"', svg).group(1).split()]
    pts = [tuple(float(c) for c in pair.split(","))
           for attr in re.findall(r'points="([^"]+)"', svg) for pair in attr.split()]
    return box, pts


@pytest.mark.parametrize("mode", ["p2", "p3"])
def test_paired_render_shares_the_plain_scale(mode, tmp_path, capsys):
    patch_path = tmp_path / "patch.json"
    code, _, _ = run(capsys, "tile", "--type", mode, "--steps", "3", "--doubled",
                     "--output", str(patch_path))
    assert code == 0
    _, plain, _ = run(capsys, "render", "--input", str(patch_path))
    code, paired, _ = run(capsys, "render", "--input", str(patch_path), "--paired")
    assert code == 0
    (x0, y0, w, h), _ = _svg_points(plain)
    _, pts = _svg_points(paired)
    assert pts
    for x, y in pts:
        assert x0 <= x <= x0 + w and y0 <= y <= y0 + h


def test_boolean_certificate_rejected(tmp_path, capsys):
    doc = jsonio.encode_triple(get_example("quasisphere"))
    doc["polytope"]["halfspaces"][0]["certificate"] = [False, True]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _out, err = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert "$.polytope.halfspaces[0].certificate" in err


@pytest.mark.parametrize("d, words", [(4, "not square-free"),
                                      (999999999989, "expected 0 <= D <= 1000000000"),
                                      (-3, "expected 0 <= D"),
                                      (True, None)])
def test_field_d_checked_at_the_parse_boundary(d, words, tmp_path, capsys):
    doc = jsonio.encode_triple(get_example("sphere"))
    doc["field"]["D"] = d
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _out, err = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert err.startswith("parse error: $.field")
    if words:
        assert "$.field.D" in err and words in err


def test_patch_leaves_must_sit_at_the_patch_depth(capsys):
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    doc["depth"] = 5
    with pytest.raises(jsonio.ParseError, match=r"\$\.roots\[0\]\.children\[0\]\.children\[0\]"):
        jsonio.parse_patch(doc)
    doc["depth"] = 1
    with pytest.raises(jsonio.ParseError, match=r"^\$\.roots\[0\]\.children\[0\]: node with"):
        jsonio.parse_patch(doc)
    doc["depth"] = 2
    assert jsonio.parse_patch(doc) == deflate(seed("p2"), 2)


def test_tile_budget_accepts_a_patch_at_the_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tilings, "MAX_TILE_LEAVES", 21)    # depth 3 from one acute seed
    out = tmp_path / "patch.json"
    code, _, err = run(capsys, "tile", "--type", "p2", "--steps", "3", "--output", str(out))
    assert (code, err) == (0, "")
    assert len(jsonio.parse_patch(json.loads(out.read_text())).leaves()) == 21
    code, _, err = run(capsys, "tile", "--type", "p2", "--steps", "4", "--output", str(out))
    assert code == 2
    assert json.loads(err) == {"refusal": "tile-budget", "leaves": 55, "budget": 21}


@pytest.mark.parametrize("steps, leaves", [("13", 317811), ("1000000000", 317811)])
def test_tile_over_budget_refused_before_any_work(steps, leaves, tmp_path, capsys):
    out = tmp_path / "patch.json"
    code, stdout, err = run(capsys, "tile", "--type", "p3", "--steps", steps,
                            "--output", str(out))
    assert (code, stdout) == (2, "")
    assert json.loads(err) == {"refusal": "tile-budget", "leaves": leaves,
                               "budget": tilings.MAX_TILE_LEAVES}
    assert not out.exists()


def test_tile_refuses_negative_steps_before_opening_the_output(tmp_path, capsys):
    out = tmp_path / "patch.json"
    code, stdout, err = run(capsys, "tile", "--type", "p2", "--steps", "-1", "--output", str(out))
    assert (code, stdout, err) == (1, "", "error: steps must be non-negative\n")
    assert not out.exists()


def test_tile_memory_stays_flat_with_depth(tmp_path):
    out = str(tmp_path / "patch.json")
    assert main(["tile", "--type", "p3", "--steps", "3", "--output", out]) == 0   # fills the table
    peaks = {}
    for steps in (5, 9):
        tracemalloc.start()
        try:
            assert main(["tile", "--type", "p3", "--steps", str(steps), "--output", out]) == 0
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[9] < 1 << 20 and peaks[9] - peaks[5] < 1 << 19, peaks


def test_tile_output_file_equals_stdout(tmp_path, capsys):
    argv = ["tile", "--type", "p3", "--steps", "6", "--seed", "obtuse", "--doubled"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    out = tmp_path / "patch.json"
    code, _, _ = run(capsys, *argv, "--output", str(out))
    assert code == 0
    assert out.read_bytes() == stdout.encode()


@pytest.mark.parametrize("command, text", [
    ("render", '{"mode": "p2", "depth": 0, "roots": ' + "[" * 1500 + "]" * 1500 + "}"),
    ("validate", '{"field": {"D": 0}, "quasilattice": ' + '{"a": ' * 1500 + "0"
     + "}" * 1500 + "}"),
])
def test_deeply_nested_document_is_a_parse_error(command, text, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, _, err = run(capsys, command, "--input", str(path))
    assert (code, err) == (1, "parse error: $: document nested too deeply\n")


def _one_tile_patch(vertices):
    return {"schema_version": 1, "mode": "p2", "depth": 0,
            "roots": [{"kind": "acute", "vertices": vertices, "children": []}]}


@pytest.mark.parametrize("vertices, message", [
    ([[0, 0, 0, 0], [7, 0, 0, 0], [0, 1, 0, 0]], "acute half-tile is not isosceles"),
    ([[0, 0, 0, 0]] * 3, "degenerate acute half-tile: zero-length legs"),
])
@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_render_refuses_tiles_of_no_penrose_shape(vertices, message, flags, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_one_tile_patch(vertices)))
    svg = tmp_path / "out.svg"
    code, out, err = run(capsys, "render", "--input", str(path), "--output", str(svg), *flags)
    assert (code, out) == (1, "")
    assert err == f"parse error: $.roots[0].vertices: {message}\n"
    assert not svg.exists()


def test_render_names_the_path_of_a_deep_bad_tile(tmp_path, capsys):
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    node = doc["roots"][0]["children"][1]["children"][0]
    a, b1, b2 = node["vertices"]
    node["vertices"] = [a, b2, [2 * x - y for x, y in zip(b1, a)]]   # one leg doubled
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "render", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("parse error: $.roots[0].children[1].children[0].vertices: ")
    assert "half-tile is not isosceles" in err


def _move_leaf(doc):   # by Cyclo(1): same shape, another place
    leaf = doc["roots"][0]["children"][1]["children"][0]
    leaf["vertices"] = [[v[0] + 1] + v[1:] for v in leaf["vertices"]]


def _reverse_root_children(doc):
    doc["roots"][0]["children"].reverse()


def _swap_child(doc):  # for a leaf of another parent, of valid shape
    kids = doc["roots"][0]["children"]
    kids[0]["children"][0] = dict(kids[1]["children"][0])


@pytest.mark.parametrize("fault, path", [
    (_move_leaf, "$.roots[0].children[1].children: child 0"),
    (_reverse_root_children, "$.roots[0].children: child 0"),
    (_swap_child, "$.roots[0].children[0].children: child 0"),
])
@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_render_refuses_children_that_are_not_the_substitution(fault, path, flags, tmp_path,
                                                               capsys):
    doc = json.loads(jsonio.dumps_canonical(jsonio.encode_patch(deflate(seed("p2"), 2))))
    fault(doc)
    bad, svg = tmp_path / "bad.json", tmp_path / "out.svg"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "render", "--input", str(bad), "--output", str(svg), *flags)
    assert (code, out) == (1, "")
    assert err == f"parse error: {path} is not the p2 substitution of the parent\n"
    assert not svg.exists()


SEEDS = [(mode, kind, doubled) for mode in ("p2", "p3") for kind in ("acute", "obtuse")
         for doubled in (False, True)]


@pytest.mark.parametrize("mode, kind, doubled", SEEDS)
def test_indented_patch_documents_still_render(mode, kind, doubled, tmp_path, capsys):
    # `dumps_canonical` gives the indented text `tile` wrote before its documents were compact
    start = tilings.mirror_double(seed(mode, kind)) if doubled else seed(mode, kind)
    old, new = tmp_path / "indented.json", tmp_path / "compact.json"
    old.write_text(jsonio.dumps_canonical(jsonio.encode_patch(deflate(start, 5))))
    tile = ["tile", "--type", mode, "--seed", kind, "--steps", "5", "--output", str(new)]
    assert run(capsys, *tile, *(["--doubled"] if doubled else [])) == (0, "", "")
    for flags in ([], ["--paired"]):
        svgs = [run(capsys, "render", "--input", str(path), *flags) for path in (old, new)]
        assert svgs[0] == svgs[1] and svgs[0][0] == 0 and "<polygon" in svgs[0][1]


@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_a_moved_child_is_refused_at_its_path_in_either_layout(flags, tmp_path, capsys):
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    _move_leaf(doc)
    old, new = tmp_path / "indented.json", tmp_path / "compact.json"
    old.write_text(jsonio.dumps_canonical(doc))
    new.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    assert "\n    " in old.read_text() and " " not in new.read_text()
    refusals = [run(capsys, "render", "--input", str(path), *flags) for path in (old, new)]
    assert refusals[0] == refusals[1] == (1, "", "parse error: $.roots[0].children[1].children: "
                                          "child 0 is not the p2 substitution of the parent\n")


@pytest.mark.parametrize("mode", ["p2", "p3"])
def test_tile_writes_under_200_bytes_a_leaf(mode, tmp_path, capsys):
    out = tmp_path / "patch.json"
    for steps in range(11):
        assert run(capsys, "tile", "--type", mode, "--steps", str(steps),
                   "--output", str(out)) == (0, "", "")
        leaves = tilings.leaf_count("acute", 1, steps)
        assert out.stat().st_size < 200 * leaves, (steps, out.stat().st_size / leaves)


@pytest.mark.parametrize("argv", [["validate", "--example", "cube", "--format", "json"],
                                  ["tile", "--type", "p2", "--no-such-flag"],
                                  ["render", "--star", "five"],
                                  ["no-such-command"]])
def test_usage_errors_exit_1(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: ") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["render", "--help"]])
def test_help_exits_0(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: ")


def _many_facet_triple(count):
    """A 3-D triple with `count` facets <mu, X> >= -1, X primitive in {-2..2}^3."""
    normals = [x for x in itertools.product(range(-2, 3), repeat=3)
               if any(x) and math.gcd(*x) == 1][:count]
    lattice = Quasilattice(3, tuple(KVector([fe(int(i == j)) for j in range(3)])
                                    for i in range(3)))
    polytope = PolytopeH(3, [HalfSpace(KVector([fe(c) for c in x]), fe(-1)) for x in normals])
    return Triple(polytope, lattice, tuple(normals))


def test_vertex_budget_refuses_before_any_solve(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "triple.json"
    doc.write_text(jsonio.dumps_canonical(jsonio.encode_triple(_many_facet_triple(70))))
    calls = []
    for owner, name in ((polytope, "_kernel_line"),   # per subset in `vertices` and `is_bounded`
                        # a presentation's two eliminations and its Smith form
                        (construction, "_eliminate"), (field, "_eliminate"),
                        (quasilattice, "snf")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, m=method, **k: calls.append(a) or m(*a, **k))
    for command in ("validate", "present", "classify", "report"):
        code, out, err = run(capsys, command, "--input", str(doc))
        assert (code, out) == (2, "")
        # C(70, 3) + C(70, 2) candidate subsets
        assert json.loads(err) == {"refusal": "vertex-budget", "candidates": 57155,
                                   "budget": polytope.MAX_VERTEX_CANDIDATES}
    assert calls == []
    # the spies do see a presentation that is not refused
    assert run(capsys, "present", "--example", "cube")[0] == 0 and calls


def test_vertex_budget_boundary(capsys, monkeypatch):
    # the icosahedron: C(20, 3) + C(20, 2) = 1330 candidates
    monkeypatch.setattr(polytope, "MAX_VERTEX_CANDIDATES", 1330)
    code, out, _ = run(capsys, "validate", "--example", "icosahedron")
    assert code == 0 and json.loads(out)["vertex_count"] == 12
    monkeypatch.setattr(polytope, "MAX_VERTEX_CANDIDATES", 1329)
    code, out, err = run(capsys, "validate", "--example", "icosahedron")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"refusal": "vertex-budget", "candidates": 1330, "budget": 1329}


def test_cut_halves_inherit_their_facet_contact_dimensions(capsys, monkeypatch):
    calls = []
    contact = PolytopeH._facet_contact_dim
    monkeypatch.setattr(PolytopeH, "_facet_contact_dim",
                        lambda p, j: calls.append(j) or contact(p, j))
    code, out, _ = run(capsys, "cut", "--example", "cube", "--normal", "1,0,0", "--level", "1/2")
    assert code == 0 and json.loads(out)["plus"]["triple"]
    # 6 for the cube, 7 + 7 for the untrimmed halves; none for the trimmed ones
    assert len(calls) == 20


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["validate", "--example", "cube"], 0),
    (["validate", "--input", "{doc}"], 1),             # parse error
    (["validate", "--example", "cube", "--no-such-flag"], 1),   # usage error
    (["classify", "--example", "octahedron"], 2),       # refusal
    (["tile", "--type", "p2", "--steps", "1"], None),   # the command raises
])
def test_main_leaves_the_collector_as_it_found_it(argv, code, enabled, tmp_path, capsys,
                                                  monkeypatch):
    doc = tmp_path / "bad.json"
    doc.write_text("{}")
    argv = [a.format(doc=doc) for a in argv]
    during = []

    def raising(*args):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    if code is None:
        monkeypatch.setattr(jsonio, "write_patch", raising)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="boom"):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
        assert during == ([False] if code is None else [])   # paused while it ran
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
