import gc
import io
import itertools
import json
import math
import re
import sys
import tracemalloc
from collections import Counter

import pytest

from quasitoric import cli, construction, field, jsonio, polytope, quasilattice, tilings
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


def _unit(n, i):
    return KVector([fe(int(k == i)) for k in range(n)])


def _invalid_triple(name):
    """An unbounded or empty polytope over Z^n: no vertex, so never simple."""
    polytopes = {
        "half-line": PolytopeH(1, [HalfSpace(_unit(1, 0), fe(0))]),
        "empty": PolytopeH(1, [HalfSpace(_unit(1, 0), fe(1)), HalfSpace(-_unit(1, 0), fe(0))]),
        "quadrant": PolytopeH(2, [HalfSpace(_unit(2, 0), fe(0)), HalfSpace(_unit(2, 1), fe(0))]),
    }
    p = polytopes[name]
    return Triple.build(p, Quasilattice(p.dim, tuple(_unit(p.dim, i) for i in range(p.dim))))


@pytest.mark.parametrize("name", ["half-line", "empty", "quadrant"])
def test_invalid_triples_are_errors_for_classify_too(name, tmp_path, capsys):
    # an invalid polytope is an error (exit 1), not a nonsimple refusal (exit 2)
    path = tmp_path / "triple.json"
    path.write_text(jsonio.dumps_canonical(jsonio.encode_triple(_invalid_triple(name))))
    results = [run(capsys, command, "--input", str(path))
               for command in ("classify", "charts", "report")]
    assert results[0][:2] == (1, "") and results[0][2].startswith("error: invalid polytope: ")
    assert results == [results[0]] * 3
    with pytest.raises(construction.DegenerateTripleError):
        construction.classify(_invalid_triple(name))


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
    # the last three are supporting hyperplanes with the whole polytope on their
    # negative side: at the sphere's end, on a face of the cube, and at the
    # kite's vertex (1, 1) alone
    for example, normal, level in [("sphere", "1", "7"), ("sphere", "1", "1"),
                                   ("cube", "1,0,0", "1"), ("kite", "1,1", "2")]:
        code, _out, err = run(capsys, "cut", "--example", example,
                              f"--normal={normal}", "--level", level)
        assert code == 2, (example, normal, level, err)
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


def _relabelled_p3():   # a p2 tree whose every node matches the p2 table
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    doc["mode"] = "p3"
    return doc


def _a_root_leaf():
    doc = jsonio.encode_patch(deflate(tilings.mirror_double(seed("p3")), 2))
    doc["roots"][1]["children"] = []
    return doc


def _a_p3_root():   # a valid p3 tree as the second root of a p2 patch
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    doc["roots"].append(jsonio.encode_patch(deflate(seed("p3", "obtuse"), 2))["roots"][0])
    return doc


def _a_grafted_subtree():   # a valid depth-1 tree of the right height, in the wrong place
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    doc["roots"][0]["children"][2] = jsonio.encode_patch(deflate(seed("p2"), 1))["roots"][0]
    return doc


@pytest.mark.parametrize("make, message", [
    (_relabelled_p3, "$.roots[0].vertices: bad shape for p3 acute half-tile"),
    (_a_root_leaf, "$.roots[1]: leaf at tree depth 0, but every leaf must sit at depth 2"),
    (_a_p3_root, "$.roots[1].vertices: bad shape for p2 obtuse half-tile"),
    (_a_grafted_subtree,
     "$.roots[0].children: child 2 is not the p2 substitution of the parent"),
])
@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_verified_subtrees_are_refused_where_they_do_not_fit(make, message, flags, tmp_path,
                                                             capsys):
    # every subtree below the fault passes the check made while the document decodes
    bad, svg = tmp_path / "bad.json", tmp_path / "out.svg"
    bad.write_text(json.dumps(make()))
    code, out, err = run(capsys, "render", "--input", str(bad), "--output", str(svg), *flags)
    assert (code, out, err) == (1, "", f"parse error: {message}\n")
    assert not svg.exists()
    with pytest.raises(jsonio.ParseError) as exc:
        jsonio.parse_patch(json.loads(bad.read_text()))
    assert str(exc.value) == message


def _with_a_stray_leaf(where):
    """A p2 depth-2 document holding a copy of one of its leaves outside the tree: under an
    extra key of the document or of the root, or in a list a repeated key replaces."""
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    leaf = json.dumps(doc["roots"][0]["children"][0]["children"][0])
    text, root = json.dumps(doc), json.dumps(doc["roots"][0])
    return {"document key": text[:-1] + ', "note": ' + leaf + "}",
            "node key": text.replace(root, root[:-1] + ', "note": ' + leaf + "}"),
            "repeated children": text.replace(root, '{"children": [' + leaf + "], " + root[1:]),
            "repeated roots": '{"roots": [' + leaf + "], " + text[1:]}[where]


@pytest.mark.parametrize("where", ["document key", "node key", "repeated children",
                                   "repeated roots"])
@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_render_draws_the_leaves_of_the_tree_alone(where, flags, tmp_path, capsys):
    # each leaf object is decoded and listed as it is read; only the roots' leaves are drawn
    path = tmp_path / "patch.json"
    path.write_text(json.dumps(jsonio.encode_patch(deflate(seed("p2"), 2))))
    code, clean, _ = run(capsys, "render", "--input", str(path), *flags)
    assert code == 0
    path.write_text(_with_a_stray_leaf(where))
    assert run(capsys, "render", "--input", str(path), *flags) == (0, clean, "")
    patch = jsonio.parse_patch(json.loads(path.read_text()))
    source = tilings.pair_tiles(patch).tiles if flags else patch
    assert clean == tilings.render_svg(source, 12, patch.depth)


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
    monkeypatch.setattr(polytope, "MAX_RAYS", 10)
    calls = []
    # a presentation's elimination and its Smith form
    for owner, name in ((construction, "_eliminate"), (field, "_eliminate"), (quasilattice, "snf")):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, m=method, **k: calls.append(a) or m(*a, **k))
    for command in ("validate", "present", "classify", "report"):
        code, out, err = run(capsys, command, "--input", str(doc))
        assert (code, out) == (2, "")
        # refused as soon as the double description holds one ray more than the cap
        assert json.loads(err) == {"refusal": "vertex-budget", "candidates": 11, "budget": 10}
    assert calls == []
    # the spies do see a presentation that is not refused
    assert run(capsys, "present", "--example", "cube")[0] == 0 and calls


def test_a_seventy_facet_triple_is_answered(tmp_path, capsys):
    doc = tmp_path / "triple.json"
    doc.write_text(jsonio.dumps_canonical(jsonio.encode_triple(_many_facet_triple(70))))
    code, out, _ = run(capsys, "validate", "--input", str(doc))
    report = json.loads(out)
    assert code == 1 and report["vertex_count"] == 15
    assert report["bounded"] and report["full_dim"] and not report["irredundant_facets"]


def test_vertex_budget_boundary(capsys, monkeypatch):
    # the icosahedron: at most 18 rays held after any row
    monkeypatch.setattr(polytope, "MAX_RAYS", 18)
    code, out, _ = run(capsys, "validate", "--example", "icosahedron")
    assert code == 0 and json.loads(out)["vertex_count"] == 12
    monkeypatch.setattr(polytope, "MAX_RAYS", 17)
    code, out, err = run(capsys, "validate", "--example", "icosahedron")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"refusal": "vertex-budget", "candidates": 18, "budget": 17}


def test_cut_halves_inherit_their_facet_contact_dimensions(capsys, monkeypatch):
    calls = []
    kernel_line = polytope._kernel_line
    monkeypatch.setattr(polytope, "_kernel_line", lambda *a: calls.append(a) or kernel_line(*a))
    code, out, _ = run(capsys, "cut", "--example", "cube", "--normal", "1,0,0", "--level", "1/2")
    assert code == 0 and json.loads(out)["plus"]["triple"]
    # n + 1 = 4 first rays for the cube and for each untrimmed half; none for the trimmed ones
    assert len(calls) == 12


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


def _deepen(doc):   # relabel a depth-2 tree as depth 3: every leaf off the patch depth
    doc["depth"] = 3


@pytest.mark.parametrize("fault, err", [
    (_deepen, "parse error: $.roots[0].children[0].children[0]: leaf at tree depth 2, but "
              "every leaf must sit at depth 3\n"),
    (_move_leaf, "parse error: $.roots[0].children[1].children: child 0 is not the p2 "
                 "substitution of the parent\n"),
])
@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_render_of_a_faulty_document_leaves_an_existing_output_as_it_was(fault, err, flags,
                                                                          tmp_path, capsys):
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    fault(doc)
    bad, svg = tmp_path / "bad.json", tmp_path / "out.svg"
    bad.write_text(json.dumps(doc))
    svg.write_bytes(b"<svg>an earlier drawing</svg>\n")
    assert run(capsys, "render", "--input", str(bad), "--output", str(svg), *flags) == (1, "", err)
    assert svg.read_bytes() == b"<svg>an earlier drawing</svg>\n"


@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_render_to_stdout_writes_the_bytes_of_render_to_a_file(flags, tmp_path, capsys):
    doc, svg = tmp_path / "patch.json", tmp_path / "out.svg"
    tile = ["tile", "--type", "p3", "--steps", "7", "--doubled", "--output", str(doc)]
    assert run(capsys, *tile) == (0, "", "")
    code, stdout, _ = run(capsys, "render", "--input", str(doc), *flags)
    assert code == 0 and stdout.count("<polygon") > 10 * tilings._SVG_CHUNK   # many pieces
    assert run(capsys, "render", "--input", str(doc), "--output", str(svg), *flags) == (0, "", "")
    assert svg.read_bytes() == stdout.encode()
    patch = jsonio.parse_patch(json.loads(doc.read_text()))
    source = tilings.pair_tiles(patch).tiles if flags else patch
    assert stdout == tilings.render_svg(source, 12, patch.depth)


@pytest.mark.parametrize("value", ["x", "", "12.5", "1e3"])
@pytest.mark.parametrize("argv", [["render", "--star"], ["render", "--input", "missing.json"]])
def test_a_non_integer_precision_is_an_error_before_any_input_or_output(value, argv, tmp_path,
                                                                        capsys, monkeypatch):
    monkeypatch.setenv("QTK_PRECISION", value)
    monkeypatch.chdir(tmp_path)
    svg = tmp_path / "out.svg"
    svg.write_bytes(b"kept\n")
    assert run(capsys, *argv, "--output", str(svg)) == (
        1, "", f"error: QTK_PRECISION must be an integer (1 to 17), got {value!r}\n")
    assert svg.read_bytes() == b"kept\n"


@pytest.mark.parametrize("value, digits", [("0", 1), ("-4", 1), ("40", 17), (" 3 ", 3)])
def test_an_integer_precision_is_clamped_to_1_through_17(value, digits, capsys, monkeypatch):
    monkeypatch.setenv("QTK_PRECISION", value)
    assert run(capsys, "render", "--star", "1") == (0, tilings.render_star(1, digits), "")


def test_render_keeps_the_leaf_list_not_the_tree(tmp_path, capsys, monkeypatch):
    doc, svg = tmp_path / "patch.json", tmp_path / "out.svg"
    assert run(capsys, "tile", "--type", "p2", "--steps", "8", "--output", str(doc)) == (0, "", "")
    size = doc.stat().st_size   # 361 804 bytes
    render = ["render", "--input", str(doc), "--output", str(svg)]
    assert run(capsys, *render) == (0, "", "")   # warm: the table knows every key
    made = {"Node": 0, "HalfTile": 0}
    for name in made:
        init = getattr(tilings, name).__init__
        monkeypatch.setattr(getattr(tilings, name), "__init__",
                            lambda self, *args, name=name, init=init: made.update(
                                {name: made[name] + 1}) or init(self, *args))
    assert run(capsys, *render) == (0, "", "")
    assert made == {"Node": 0, "HalfTile": 1}   # the one root's, for its shape test
    monkeypatch.undo()
    gc.collect()
    tracemalloc.start()
    try:
        assert main(render) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text while it is written again in place, the leaf list and the point table
    assert peak < 3.5 * size, (peak, size)


def _written(mode, steps, kind="acute"):   # `tile`'s text, of a doubled seed
    parts = []
    jsonio.write_patch(tilings.mirror_double(seed(mode, kind)), parts.append, steps)
    return "".join(parts)


def _render_text(capsys, monkeypatch, text, *flags):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run(capsys, "render", "--input", "-", *flags)


def _spy(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _loaded(text, leaves):   # for `jsonio._as_written`: every text goes to the hook route
    raise ValueError("loaded")


@pytest.mark.parametrize("mode, kind, steps", [("p2", "acute", 2), ("p3", "obtuse", 3)])
def test_one_byte_edits_render_as_through_the_hook(mode, kind, steps, capsys, monkeypatch):
    # `tile`'s text is read by writing it again; each edit of it must give the exit code,
    # stderr and SVG that the hook route (`patch_hook`, `read_patch`, `write_svg`) gives
    text = _written(mode, steps, kind)
    edits = [text[:i] + str((int(c) + 1) % 10) + text[i + 1:]
             for i, c in enumerate(text) if c.isdigit()]
    edits += [text[:i] + text[i + 1:] for i in range(len(text))]
    hooked = []
    _spy(monkeypatch, jsonio, "patch_hook", hooked)
    read = [_render_text(capsys, monkeypatch, text)]
    assert hooked == []
    read += [_render_text(capsys, monkeypatch, t) for t in edits]
    assert len(hooked) == len(edits)   # each edit is loaded
    monkeypatch.setattr(jsonio, "_as_written", _loaded)
    assert read == [_render_text(capsys, monkeypatch, t) for t in [text] + edits]
    codes = Counter(code for code, _, _ in read)
    assert codes[0] > 1 and codes[1] > 1, codes   # edits drawn (145 for p2) and refused


def _relabelled_leaf():   # a root of no p3 shape, with no children whose shapes fail
    return _written("p2", 0).replace('"mode":"p2"', '"mode":"p3"')


def _a_root_then_its_tile():   # a leaf root after the last, of its tile: the same last piece
    text = _written("p2", 2)
    stop = len(text) - len(jsonio._PATCH_END)
    leaf = jsonio._OPEN + text[text.rindex('],"kind":'):stop]
    return text[:stop] + "," + leaf + jsonio._PATCH_END


@pytest.mark.parametrize("make, message", [
    (_relabelled_leaf, "$.roots[0].vertices: bad shape for p3 acute half-tile"),
    (_a_root_then_its_tile, "$.roots[2]: leaf at tree depth 0, but every leaf must sit at "
                            "depth 2"),
])
def test_texts_next_to_tiles_are_refused_by_the_hook_route(make, message, capsys,
                                                          monkeypatch):
    hooked = []
    _spy(monkeypatch, jsonio, "patch_hook", hooked)
    assert _render_text(capsys, monkeypatch, make()) == (1, "", f"parse error: {message}\n")
    assert hooked == ["patch_hook"]


@pytest.mark.parametrize("how", ["file", "stdin", "paired"])
def test_render_reads_tiles_text_without_decoding_it(how, tmp_path, capsys, monkeypatch):
    text = _written("p2", 3)
    path = tmp_path / "patch.json"
    path.write_text(text)
    argv = ["render", "--input", "-" if how == "stdin" else str(path)]
    argv += ["--paired"] if how == "paired" else []
    with monkeypatch.context() as hooked:
        hooked.setattr(jsonio, "_as_written", _loaded)
        hooked.setattr(sys, "stdin", io.StringIO(text))
        expected = run(capsys, *argv)
    calls = []
    for owner, name in [(cli.json, "load"), (cli.json, "loads"), (jsonio, "patch_hook")]:
        _spy(monkeypatch, owner, name, calls)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, *argv) == expected and expected[0] == 0
    assert calls == []


@pytest.mark.parametrize("depth", ["99999", "40"])
def test_render_of_a_deeper_depth_takes_the_hook_route_and_grows_no_leaf(depth, capsys,
                                                                         monkeypatch):
    # over the leaf budget `tile` keeps (40) or past any depth it writes (99999)
    text = _written("p2", 3).replace('{"depth":3,', '{"depth":%s,' % depth, 1)
    message = (f"parse error: $.roots[0].children[0].children[0].children[0]: leaf at tree "
               f"depth 3, but every leaf must sit at depth {depth}\n")
    calls = []
    for owner, name in [(jsonio, "_emit"), (jsonio, "patch_hook")]:
        _spy(monkeypatch, owner, name, calls)
    assert _render_text(capsys, monkeypatch, text) == (1, "", message)
    assert calls == ["patch_hook"]


def _apex_moved(doc):
    doc["roots"][-1]["vertices"][0][0] += 1


def _relabelled(doc):
    doc["mode"] = "p3"


def _one_level_short(doc):
    doc["depth"] += 1


@pytest.mark.parametrize("fault, message", [
    (_apex_moved, "$.roots[1].vertices: acute half-tile is not isosceles"),
    (_relabelled, "$.roots[0].vertices: bad shape for p3 acute half-tile"),
    (_one_level_short, "$.roots[0]" + ".children[0]" * 7
     + ": leaf at tree depth 7, but every leaf must sit at depth 8"),
])
@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_a_refusal_grows_only_what_verify_patch_reads(fault, message, flags, tmp_path, capsys,
                                                      monkeypatch):
    # 3 192 nodes: the subtrees the decoding check passed are not grown again to be refused
    doc = jsonio.encode_patch(deflate(tilings.mirror_double(seed("p2")), 7))
    fault(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    made = []
    init = tilings.Node.__init__
    monkeypatch.setattr(tilings.Node, "__init__",
                        lambda self, *args: made.append(1) or init(self, *args))
    code, out, err = run(capsys, "render", "--input", str(path), *flags)
    assert (code, out, err) == (1, "", f"parse error: {message}\n")
    assert len(made) < 100, len(made)
    monkeypatch.undo()
    with pytest.raises(jsonio.ParseError) as exc:
        jsonio.parse_patch(json.loads(path.read_text()))   # and plainly, by `verify_patch`
    assert str(exc.value) == message


def test_write_svg_holds_the_point_texts_not_the_drawing():
    patch = deflate(seed("p2"), 8)   # 2 584 leaves, built before tracing starts
    sizes = []
    gc.collect()
    tracemalloc.start()
    try:
        tilings.write_svg(patch, lambda piece: sizes.append(len(piece)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The "x,y" table of the 1 365 distinct points is about a third of the text; the old
    # `render_svg` peaked at twice the text (its polygon list and two joined copies).
    assert len(sizes) > 40 and max(sizes) < 16_000
    assert peak < sum(sizes) / 2, (peak, sum(sizes))
