import json
import re

import pytest

from quasitoric import jsonio, tilings
from quasitoric.cli import main
from quasitoric.construction import build_presentation
from quasitoric.examples import EXAMPLES, get_example
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
    doc = json.loads(out_path.read_text())
    pres = jsonio.parse_presentation(doc)
    assert pres == build_presentation(get_example("quasisphere"))
    # byte determinism
    again = jsonio.dumps_canonical(jsonio.encode_presentation(pres))
    assert again == out_path.read_text()


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


def test_render_star(capsys):
    code, out, _ = run(capsys, "render", "--star")
    assert code == 0
    assert out.count("<line") == 5


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
