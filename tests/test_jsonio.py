"""The canonical emitter against `json.dumps(sort_keys=True, indent=2)`, the
patch writer against compact `json.dumps`, and the patch decoder's two entry
points against each other."""
import contextlib
import copy
import io
import json
import random
from fractions import Fraction

import pytest

from quasitoric import jsonio, tilings
from quasitoric.cli import main
from quasitoric.construction import build_charts, build_presentation, classify
from quasitoric.examples import EXAMPLES, get_example
from quasitoric.field import FieldElem
from quasitoric.tilings import HalfTile, Patch, deflate, mirror_double, seed

CHARS = "az Z09\"\\/\x00\x01\x1f\x7f\n\t\r\b\féü中 \ud800😀"
FLOATS = (0.0, -0.0, 0.1, -2.5, 1e300, 1e-300, float("inf"), float("-inf"), float("nan"))


def _text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def _scalar(rng):
    pick = rng.randrange(7)
    if pick == 0:
        return _text(rng)
    if pick == 1:
        return rng.randint(-10, 10)
    if pick == 2:
        return rng.choice((-1, 1)) * rng.getrandbits(rng.randrange(64, 300))
    if pick == 3:
        return rng.choice((True, False))
    if pick == 4:
        return None
    if pick == 5:
        return rng.choice(FLOATS)
    return rng.uniform(-1e6, 1e6)


def _doc(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _scalar(rng)
    size = rng.randrange(5)    # 0 gives the empty container
    kind = rng.randrange(3)
    if kind == 0:
        return {_text(rng): _doc(rng, depth - 1) for _ in range(size)}
    items = [_doc(rng, depth - 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def _reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _compact(doc):
    """The bytes `tile` writes for the patch document `doc`."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_dumps_canonical_matches_json_on_random_documents():
    rng = random.Random(20260503)
    for _ in range(600):
        doc = _doc(rng, 5)
        assert jsonio.dumps_canonical(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [{}, [], (), {"": {}}, [[], {}, ()], "", 0, None,
                                 {"b": 1, "a": [True, None, -0.0]},
                                 {1: "int key", 2.5: "float key"},
                                 {True: 1, False: 2}, {None: 0}])
def test_dumps_canonical_edge_cases(doc):
    assert jsonio.dumps_canonical(doc) == _reference(doc)


def test_unsupported_values_raise_like_json():
    for doc in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            jsonio.dumps_canonical(doc)


def test_encode_fe_writes_what_fraction_writes():
    rng = random.Random(15)
    for _ in range(500):
        a = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        b = Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 6, 10 ** 30)))
        for x in (FieldElem(a, b, 5), FieldElem(a, 0, 0), FieldElem(0, b, 2)):
            expected = {"a": str(x.a), **({"b": str(x.b)} if x.d else {})}
            assert jsonio.encode_fe(x) == expected


@pytest.mark.parametrize("raw", ["1e1000000", "-1e20000", "1.5", "-.5", "3/2e1", " 3", "3 ",
                                 "1_000", "1//2", "٣", "0x10", "inf", ""])
def test_rationals_are_digit_strings_only(raw):
    # Fraction reads most of these; the cost of '1e1000000' grows with its exponent
    with pytest.raises(jsonio.ParseError) as exc:
        jsonio.decode_fe({"a": "1", "b": raw}, 5, "$.x")
    assert exc.value.path == "$.x.b"
    assert str(exc.value) == f"$.x.b: bad rational {raw!r}: expected digits p or p/q, like '-3/2'"


def test_signed_digit_rationals_parse():
    for raw, value in (("0", 0), ("-7", -7), ("+7", 7), ("-3/2", Fraction(-3, 2)),
                       ("007/0014", Fraction(1, 2)), ("9" * 400, int("9" * 400))):
        assert jsonio.decode_fe({"a": raw}, 0, "$") == FieldElem(value)


def test_an_exponent_level_is_refused_at_its_path_before_any_construction(tmp_path, capsys):
    doc = jsonio.encode_triple(get_example("sphere"))
    doc["polytope"]["halfspaces"][0]["lambda"] = {"a": "-1e20000"}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", "parse error: $.polytope.halfspaces[0].lambda.a: bad "
                                       "rational '-1e20000': expected digits p or p/q, like "
                                       "'-3/2'\n")


def test_encoding_presentations_and_charts_makes_no_fraction(monkeypatch):
    built = []
    for name in EXAMPLES:
        triple = get_example(name)
        if classify(triple).simple:
            built.append((build_presentation(triple), build_charts(triple)))
    new, made = Fraction.__new__, []

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    texts = [jsonio.dumps_canonical(jsonio.encode_presentation(p))
             + jsonio.dumps_canonical(jsonio.encode_charts(c)) for p, c in built]
    assert len(texts) == 11 and not made


@pytest.mark.parametrize("flush", [1, 5, jsonio._FLUSH_PARTS])
def test_write_patch_pieces_join_to_dumps(flush, monkeypatch):
    monkeypatch.setattr(jsonio, "_FLUSH_PARTS", flush)
    patch = deflate(mirror_double(seed("p3", "acute")), 8)
    pieces = []
    jsonio.write_patch(patch, pieces.append)
    assert len(pieces) > 1                       # streamed, not one string
    text = "".join(pieces)
    assert text == _compact(jsonio.encode_patch(patch))
    assert jsonio.dumps_canonical(json.loads(text)) == _reference(jsonio.encode_patch(patch))
    pieces, empty = [], Patch("p2", (), 3)
    jsonio.write_patch(empty, pieces.append)
    assert "".join(pieces) == _compact(jsonio.encode_patch(empty))
    for start, steps in [(seed("p2"), 7), (mirror_double(seed("p3", "obtuse")), 6),
                         (deflate(seed("p2", "obtuse"), 3), 4), (seed("p3"), 0),
                         (empty, 0), (empty, 2)]:
        pieces = []
        jsonio.write_patch(start, pieces.append, steps)   # grown as it is written
        doc = jsonio.encode_patch(deflate(start, steps))
        text = "".join(pieces)
        assert text == _compact(doc)
        assert jsonio.dumps_canonical(json.loads(text)) == jsonio.dumps_canonical(doc)


SEEDS = [(mode, kind, doubled) for mode in ("p2", "p3") for kind in ("acute", "obtuse")
         for doubled in (False, True)]


def _start(mode, kind, doubled):
    return mirror_double(seed(mode, kind)) if doubled else seed(mode, kind)


def _tile_text(mode, kind, doubled, depth):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["tile", "--type", mode, "--seed", kind, "--steps", str(depth)]
                    + (["--doubled"] if doubled else [])) == 0
    return out.getvalue()


def _hooked(text):
    return jsonio.parse_patch(json.loads(text, object_hook=jsonio.patch_hook()))


def _vertices(patch):
    stack, out = list(patch.roots), []
    while stack:
        node = stack.pop()
        out.extend(node.tile.vertices)
        stack.extend(node.children)
    return out


@pytest.mark.parametrize("mode, kind, doubled", SEEDS)
def test_tile_writes_the_encoded_patch(mode, kind, doubled, tmp_path):
    start = _start(mode, kind, doubled)
    out = tmp_path / "patch.json"
    for depth in range(7):
        doc = jsonio.encode_patch(deflate(start, depth))
        text = _tile_text(mode, kind, doubled, depth)
        assert text == _compact(doc)
        assert jsonio.dumps_canonical(json.loads(text)) == jsonio.dumps_canonical(doc)
        assert main(["tile", "--type", mode, "--seed", kind, "--steps", str(depth),
                     "--output", str(out)] + (["--doubled"] if doubled else [])) == 0
        assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("mode, kind, doubled", SEEDS)
def test_decoded_patches_re_emit_the_tile_bytes(mode, kind, doubled):
    for depth in range(7):
        text = _tile_text(mode, kind, doubled, depth)
        grown = deflate(_start(mode, kind, doubled), depth)
        assert jsonio.dumps_canonical(json.loads(text)) == jsonio.dumps_canonical(
            jsonio.encode_patch(grown))
        for patch in (_hooked(text), jsonio.parse_patch(json.loads(text))):
            assert _compact(jsonio.encode_patch(patch)) == text
            verts = _vertices(patch)
            assert len({id(v) for v in verts}) == len({v.c for v in verts})   # one Cyclo per point


def test_shapes_are_checked_once_per_distinct_key(monkeypatch):
    text = _tile_text("p3", "acute", True, 6)
    calls = []
    check = HalfTile.check_shape
    monkeypatch.setattr(HalfTile, "check_shape",
                        lambda tile, mode: calls.append(tile) or check(tile, mode))
    table = {}
    monkeypatch.setattr(tilings, "_RULES", table)
    _hooked(text)
    # the two roots, then the children of each table entry as it is made
    assert len(calls) == 2 + sum(len(rule) for rule in table.values())
    assert 0 < len(table) <= 40     # 2 kinds x 10 directions x 2 chiralities
    calls.clear()
    _hooked(text)                   # the table outlives the document: the roots only
    assert len(calls) == 2


def _leaf(doc):
    return doc["roots"][0]["children"][1]["children"][0]


def _fault_bool(doc):
    _leaf(doc)["vertices"][1][2] = True


def _fault_float(doc):
    _leaf(doc)["vertices"][1][2] = 1.0


def _fault_bool_twin(doc):
    # [1, 1, 0, -1] decodes first in $.roots[0].children[0].children[0]
    doc["roots"][0]["children"][1]["children"][2]["vertices"][1][0] = True


def _fault_non_node_child(doc):
    doc["roots"][0]["children"][1]["children"][0] = 1


def _fault_short_vertex(doc):
    _leaf(doc)["vertices"][0] = [0, 0, 0]


def _fault_kind(doc):
    doc["roots"][0]["children"][1]["kind"] = "kite"


def _fault_children(doc):
    _leaf(doc)["children"] = {}


def _fault_shallow_leaf(doc):
    doc["roots"][0]["children"][1]["children"] = []


def _fault_deep_node(doc):
    _leaf(doc)["children"] = [copy.deepcopy(_leaf(doc))]


def _fault_shape(doc):
    a, b1, b2 = _leaf(doc)["vertices"]
    _leaf(doc)["vertices"] = [a, b1, [2 * x - y for x, y in zip(b2, a)]]


def _fault_reordered(doc):
    doc["roots"][0]["children"][1]["children"].reverse()


LEAF = "$.roots[0].children[1].children[0]"


@pytest.mark.parametrize("fault, path, message", [
    (_fault_bool, LEAF + ".vertices", "expected three 4-integer vectors"),
    (_fault_float, LEAF + ".vertices", "expected three 4-integer vectors"),
    (_fault_bool_twin, "$.roots[0].children[1].children[2].vertices",
     "expected three 4-integer vectors"),
    (_fault_non_node_child, LEAF, "expected a node with kind acute|obtuse"),
    (_fault_short_vertex, LEAF + ".vertices", "expected three 4-integer vectors"),
    (_fault_kind, "$.roots[0].children[1]", "expected a node with kind acute|obtuse"),
    (_fault_children, LEAF + ".children", "expected a list"),
    (_fault_shallow_leaf, "$.roots[0].children[1]",
     "leaf at tree depth 1, but every leaf must sit at depth 2"),
    (_fault_deep_node, LEAF, "node with children at tree depth 2, but every leaf must sit "
                             "at depth 2"),
    (_fault_shape, LEAF + ".vertices", "obtuse half-tile is not isosceles"),
    (_fault_reordered, "$.roots[0].children[1].children",
     "child 0 is not the p2 substitution of the parent"),
])
def test_both_entry_points_report_a_fault_alike(fault, path, message):
    doc = jsonio.encode_patch(deflate(seed("p2"), 2))
    fault(doc)
    text = json.dumps(doc)
    errors = []
    for load in (lambda: _hooked(text), lambda: jsonio.parse_patch(json.loads(text))):
        with pytest.raises(jsonio.ParseError) as exc:
            load()
        errors.append((exc.value.path, str(exc.value)))
    assert errors[0] == errors[1] == (path, f"{path}: {message}")
