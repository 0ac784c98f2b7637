"""The canonical emitter against `json.dumps(sort_keys=True, indent=2)`, and
the patch decoder's two entry points against each other."""
import contextlib
import copy
import io
import json
import random

import pytest

from quasitoric import jsonio
from quasitoric.cli import main
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


@pytest.mark.parametrize("flush", [1, 5, jsonio._FLUSH_PARTS])
def test_write_patch_pieces_join_to_dumps(flush, monkeypatch):
    monkeypatch.setattr(jsonio, "_FLUSH_PARTS", flush)
    patch = deflate(mirror_double(seed("p3", "acute")), 8)
    pieces = []
    jsonio.write_patch(patch, pieces.append)
    assert len(pieces) > 1                       # streamed, not one string
    assert "".join(pieces) == _reference(jsonio.encode_patch(patch))
    pieces, empty = [], Patch("p2", (), 3)
    jsonio.write_patch(empty, pieces.append)
    assert "".join(pieces) == _reference(jsonio.encode_patch(empty))


SEEDS = [(mode, kind, doubled) for mode in ("p2", "p3") for kind in ("acute", "obtuse")
         for doubled in (False, True)]


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
    start = seed(mode, kind)
    if doubled:
        start = mirror_double(start)
    out = tmp_path / "patch.json"
    for depth in range(7):
        expected = jsonio.dumps_canonical(jsonio.encode_patch(deflate(start, depth)))
        assert _tile_text(mode, kind, doubled, depth) == expected
        assert main(["tile", "--type", mode, "--seed", kind, "--steps", str(depth),
                     "--output", str(out)] + (["--doubled"] if doubled else [])) == 0
        assert out.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("mode, kind, doubled", SEEDS)
def test_decoded_patches_re_emit_the_tile_bytes(mode, kind, doubled):
    for depth in range(6):
        text = _tile_text(mode, kind, doubled, depth)
        for patch in (_hooked(text), jsonio.parse_patch(json.loads(text))):
            assert jsonio.dumps_canonical(jsonio.encode_patch(patch)) == text
            verts = _vertices(patch)
            assert len({id(v) for v in verts}) == len({v.c for v in verts})   # one Cyclo per point


def test_shapes_are_checked_once_per_distinct_key(monkeypatch):
    text = _tile_text("p3", "acute", True, 6)
    calls = []
    check = HalfTile.check_shape
    monkeypatch.setattr(HalfTile, "check_shape",
                        lambda tile, mode: calls.append(tile) or check(tile, mode))
    _hooked(text)
    assert 0 < len(calls) <= 40     # 2 kinds x 10 directions x 2 chiralities


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
