"""The canonical emitter against `json.dumps(sort_keys=True, indent=2)`."""
import json
import random

import pytest

from quasitoric import jsonio
from quasitoric.tilings import deflate, seed

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


def test_write_canonical_pieces_join_to_dumps():
    doc = jsonio.encode_patch(deflate(seed("p3", "acute"), 6))
    pieces = []
    jsonio.write_canonical(doc, pieces.append)
    assert len(pieces) > 1                       # streamed, not one string
    assert "".join(pieces) == jsonio.dumps_canonical(doc) == _reference(doc)
    rng = random.Random(7)
    for _ in range(50):
        doc = _doc(rng, 6)
        pieces = []
        jsonio.write_canonical(doc, pieces.append)
        assert "".join(pieces) == _reference(doc)
