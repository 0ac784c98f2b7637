"""Seeded single-field mutations of a triple and a patch document, and seeded
mutations of every subcommand's command line, through the CLI.

Every case must end in exit 0, 1 or 2 with no traceback: no exception leaves
`main` and stderr holds none.  Every triple that `validate` accepts parses
again, after a canonical round trip, into a `Triple`.  Mutations of a patch
tree that keep every node well formed must each be refused with a node's
path.  Standard-library `random` with fixed seeds; no hypothesis.
"""
import copy
import io
import json
import random
from collections import Counter

import pytest

from quasitoric import construction, jsonio
from quasitoric.cli import main
from quasitoric.examples import get_example
from quasitoric.tilings import Cyclo, HalfTile, Node, Patch, PatchFault, verify_patch

_VALUES = (None, True, False, 0, 1, -1, 2, 10 ** 40, 0.5, "", "0", "1/2", "-3", "1/0",
           "2sqrt5", "1+1sqrt2", "x", [], {}, [0], {"a": "1"})


def _slots(doc):
    """(container, key) of every value below doc."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield doc, key
        yield from _slots(value)


def mutate(doc, rng):
    """A deep copy of doc with one value deleted, nudged or replaced."""
    doc = copy.deepcopy(doc)
    parent, key = rng.choice(list(_slots(doc)))
    value, op = parent[key], rng.randrange(3)
    if op == 0:
        del parent[key]
    elif op == 1 and type(value) is int:
        parent[key] = value + rng.choice((-2, -1, 1, 2))
    elif op == 1 and isinstance(value, str):
        parent[key] = rng.choice(("-" + value, value + "1", value + "sqrt5", value[:-1]))
    else:
        parent[key] = rng.choice(_VALUES)
    return doc


def _run(capsys, *argv):
    try:
        code = main(list(argv))
    except Exception as exc:   # would have been a traceback
        pytest.fail(f"{argv} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
    return code


def test_mutated_triples_end_in_an_exit_code(tmp_path, capsys):
    base = jsonio.encode_triple(get_example("kite"))
    path, rng, codes = tmp_path / "triple.json", random.Random(300), Counter()
    for _ in range(300):
        doc = mutate(base, rng)
        path.write_text(json.dumps(doc))
        code = _run(capsys, "validate", "--input", str(path))
        codes[code] += 1
        if code == 0:
            again = json.loads(jsonio.dumps_canonical(jsonio.encode_triple(jsonio.parse_triple(doc))))
            assert isinstance(jsonio.parse_triple(again), construction.Triple)
    assert codes[0] and codes[1], codes


def test_mutated_patches_end_in_an_exit_code(tmp_path, capsys):
    path = tmp_path / "patch.json"
    assert _run(capsys, "tile", "--type", "p2", "--steps", "3", "--output", str(path)) == 0
    base = json.loads(path.read_text())
    rng, codes = random.Random(100), Counter()
    for _ in range(100):
        path.write_text(json.dumps(mutate(base, rng)))
        codes[_run(capsys, "render", "--input", str(path))] += 1
    assert codes[0] and codes[1], codes


_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1),
          (0, 0, -1, -1))   # 1, zeta, zeta^2, zeta^3, zeta^4 and phi, up to sign


def _nodes(node, path):
    yield path, node
    for i, c in enumerate(node["children"]):
        yield from _nodes(c, path + (i,))


def mutate_tree(doc, rng):
    """A deep copy of the v1 document doc with every node still well formed
    but one child moved by a ring unit, one child swapped for another tile of
    the document, or one node's children reversed."""
    doc = copy.deepcopy(doc)
    nodes = [n for i, r in enumerate(doc["roots"]) for n in _nodes(r, (i,))]
    children = [n for path, n in nodes if len(path) > 1]
    op = rng.randrange(3)
    if op == 0:
        node, sign = rng.choice(children), rng.choice((1, -1))
        unit = rng.choice(_UNITS)
        node["vertices"] = [[x + sign * u for x, u in zip(v, unit)] for v in node["vertices"]]
    elif op == 1:
        node = rng.choice(children)
        other = rng.choice([n for _, n in nodes if (n["kind"], n["vertices"])
                            != (node["kind"], node["vertices"])])
        node["kind"], node["vertices"] = other["kind"], copy.deepcopy(other["vertices"])
    else:
        rng.choice([n for _, n in nodes if n["children"]])["children"].reverse()
    return doc


def test_mutated_patch_trees_are_refused_at_a_node_path(tmp_path, capsys):
    path, svg = tmp_path / "patch.json", tmp_path / "out.svg"
    rng = random.Random(11)
    for mode, kind in (("p2", "acute"), ("p3", "obtuse")):
        assert _run(capsys, "tile", "--type", mode, "--seed", kind, "--steps", "3",
                    "--doubled", "--output", str(path)) == 0
        base = json.loads(path.read_text())
        assert _run(capsys, "render", "--input", str(path), "--output", str(svg)) == 0
        svg.unlink()
        for _ in range(40):
            path.write_text(json.dumps(mutate_tree(base, rng)))
            code = main(["render", "--input", str(path), "--output", str(svg)])
            err = capsys.readouterr().err
            assert code == 1 and err.startswith("parse error: $.roots["), err
            assert not svg.exists()


def _reference(doc):
    """(exit code, stderr) of `render` of `doc`, a patch of well-formed nodes, by a decoder
    apart from `jsonio.patch_hook`: its objects made `Node`s, then `verify_patch`."""
    def node(obj):
        tile = HalfTile(obj["kind"], tuple(Cyclo(*v) for v in obj["vertices"]))
        return Node(tile, tuple(node(c) for c in obj["children"]))

    try:
        verify_patch(Patch(doc["mode"], tuple(node(r) for r in doc["roots"]), doc["depth"]))
    except PatchFault as exc:
        path = f"$.roots[{exc.trail[0]}]" + "".join(f".children[{i}]" for i in exc.trail[1:])
        return 1, f"parse error: {path}{exc.field}: {exc}\n"
    return 0, ""


# json's default text, and `tile`'s compact sorted text, which `render` reads without decoding
_WRITERS = {"default": json.dumps,
            "tile": lambda doc: json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"}


@pytest.mark.parametrize("flags", [[], ["--paired"]])
def test_render_judges_mutated_trees_as_a_reference_decoder(flags, tmp_path, capsys):
    path, svg = tmp_path / "patch.json", tmp_path / "out.svg"
    rng, refused = random.Random(29), Counter()
    for mode, kind, steps in (("p2", "acute", 3), ("p3", "obtuse", 3), ("p2", "obtuse", 4)):
        assert _run(capsys, "tile", "--type", mode, "--seed", kind, "--steps", str(steps),
                    "--doubled", "--output", str(path)) == 0
        base = json.loads(path.read_text())
        assert _WRITERS["tile"](base) == path.read_text()
        for doc in [base] + [mutate_tree(base, rng) for _ in range(30)]:
            for writer, write in _WRITERS.items():
                path.write_text(write(doc))
                code = main(["render", "--input", str(path), "--output", str(svg), *flags])
                assert (code, capsys.readouterr().err) == _reference(doc)
                assert svg.exists() == (code == 0)
                svg.unlink(missing_ok=True)
                refused[writer] += code
    assert refused == {"default": 90, "tile": 90}


# One legal command line per subcommand (and per way of giving `cut` and `render`
# their input), cheap enough to run hundreds of mutations in a few seconds.
_ARGVS = (
    ["validate", "--example", "kite", "--output", "out.txt"],
    ["present", "--example", "quasisphere", "--format", "json"],
    ["charts", "--example", "sphere", "--format", "text"],
    ["classify", "--example", "octahedron"],
    ["cut", "--example", "sphere", "--normal", "1", "--level", "1/2"],
    ["cut", "--example", "kite", "--axis-of", "kite", "--output", "cut.json"],
    ["tile", "--type", "p3", "--steps", "3", "--seed", "obtuse", "--doubled"],
    ["render", "--star", "7", "--output", "star.svg"],
    ["render", "--input", "patch.json", "--paired"],
    ["report", "--example", "orbisphere", "--format", "json"],
)


def _groups(argv):
    """argv after the command as [flag] or [flag, value] groups."""
    groups = []
    for token in argv[1:]:
        if token.startswith("--"):
            groups.append([token])
        else:
            groups[-1].append(token)
    return groups


def mutate_argv(argv, rng):
    """argv with one to three flags dropped, repeated or swapped, or values
    swapped for entries of `_VALUES` (as text)."""
    groups = _groups(argv)
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(5)
        if op == 0 and groups:
            groups.pop(rng.randrange(len(groups)))
        elif op == 1 and groups:
            groups.insert(rng.randrange(len(groups) + 1), list(rng.choice(groups)))
        elif op == 2 and len(groups) > 1:   # two flags trade places
            i, j = rng.sample(range(len(groups)), 2)
            groups[i], groups[j] = groups[j], groups[i]
        elif op == 3 and len(groups) > 1:   # two flags trade names
            i, j = rng.sample(range(len(groups)), 2)
            groups[i][0], groups[j][0] = groups[j][0], groups[i][0]
        elif groups:
            group = rng.choice(groups)
            value = rng.choice(_VALUES)
            group[1:] = [value if isinstance(value, str) else json.dumps(value)]
    return [argv[0]] + [token for group in groups for token in group]


def test_mutated_command_lines_end_in_an_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, "tile", "--type", "p2", "--steps", "2", "--output", "patch.json") == 0
    rng, codes = random.Random(4), Counter()
    for argv in _ARGVS:
        assert _run(capsys, *argv) in (0, 2), argv
        for _ in range(100):
            monkeypatch.setattr("sys.stdin", io.StringIO(""))
            codes[_run(capsys, *mutate_argv(argv, rng))] += 1
    assert codes[0] and codes[1] and codes[2], codes
