"""JSON schemas for triples, presentations, charts and patches.

Field elements travel as rational strings: {"a": "p/q", "b": "r/s"} under a
document-wide {"field": {"D": ...}} context, which keeps files exact and
language neutral.  Encoding is canonical (sorted keys, fixed separators), so
equal objects produce identical bytes.  Patch documents are compact (separators
`","` and `":"`, no whitespace); every other document is `dumps_canonical`'s
indented text.  Integer fields test `type(x) is int`: JSON `true`/`false` load
as `bool`, an `int` subclass, and are refused.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import Any, Callable, NoReturn, Optional, Sequence

from .field import FieldElem, KVector, _check_context, _make
from .intlattice import AbelianGroupInvariants
from .polytope import HalfSpace, PolytopeH
from .quasilattice import Quasilattice, member
from . import construction
from . import tilings

SCHEMA_VERSION = 1
MAX_FIELD_D = 10 ** 9   # largest accepted $.field.D (square-freeness is trial division)


class ParseError(ValueError):
    """Schema violation with a JSON-path-qualified message."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


_encode_str = json.encoder.encode_basestring_ascii


def dumps_canonical(doc: Any) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`.

    The same text, built without the pure-Python encoder that `indent`
    forces on `json.dumps`: strings go through the C string encoder.
    """
    parts: list[str] = []
    _dump(doc, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _dump(o: Any, nl: str, put: Callable[[str], Any]) -> None:
    """Put the text of `o` at indent `nl` (newline plus the current indent).
    A module-level recursion, so no closure cycle keeps the text alive."""
    if isinstance(o, str):
        put(_encode_str(o))
    elif isinstance(o, int) and not isinstance(o, bool):
        put(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            put(sep)
            _dump(x, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            put(sep)
            put(_encode_str(k if isinstance(k, str) else _scalar_key(k)))
            put(": ")
            _dump(v, inner, put)
            sep = "," + inner
        put(nl + "}")
    else:
        put(json.dumps(o))


def _scalar_key(k: Any) -> str:
    """The text `json` gives a non-string dict key."""
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


# -- field elements ----------------------------------------------------------


def encode_fe(x: FieldElem) -> dict:
    # str(Fraction(p, r)) and str(Fraction(q, r)) for x = (p + q*sqrt(D))/r
    r = x._r
    out = {"a": _ratio(x._p, r)}
    if x._d:
        out["b"] = _ratio(x._q, r)
    return out


def _ratio(n: int, r: int) -> str:
    g = gcd(n, r)
    return str(n // g) if g == r else f"{n // g}/{r // g}"


def decode_fe(obj: Any, d: int, path: str) -> FieldElem:
    if not isinstance(obj, dict) or "a" not in obj:
        raise ParseError(path, "expected an object with an 'a' rational string")
    def rat(key: str) -> Fraction:
        raw = obj.get(key, "0")
        if not isinstance(raw, str):
            raise ParseError(f"{path}.{key}", "rationals are strings like '3/2'")
        # encode_fe's forms; Fraction alone would also take '1e1000000', slowly
        if not re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+)?", raw):
            raise ParseError(f"{path}.{key}",
                             f"bad rational {raw!r}: expected digits p or p/q, like '-3/2'")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{path}.{key}", f"bad rational {raw!r}: {exc}") from None
    a = rat("a")
    b = rat("b") if "b" in obj else Fraction(0)
    extra = set(obj) - {"a", "b"}
    if extra:
        raise ParseError(path, f"unexpected keys {sorted(extra)}")
    if d == 0 and b != 0:
        raise ParseError(path, "sqrt part must vanish when D = 0")
    return FieldElem(a, b, d)


def encode_kvector(v: KVector) -> list:
    return [encode_fe(x) for x in v]


def decode_kvector(obj: Any, d: int, dim: int, path: str) -> KVector:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(path, f"expected a list of {dim} field elements")
    return KVector([decode_fe(x, d, f"{path}[{i}]") for i, x in enumerate(obj)], d=d)


def _field_context(doc: Any, path: str) -> int:
    f = doc.get("field") if isinstance(doc, dict) else None
    if not isinstance(f, dict) or type(f.get("D")) is not int:
        raise ParseError(f"{path}.field", "expected {'D': <square-free int>}")
    d = f["D"]
    if not 0 <= d <= MAX_FIELD_D:
        raise ParseError(f"{path}.field.D", f"expected 0 <= D <= {MAX_FIELD_D}, got {d}")
    try:
        return _check_context(d)
    except ValueError as exc:
        raise ParseError(f"{path}.field.D", str(exc)) from None


# -- quasilattices -------------------------------------------------------------


def encode_quasilattice(q: Quasilattice) -> dict:
    return {"dim": q.dim, "generators": [encode_kvector(g) for g in q.generators]}


def decode_quasilattice(obj: Any, d: int, path: str) -> Quasilattice:
    if not isinstance(obj, dict):
        raise ParseError(path, "expected a quasilattice object")
    dim = obj.get("dim")
    gens = obj.get("generators")
    if type(dim) is not int or dim < 1:
        raise ParseError(f"{path}.dim", "expected a positive integer")
    if not isinstance(gens, list) or not gens:
        raise ParseError(f"{path}.generators", "expected a non-empty list")
    vectors = tuple(decode_kvector(g, d, dim, f"{path}.generators[{i}]")
                    for i, g in enumerate(gens))
    try:
        return Quasilattice(dim, vectors)
    except ValueError as exc:
        raise ParseError(path, str(exc)) from None


def parse_quasilattice_document(doc: Any) -> Quasilattice:
    d = _field_context(doc, "$")
    return decode_quasilattice(doc.get("quasilattice"), d, "$.quasilattice")


# -- triples --------------------------------------------------------------------


def encode_triple(t: construction.Triple) -> dict:
    halfspaces = []
    for j, h in enumerate(t.polytope.halfspaces):
        halfspaces.append({"normal": encode_kvector(h.normal),
                           "lambda": encode_fe(h.level),
                           "certificate": list(t.certificates[j])})
    return {"schema_version": SCHEMA_VERSION,
            "field": {"D": t.lattice.field_d},
            "polytope": {"dim": t.polytope.dim, "halfspaces": halfspaces},
            "quasilattice": encode_quasilattice(t.lattice)}


def parse_triple(doc: Any) -> construction.Triple:
    if not isinstance(doc, dict):
        raise ParseError("$", "expected a JSON object")
    d = _field_context(doc, "$")
    lattice = decode_quasilattice(doc.get("quasilattice"), d, "$.quasilattice")
    poly = doc.get("polytope")
    if not isinstance(poly, dict):
        raise ParseError("$.polytope", "expected a polytope object")
    dim = poly.get("dim")
    if type(dim) is not int or dim < 1:
        raise ParseError("$.polytope.dim", "expected a positive integer")
    if dim != lattice.dim:
        raise ParseError("$.polytope.dim", "polytope and quasilattice dimensions differ")
    hs_raw = poly.get("halfspaces")
    if not isinstance(hs_raw, list) or not hs_raw:
        raise ParseError("$.polytope.halfspaces", "expected a non-empty list")
    halfspaces = []
    certs: list[Optional[tuple[int, ...]]] = []
    for j, h in enumerate(hs_raw):
        path = f"$.polytope.halfspaces[{j}]"
        if not isinstance(h, dict) or "normal" not in h or "lambda" not in h:
            raise ParseError(path, "expected keys 'normal' and 'lambda'")
        normal = decode_kvector(h["normal"], d, dim, f"{path}.normal")
        level = decode_fe(h["lambda"], d, f"{path}.lambda")
        halfspaces.append(HalfSpace(normal, level))
        cert = h.get("certificate")
        if cert is not None:
            if (not isinstance(cert, list)
                    or any(type(c) is not int for c in cert)
                    or len(cert) != lattice.m):
                raise ParseError(f"{path}.certificate",
                                 f"expected {lattice.m} integers")
            certs.append(tuple(cert))
        else:
            certs.append(None)
    polytope = PolytopeH(dim, halfspaces)
    resolved = []
    for j, cert in enumerate(certs):
        path = f"$.polytope.halfspaces[{j}].certificate"
        if cert is None:
            found = member(lattice, halfspaces[j].normal)
            if found is None:
                raise ParseError(path, "normal is not a quasilattice member")
            resolved.append(tuple(found))
        else:
            resolved.append(cert)
    try:
        return construction.Triple(polytope, lattice, tuple(resolved))
    except ValueError as exc:
        raise ParseError("$.polytope.halfspaces", f"certificate mismatch: {exc}") from None


# -- presentations, charts, classification ----------------------------------------


def encode_presentation(p: construction.Presentation) -> dict:
    d = p.cont_gens[0].d if p.cont_gens else (p.level_rows[0].coefficients.d
                                              if p.level_rows else 0)
    return {"schema_version": SCHEMA_VERSION,
            "field": {"D": d},
            "facets": p.d,
            "dim": p.n,
            "level_rows": [{"coefficients": encode_kvector(r.coefficients),
                            "constant": encode_fe(r.constant)}
                           for r in p.level_rows],
            "cont_gens": [encode_kvector(g) for g in p.cont_gens],
            "disc_gens": [encode_kvector(g) for g in p.disc_gens],
            "component_invariants": encode_invariants(p.component_invariants)}


def encode_invariants(inv: AbelianGroupInvariants) -> dict:
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def encode_charts(charts: Sequence[construction.Chart]) -> dict:
    d = charts[0].vertex.point.d if charts else 0
    one = encode_fe(_make(1, 0, 1, d))
    out = []
    for c in charts:
        out.append({
            "vertex": encode_kvector(c.vertex.point),
            "active": list(c.active),
            "domain": [{"facet": i.facet,
                        "coefficients": encode_kvector(i.coefficients),
                        "bound": encode_fe(i.bound)} for i in c.domain_ineqs],
            "group_gens": [encode_kvector(g) for g in c.group_gens],
            "group_invariants": encode_invariants(c.group_invariants),
            # the chart map fills each slot with sqrt(bound - sum coeff |z|^2)
            "slot_exprs": [{"facet": i.facet, "domain_row": k, "scale": one}
                           for k, i in enumerate(c.domain_ineqs)],
        })
    return {"schema_version": SCHEMA_VERSION, "field": {"D": d}, "charts": out}


def encode_classification(c: construction.Classification) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "simple": c.simple, "rational": c.rational, "kind": c.kind,
            "chart_kinds": list(c.chart_kinds) if c.chart_kinds is not None else None}


# -- patches -----------------------------------------------------------------------


def _encode_node(node: tilings.Node) -> dict:
    return {"kind": node.tile.kind,
            "vertices": [list(v.c) for v in node.tile.vertices],
            "children": [_encode_node(c) for c in node.children]}


def encode_patch(p: tilings.Patch) -> dict:
    return {"schema_version": SCHEMA_VERSION, "mode": p.mode, "depth": p.depth,
            "roots": [_encode_node(r) for r in p.roots]}


_FLUSH_PARTS = 256   # pieces gathered before one call of `write`
# compact text: a patch document around its roots, a node around its children
_PATCH_HEAD = '{"depth":%d,"mode":"%s","roots":['
_PATCH_END = f'],"schema_version":{SCHEMA_VERSION}}}\n'
_OPEN = '{"children":['
_TAIL = '],"kind":"%s","vertices":[' + ",".join(["[%d,%d,%d,%d]"] * 3) + "]}"
_LEAF = "%s" + _OPEN + _TAIL


def write_patch(p: tilings.Patch, write: Callable[[str], Any], steps: int = 0) -> None:
    """Send `json.dumps(encode_patch(tilings.deflate(p, steps)), sort_keys=True,
    separators=(",", ":")) + "\\n"` to `write` in pieces of about `_FLUSH_PARTS`
    fragments, each leaf grown by `tilings.unfold` as it is written: no tree is made.
    Nodes differ only in their kind, their 12 coordinates and their children, so each
    is one or two `%` formats of the templates above.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    parts = [_PATCH_HEAD % (p.depth + steps, p.mode)]
    _emit(p.roots, steps, parts, write, p.mode)
    parts.append(_PATCH_END)
    write("".join(parts))


def _emit(nodes: Sequence, levels: int, parts: list[str], write: Callable[[str], Any],
          mode: tilings.Mode) -> None:
    """Put `nodes` (read by `tilings.unfold`, leaves growing `levels` levels) into
    `parts` as the items of a list, without its brackets.  A module-level recursion:
    no closure cycle keeps `parts` alive."""
    if len(parts) >= _FLUSH_PARTS:
        write("".join(parts))
        parts.clear()
    put, unfold, sep = parts.append, tilings.unfold, ""
    for node in nodes:
        kind, (a, b1, b2), kids, lv = unfold(node, levels, mode)
        if kids:
            put(sep + _OPEN)
            _emit(kids, lv, parts, write, mode)
            put(_TAIL % (kind, *a, *b1, *b2))
        else:
            put(_LEAF % (sep, kind, *a, *b1, *b2))
        sep = ","


def _node_fault(obj: Any) -> Optional[tuple[str, str]]:
    """(path suffix, message) saying why `obj` is no node object, or None.

    Only the node's own fields are read; each child is judged on its own.
    The one test of nodeness, for `patch_hook` and `parse_patch` alike.
    """
    if not isinstance(obj, dict) or obj.get("kind") not in ("acute", "obtuse"):
        return "", "expected a node with kind acute|obtuse"
    verts = obj.get("vertices")
    if not isinstance(verts, list) or len(verts) != 3:
        return ".vertices", "expected three 4-integer vectors"
    for v in verts:
        if not (isinstance(v, list) and len(v) == 4
                and type(v[0]) is type(v[1]) is type(v[2]) is type(v[3]) is int):
            return ".vertices", "expected three 4-integer vectors"
    if not isinstance(obj.get("children", []), list):
        return ".children", "expected a list"
    return None


def patch_hook() -> Callable[[dict], Any]:
    """A `json.load` object_hook for one patch document.

    A node object whose children all decoded becomes a `tilings.Node`, its
    points shared through a table of this document only; any other object
    stays a dict for `parse_patch` to diagnose.
    """
    points: dict[tuple[int, ...], tilings.Cyclo] = {}
    Node, HalfTile, enter = tilings.Node, tilings.HalfTile, tilings.enter_point

    def hook(obj: dict) -> Any:
        if _node_fault(obj) is not None:
            return obj
        kids = obj.get("children", ())
        for c in kids:
            if type(c) is not Node:
                return obj
        a, b1, b2 = map(tuple, obj["vertices"])
        tile = HalfTile(obj["kind"], (points.get(a) or enter(points, a),
                                      points.get(b1) or enter(points, b1),
                                      points.get(b2) or enter(points, b2)))
        return Node(tile, tuple(kids))

    return hook


def _rehook(obj: Any, hook: Callable[[dict], Any]) -> Any:
    """`hook` applied to every object of a JSON tree, children first, as
    `json.load(..., object_hook=hook)` applies it; other values pass through."""
    if isinstance(obj, dict):
        return hook({k: _rehook(v, hook) for k, v in obj.items()})
    if isinstance(obj, list):
        return [_rehook(x, hook) for x in obj]
    return obj


def _decode_fault(node: Any, trail: list[int]) -> NoReturn:
    """Raise the fault of the first object at or below `node` (at `trail`) that
    `patch_hook` left undecoded; a node object of no fault waits on a child."""
    while not _node_fault(node):
        i = next(i for i, c in enumerate(node["children"]) if type(c) is not tilings.Node)
        node, trail = node["children"][i], trail + [i]
    raise tilings.PatchFault(trail, *_node_fault(node))


def parse_patch(doc: Any) -> tilings.Patch:
    """The patch of a document loaded plainly or through `patch_hook()`: the
    first object that is no node object is named, then `tilings.verify_patch`
    checks the tree, so the document is one the library can grow.  Faults are
    named at their node's JSON path.
    """
    if not isinstance(doc, dict) or doc.get("mode") not in ("p2", "p3"):
        raise ParseError("$.mode", "expected 'p2' or 'p3'")
    mode, depth, roots = doc["mode"], doc.get("depth"), doc.get("roots")
    if type(depth) is not int or depth < 0:
        raise ParseError("$.depth", "expected a non-negative integer")
    if not isinstance(roots, list) or not roots:
        raise ParseError("$.roots", "expected a non-empty list")
    roots = _rehook(roots, patch_hook())
    try:
        for i, r in enumerate(roots):
            if type(r) is not tilings.Node:
                _decode_fault(r, [i])
        patch = tilings.Patch(mode, tuple(roots), depth)
        tilings.verify_patch(patch)
    except tilings.PatchFault as exc:
        path = f"$.roots[{exc.trail[0]}]" + "".join(f".children[{i}]" for i in exc.trail[1:])
        raise ParseError(path + exc.field, str(exc)) from None
    return patch
