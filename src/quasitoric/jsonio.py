"""JSON schemas for triples, presentations, charts and patches.

Field elements travel as rational strings: {"a": "p/q", "b": "r/s"} under a
document-wide {"field": {"D": ...}} context, which keeps files exact and
language neutral.  Encoding is canonical (sorted keys, fixed separators), so
equal objects produce identical bytes.  Integer fields test `type(x) is int`:
JSON `true`/`false` load as `bool`, an `int` subclass, and are refused.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .field import FieldElem, KVector, _check_context
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
_FLUSH_PARTS = 4096   # pieces gathered before one call of `write`


def write_canonical(doc: Any, write: Callable[[str], Any]) -> None:
    """Send `json.dumps(doc, sort_keys=True, indent=2) + "\\n"` to `write`.

    The same bytes, built without the pure-Python encoder that `indent`
    forces on `json.dumps` and without holding the whole text: strings go
    through the C string encoder and the text leaves in joined pieces of about
    `_FLUSH_PARTS` fragments.
    """
    parts: list[str] = []
    put = parts.append

    def emit(o: Any, nl: str) -> None:   # nl: newline plus the current indent
        if len(parts) >= _FLUSH_PARTS:
            write("".join(parts))
            parts.clear()
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
                emit(x, inner)
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
                emit(v, inner)
                sep = "," + inner
            put(nl + "}")
        else:
            put(json.dumps(o))

    emit(doc, "\n")
    put("\n")
    write("".join(parts))


def _scalar_key(k: Any) -> str:
    """The text `json` gives a non-string dict key."""
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def dumps_canonical(doc: Any) -> str:
    parts: list[str] = []
    write_canonical(doc, parts.append)
    return "".join(parts)


# -- field elements ----------------------------------------------------------


def encode_fe(x: FieldElem) -> dict:
    out = {"a": str(x.a)}
    if x.d != 0:
        out["b"] = str(x.b)
    return out


def decode_fe(obj: Any, d: int, path: str) -> FieldElem:
    if not isinstance(obj, dict) or "a" not in obj:
        raise ParseError(path, "expected an object with an 'a' rational string")
    def rat(key: str) -> Fraction:
        raw = obj.get(key, "0")
        if not isinstance(raw, str):
            raise ParseError(f"{path}.{key}", "rationals are strings like '3/2'")
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


def parse_presentation(doc: Any) -> construction.Presentation:
    d = _field_context(doc, "$")
    dd = doc["facets"]
    rows = tuple(construction.LevelRow(
        decode_kvector(r["coefficients"], d, dd, f"$.level_rows[{i}].coefficients"),
        decode_fe(r["constant"], d, f"$.level_rows[{i}].constant"))
        for i, r in enumerate(doc["level_rows"]))
    cont = tuple(decode_kvector(g, d, dd, f"$.cont_gens[{i}]")
                 for i, g in enumerate(doc["cont_gens"]))
    disc = tuple(decode_kvector(g, d, dd, f"$.disc_gens[{i}]")
                 for i, g in enumerate(doc["disc_gens"]))
    return construction.Presentation(dd, doc["dim"], rows, cont, disc,
                                     decode_invariants(doc["component_invariants"]))


def encode_invariants(inv: AbelianGroupInvariants) -> dict:
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def decode_invariants(obj: Any) -> AbelianGroupInvariants:
    return AbelianGroupInvariants(obj["free_rank"], tuple(obj["torsion"]))


def encode_charts(charts: Sequence[construction.Chart]) -> dict:
    d = charts[0].vertex.point.d if charts else 0
    one = encode_fe(FieldElem(1, 0, d))
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


def _decode_node(obj: Any, path: str, level: int, depth: int) -> tilings.Node:
    """Decode the node at tree depth `level`; leaves must sit at `depth`."""
    if not isinstance(obj, dict) or obj.get("kind") not in ("acute", "obtuse"):
        raise ParseError(path, "expected a node with kind acute|obtuse")
    verts = obj.get("vertices")
    if (not isinstance(verts, list) or len(verts) != 3
            or any(not isinstance(v, list) or len(v) != 4
                   or any(type(x) is not int for x in v) for v in verts)):
        raise ParseError(f"{path}.vertices", "expected three 4-integer vectors")
    kids = obj.get("children", [])
    if not isinstance(kids, list):
        raise ParseError(f"{path}.children", "expected a list")
    if bool(kids) != (level < depth):
        raise ParseError(path, f"{'leaf' if not kids else 'node with children'} at tree "
                               f"depth {level}, but every leaf must sit at depth {depth}")
    tile = tilings.HalfTile(obj["kind"], tuple(tilings.Cyclo(*v) for v in verts))
    children = tuple(_decode_node(c, f"{path}.children[{i}]", level + 1, depth)
                     for i, c in enumerate(kids))
    return tilings.Node(tile, children)


def parse_patch(doc: Any) -> tilings.Patch:
    if not isinstance(doc, dict) or doc.get("mode") not in ("p2", "p3"):
        raise ParseError("$.mode", "expected 'p2' or 'p3'")
    depth = doc.get("depth")
    if type(depth) is not int or depth < 0:
        raise ParseError("$.depth", "expected a non-negative integer")
    roots = doc.get("roots")
    if not isinstance(roots, list) or not roots:
        raise ParseError("$.roots", "expected a non-empty list")
    return tilings.Patch(doc["mode"],
                         tuple(_decode_node(r, f"$.roots[{i}]", 0, depth)
                               for i, r in enumerate(roots)),
                         depth)
