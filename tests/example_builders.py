"""Builders of the 13 shipped example triples: the oracle for their documents.

Each builder assembles its polytope from exact half-space data over a
quasilattice read from `tests/data/`, and certifies every normal with a
membership solve (`Triple.build`).  `tests/test_examples.py` checks that the
documents under `src/quasitoric/data/` are exactly these triples; to change
an example, change its builder and write its document again:

    PYTHONPATH=src:tests python -c "import example_builders as b; b.write_documents()"

Size conventions (documented per builder) fix the one free positive scale the
abstract data does not determine.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional

from quasitoric import jsonio
from quasitoric.construction import Triple
from quasitoric.field import FieldElem, KVector, fe, phi
from quasitoric.polytope import HalfSpace, PolytopeH
from quasitoric.quasilattice import Quasilattice

DATA = Path(__file__).with_name("data")
SHIPPED = Path(__file__).parents[1] / "src" / "quasitoric" / "data"


def load_quasilattice(name: str) -> Quasilattice:
    """Load one of the quasilattice files (pentagon, icosa_*, ...) of tests/data."""
    doc = json.loads((DATA / f"{name}.json").read_text())
    return jsonio.decode_quasilattice(doc["quasilattice"], doc["field"]["D"], "$.quasilattice")


def _kv5(*xs) -> KVector:
    return KVector([x if isinstance(x, FieldElem) else fe(x, 0, 5) for x in xs])


def _kv0(*xs) -> KVector:
    return KVector([fe(x, 0, 0) for x in xs])


def _triple(dim: int, lattice: Quasilattice,
            halfspaces: list[tuple[KVector, FieldElem]]) -> Triple:
    poly = PolytopeH(dim, [HalfSpace(n, level) for n, level in halfspaces])
    return Triple.build(poly, lattice)


# -- one-dimensional family ---------------------------------------------------


def sphere() -> Triple:
    """Unit interval over Z with primitive normals 1 and -1."""
    lattice = load_quasilattice("integer_lattice_1")
    return _triple(1, lattice, [(_kv0(1), fe(0)), (_kv0(-1), fe(-1))])


def orbisphere(p: int = 2, q: int = 3) -> Triple:
    """Unit interval over Z with normals q and -p (coprime positive)."""
    lattice = load_quasilattice("integer_lattice_1")
    return _triple(1, lattice, [(_kv0(q), fe(0)), (_kv0(-p), fe(-p))])


def quasisphere(s: Optional[FieldElem] = None, t: Optional[FieldElem] = None) -> Triple:
    """Unit interval with quasilattice sZ + tZ and normals t, -s.

    Defaults to (s, t) = (1, phi).
    """
    s = s if s is not None else fe(1, 0, 5)
    t = t if t is not None else phi()
    lattice = Quasilattice(1, (KVector([s]), KVector([t])))
    return _triple(1, lattice, [(KVector([t]), s.zero()), (KVector([-s]), -s)])


# -- Penrose tiles --------------------------------------------------------------


def kite() -> Triple:
    """The Penrose kite over the pentagonal quasilattice.

    Written in the normalized root coordinates of pentagon.json; the level
    values come from the kite built on unit pentagon geometry, scaled so all
    data lies in Q(sqrt(5)).  Vertices come out as (0,0), (0,phi), (phi,0)
    and (1,1), with the symmetry axis along the main diagonal.
    """
    lattice = load_quasilattice("pentagon")
    p = phi()
    z = fe(0, 0, 5)
    return _triple(2, lattice, [
        (_kv5(1 - p, -1), -p),
        (_kv5(1, 0), z),
        (_kv5(0, 1), z),
        (_kv5(-1, 1 - p), -p),
    ])


def thick_rhombus() -> Triple:
    """Thick Penrose rhombus: normals a consecutive root pair, width phi."""
    lattice = load_quasilattice("pentagon")
    p = phi()
    z = fe(0, 0, 5)
    return _triple(2, lattice, [
        (_kv5(1, 0), z), (_kv5(0, 1), z),
        (_kv5(-1, 0), -p), (_kv5(0, -1), -p),
    ])


def thin_rhombus() -> Triple:
    """Thin Penrose rhombus: normals a next-nearest root pair, width 1."""
    lattice = load_quasilattice("pentagon")
    p = phi()
    z = fe(0, 0, 5)
    return _triple(2, lattice, [
        (_kv5(1, 0), z), (_kv5(-1, p - 1), z),
        (_kv5(-1, 0), fe(-1, 0, 5)), (_kv5(1, 1 - p), fe(-1, 0, 5)),
    ])


# -- Ammann rhombohedra -----------------------------------------------------------


def prolate_rhombohedron() -> Triple:
    """Golden rhombohedron with acute axis angles; width 2*phi^2."""
    lattice = load_quasilattice("icosa_face")
    p = phi()
    z = fe(0, 0, 5)
    w = fe(3, 1, 5)  # 2*phi^2 = 3 + sqrt5
    na = _kv5(1, p + 1, -p)
    nb = _kv5(-p, 1, p + 1)
    nc = _kv5(p + 1, -p, 1)
    return _triple(3, lattice, [(na, z), (nb, z), (nc, z),
                                (-na, -w), (-nb, -w), (-nc, -w)])


def oblate_rhombohedron() -> Triple:
    """Golden rhombohedron with obtuse axis angles; width 2*phi."""
    lattice = load_quasilattice("icosa_face")
    p = phi()
    z = fe(0, 0, 5)
    w = fe(1, 1, 5)  # 2*phi = 1 + sqrt5
    ma = _kv5(-1, p + 1, p)
    mb = _kv5(-p, 1, p + 1)
    mc = _kv5(-p - 1, p, 1)
    return _triple(3, lattice, [(ma, z), (mb, z), (mc, z),
                                (-ma, -w), (-mb, -w), (-mc, -w)])


# -- regular polyhedra --------------------------------------------------------------


def cube() -> Triple:
    lattice = load_quasilattice("integer_lattice_3")
    hs = [(_kv0(*(1 if j == i else 0 for j in range(3))), fe(0)) for i in range(3)]
    hs += [(_kv0(*(-1 if j == i else 0 for j in range(3))), fe(-1)) for i in range(3)]
    return _triple(3, lattice, hs)


_TETRA_NORMALS = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]


def _tetra_lattice() -> Quasilattice:
    # lattice generated by the tetrahedron normals themselves
    return Quasilattice(3, tuple(_kv0(*n) for n in _TETRA_NORMALS))


def tetrahedron() -> Triple:
    lattice = _tetra_lattice()
    return _triple(3, lattice, [(_kv0(*n), fe(-1)) for n in _TETRA_NORMALS])


def octahedron() -> Triple:
    lattice = _tetra_lattice()
    hs = [(_kv0(s1, s2, s3), fe(-1))
          for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    return _triple(3, lattice, hs)


def dodecahedron() -> Triple:
    lattice = load_quasilattice("icosa_simple")
    hs = [(g, fe(-1, 0, 5)) for g in lattice.generators]
    hs += [(-g, fe(-1, 0, 5)) for g in lattice.generators]
    return _triple(3, lattice, hs)


def icosahedron() -> Triple:
    lattice = load_quasilattice("icosa_body")
    p = phi()
    corner_level = -(p * p)               # -(phi^2)
    axis_level = -(p * p * p)             # -(phi^3)
    hs = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                hs.append((_kv5(s1, s2, s3), corner_level))
    p2 = p * p
    for sa in (1, -1):
        for sb in (1, -1):
            hs.append((_kv5(sa, 0, p2 * sb), axis_level))
            hs.append((_kv5(p2 * sb, sa, 0), axis_level))
            hs.append((_kv5(0, p2 * sb, sa), axis_level))
    return _triple(3, lattice, hs)


BUILDERS: dict[str, Callable[[], Triple]] = {
    "sphere": sphere,
    "orbisphere": orbisphere,
    "quasisphere": quasisphere,
    "kite": kite,
    "thick_rhombus": thick_rhombus,
    "thin_rhombus": thin_rhombus,
    "prolate_rhombohedron": prolate_rhombohedron,
    "oblate_rhombohedron": oblate_rhombohedron,
    "cube": cube,
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    "dodecahedron": dodecahedron,
    "icosahedron": icosahedron,
}


def write_documents() -> None:
    """Write every example's document under src/quasitoric/data/."""
    for name, build in BUILDERS.items():
        (SHIPPED / f"{name}.json").write_text(jsonio.dumps_canonical(jsonio.encode_triple(build())))
