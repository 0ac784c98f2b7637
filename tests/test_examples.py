"""Preflight checks on every shipped example and data file."""
from importlib import resources

import pytest

from quasitoric import jsonio
from quasitoric.construction import classify
from quasitoric.examples import EXAMPLES, get_example, kite_axis_cut
from quasitoric.field import KVector, phi
from quasitoric.quasilattice import (combination, is_discrete, member,
                                     relation_lattice, z_rank)

from example_builders import BUILDERS, load_quasilattice

SIMPLE = ("sphere", "orbisphere", "quasisphere", "kite", "thick_rhombus",
          "thin_rhombus", "prolate_rhombohedron", "oblate_rhombohedron",
          "cube", "tetrahedron", "dodecahedron")
NONSIMPLE = ("octahedron", "icosahedron")


def test_every_example_builds_and_certifies():
    for name in EXAMPLES:
        t = get_example(name)
        for j, cert in enumerate(t.certificates):
            assert combination(t.lattice, cert) == t.polytope.halfspaces[j].normal


@pytest.mark.parametrize("name", EXAMPLES)
def test_shipped_document_is_its_builders_triple(name):
    built = BUILDERS[name]()
    shipped = get_example(name)
    assert ((shipped.polytope.dim, list(shipped.polytope.halfspaces), shipped.lattice,
             shipped.certificates)
            == (built.polytope.dim, list(built.polytope.halfspaces), built.lattice,
                built.certificates))
    assert jsonio.encode_triple(shipped) == jsonio.encode_triple(built)
    text = resources.files("quasitoric.data").joinpath(f"{name}.json").read_text()
    assert text == jsonio.dumps_canonical(jsonio.encode_triple(built))


def test_data_holds_exactly_the_examples():
    names = sorted(p.name for p in resources.files("quasitoric.data").iterdir()
                   if p.name.endswith(".json"))
    assert names == sorted(f"{n}.json" for n in EXAMPLES)
    assert sorted(EXAMPLES) == sorted(BUILDERS) and len(EXAMPLES) == 13


def test_unknown_example_message():
    with pytest.raises(ValueError) as info:
        get_example("dart")
    assert str(info.value) == f"unknown example 'dart'; choose from {sorted(EXAMPLES)}"


@pytest.mark.parametrize("name", SIMPLE)
def test_simple_examples_validate(name):
    rep = get_example(name).polytope.validate()
    assert rep.valid and rep.simple, (name, rep)


@pytest.mark.parametrize("name", NONSIMPLE)
def test_nonsimple_examples_flagged(name):
    rep = get_example(name).polytope.validate()
    assert rep.bounded and rep.full_dim and rep.irredundant_facets
    assert not rep.simple


def test_pentagon_file_relations():
    q = load_quasilattice("pentagon")
    assert q.m == 5 and q.dim == 2
    assert relation_lattice(q) == ((1, 1, 1, 1, 1),)
    assert not is_discrete(q)


def test_icosahedral_files_have_expected_ranks():
    for name, m in (("icosa_simple", 6), ("icosa_body", 7), ("icosa_face", 6)):
        q = load_quasilattice(name)
        assert q.dim == 3 and q.m == m
        assert z_rank(q) == 6, name
        assert not is_discrete(q)


def test_integer_lattice_files():
    for n in (1, 2, 3):
        q = load_quasilattice(f"integer_lattice_{n}")
        assert q.dim == n and is_discrete(q)


def test_dodecahedron_normals_in_simple_icosahedral():
    t = get_example("dodecahedron")
    q = load_quasilattice("icosa_simple")
    for h in t.polytope.halfspaces:
        assert member(q, h.normal) is not None


def test_icosahedron_normals_need_body_centering():
    t = get_example("icosahedron")
    simple = load_quasilattice("icosa_simple")
    body = load_quasilattice("icosa_body")
    inside_simple = [member(simple, h.normal) is not None
                     for h in t.polytope.halfspaces]
    assert not all(inside_simple)          # the simple quasilattice is too small
    for h in t.polytope.halfspaces:
        assert member(body, h.normal) is not None


def test_rhombohedron_normals_in_face_centered():
    q = load_quasilattice("icosa_face")
    for name in ("prolate_rhombohedron", "oblate_rhombohedron"):
        t = get_example(name)
        for h in t.polytope.halfspaces:
            assert member(q, h.normal) is not None
    # and these normals generate a proper sub-quasilattice of the simple one
    simple = load_quasilattice("icosa_simple")
    for g in q.generators:
        assert member(simple, g) is not None


def test_kite_geometry():
    t = get_example("kite")
    p = phi()
    vs = t.polytope.vertices()
    assert len(vs) == 4
    actives = {v.active_facets for v in vs}
    assert actives == {(1, 2), (0, 1), (0, 3), (2, 3)}
    # symmetry: swapping coordinates exchanges facets 0<->3 and 1<->2
    swapped = {KVector([v.point[1], v.point[0]]) for v in vs}
    assert swapped == {v.point for v in vs}
    # axis cut data is a certified member through the interior
    normal, level = kite_axis_cut()
    assert member(t.lattice, normal) is not None
    signs = {(normal.dot(v.point) - level).sign() for v in vs}
    assert signs == {-1, 0, 1}


def test_octahedron_vertex_structure():
    t = get_example("octahedron")
    vs = t.polytope.vertices()
    assert len(vs) == 6
    assert all(len(v.active_facets) == 4 for v in vs)


def test_icosahedron_vertex_structure():
    t = get_example("icosahedron")
    vs = t.polytope.vertices()
    assert len(vs) == 12
    assert all(len(v.active_facets) == 5 for v in vs)


def test_dodecahedron_vertex_structure():
    t = get_example("dodecahedron")
    vs = t.polytope.vertices()
    assert len(vs) == 20
    assert all(len(v.active_facets) == 3 for v in vs)


def test_rationality_flags():
    assert classify(get_example("thick_rhombus")).rational
    assert classify(get_example("thin_rhombus")).rational
    assert not classify(get_example("kite")).rational
    assert classify(get_example("cube")).rational
    assert not classify(get_example("dodecahedron")).rational


def test_chart_finiteness_matches_rational_angles_everywhere():
    from quasitoric.construction import build_charts
    for name in SIMPLE:
        for c in build_charts(get_example(name)):
            finite = c.group_invariants.is_finite()
            rational_angles = all(x.b == 0 for g in c.group_gens for x in g)
            assert finite == rational_angles, name


def test_finite_charts_over_discrete_lattices():
    # rational quasilattice data can only produce finite chart groups
    from quasitoric.construction import build_charts
    for name in ("sphere", "orbisphere", "cube", "tetrahedron"):
        for c in build_charts(get_example(name)):
            assert c.group_invariants.is_finite()
