import math
import random
from fractions import Fraction

import pytest

from quasitoric import construction, field, jsonio, quasilattice
from quasitoric.cli import main
from quasitoric.construction import (NonsimpleTripleError,
                                     Triple, build_charts, build_presentation,
                                     classify, cut_and_present, emit_report,
                                     format_field_elem)
from quasitoric.examples import get_example, kite_axis_cut
from quasitoric.field import FieldElem, KMatrix, KVector, fe, phi
from quasitoric.intlattice import AbelianGroupInvariants, hnf_basis, int_solve, snf
from quasitoric.polytope import HalfSpace, PolytopeH
from quasitoric.quasilattice import Quasilattice, relation_lattice, split_target, z_rank

import fieldmatrix
from example_builders import (cube, dodecahedron, kite, octahedron, orbisphere,
                              quasisphere, sphere, tetrahedron)
from fieldmatrix import inverse, matvec, torus_classes_equal
from halves import SIMPLE_EXAMPLES, seeded_halves


def kv5(*xs):
    return KVector([x if isinstance(x, FieldElem) else fe(x, 0, 5) for x in xs])


def same_row_space(computed, claimed):
    stack = KMatrix.from_vectors(list(computed) + list(claimed))
    return stack.rank() == len(computed) == len(claimed)


def angle_subgroup_basis(vectors, n):
    """HNF basis of the subgroup of R^n generated by `vectors` and Z^n,
    written in integer coordinates over the (1, sqrt(D)) basis with a fixed
    common denominator scale."""
    from math import lcm
    units = [KVector([fe(1 if i == k else 0, 0, vectors[0].d) for i in range(n)])
             for k in range(n)]
    everything = list(vectors) + units
    den = 1
    for v in everything:
        for x in v:
            den = lcm(den, x.a.denominator, x.b.denominator)
    rows = [[int(x.a * den) for x in v] + [int(x.b * den) for x in v]
            for v in everything]
    return hnf_basis(rows, 2 * n)


# -- quasisphere (worked example fixing all conventions) -----------------------


def test_quasisphere_presentation_exact():
    pres = build_presentation(quasisphere())
    p = phi()
    assert len(pres.level_rows) == 1
    row = pres.level_rows[0]
    assert list(row.coefficients) == [fe(1, 0, 5), p]
    assert row.constant == p
    assert list(pres.cont_gens) == [kv5(1, p)]
    assert pres.component_invariants.is_trivial()
    assert pres.disc_gens == ()


def test_quasisphere_charts():
    charts = build_charts(quasisphere())
    assert len(charts) == 2
    south = charts[0]
    p = phi()
    assert south.active == (0,)
    assert south.group_invariants.free_rank == 1
    assert list(south.group_gens[0]) == [p - 1]
    ineq = south.domain_ineqs[0]
    assert ineq.facet == 1
    assert list(ineq.coefficients) == [p - 1]
    assert ineq.bound == fe(1, 0, 5)
    north = charts[1]
    assert north.group_invariants.free_rank == 1


def test_sphere_and_orbisphere_special_cases():
    charts = build_charts(sphere())
    assert all(c.group_invariants.is_trivial() for c in charts)
    charts = build_charts(orbisphere(2, 3))
    orders = sorted(c.group_invariants.order() for c in charts)
    assert orders == [2, 3]
    pres = build_presentation(orbisphere(2, 3))
    assert list(pres.level_rows[0].coefficients) == [fe(1), fe(Fraction(3, 2))]
    assert pres.level_rows[0].constant == fe(3)


# -- kite ---------------------------------------------------------------------


def test_kite_polytope_shape():
    t = kite()
    vs = t.polytope.vertices()
    p = phi()
    points = [list(v.point) for v in vs]
    assert points == [[fe(0, 0, 5), fe(0, 0, 5)], [fe(0, 0, 5), p],
                      [fe(1, 0, 5), fe(1, 0, 5)], [p, fe(0, 0, 5)]]
    actives = {v.active_facets for v in vs}
    assert actives == {(1, 2), (0, 1), (0, 3), (2, 3)}
    assert t.polytope.validate().simple


def test_kite_level_rows_match_printed_span():
    pres = build_presentation(kite())
    p = phi()
    claimed = [kv5(p, 1, p, 0), kv5(0, p, 1, p)]
    assert same_row_space(pres.cont_gens, claimed)
    other = [kv5(-1, 1, 0, p), kv5(p, 0, 1, -1)]
    assert same_row_space(pres.cont_gens, other)
    assert pres.component_invariants.is_trivial()


def test_kite_apex_chart():
    charts = build_charts(kite())
    apex = next(c for c in charts if c.active == (1, 2))
    p = phi()
    assert apex.group_invariants.free_rank == 2
    assert not apex.group_invariants.torsion
    # chart group equals <(phi, 0), (0, phi)> mod Z^2 up to basis change
    ours = angle_subgroup_basis(list(apex.group_gens), 2)
    target = angle_subgroup_basis([kv5(p, 0), kv5(0, p)], 2)
    assert ours == target
    # two domain rows, coefficient multisets {1, phi} after per-row rescaling
    assert len(apex.domain_ineqs) == 2
    rescaled = []
    for ineq in apex.domain_ineqs:
        low = min(ineq.coefficients, key=lambda x: (x - 1).sign())
        scale = low.inverse() if low != 1 else fe(1, 0, 5)
        coeffs = sorted((c * scale for c in ineq.coefficients),
                        key=lambda x: float(x))
        rescaled.append((coeffs, ineq.bound * scale))
    for coeffs, _bound in rescaled:
        assert coeffs == [fe(1, 0, 5), p]
    assert rescaled[0][1] == rescaled[1][1]       # equal bounds


def test_kite_chart_finiteness_matches_rational_angles():
    for c in build_charts(kite()):
        finite = c.group_invariants.is_finite()
        rational_angles = all(x.b == 0 for g in c.group_gens for x in g)
        assert finite == rational_angles


def _simple_triples_and_halves(seed):
    """Every simple example, then both halves of three seeded cuts of each."""
    rng = random.Random(seed)
    examples = [get_example(name) for name in SIMPLE_EXAMPLES]
    return examples + [half for t in examples for half in seeded_halves(t, rng)]


def test_chart_coordinates_match_the_reference_inverse():
    # a chart's domain rows are minus the coordinates of the inactive normals in
    # the basis of the active ones, and its angles are the generators' coordinates
    # mod 1 with the all-integer ones left out: coordinates by the textbook inverse;
    # its bounds are the slacks at the vertex, by a dot product there
    checked = 0
    for t in _simple_triples_and_halves(5151) + [_tangent_polygon(6, range(-30, 30))]:
        d = t.polytope.field_d
        for chart in build_charts(t):
            active = [t.normals[j] for j in chart.active]
            coords = KMatrix(inverse(list(zip(*active)), d))
            inactive = [j for j in range(t.polytope.d) if j not in chart.active]
            assert [ineq.facet for ineq in chart.domain_ineqs] == inactive
            for ineq in chart.domain_ineqs:
                assert ineq.coefficients == -matvec(coords, t.normals[ineq.facet])
                h = t.polytope.halfspaces[ineq.facet]
                assert ineq.bound == fieldmatrix.slack(h, chart.vertex.point)
            angles = [KVector([x.mod1() for x in matvec(coords, g)], d)
                      for g in t.lattice.generators]
            assert list(chart.group_gens) == [a for a in angles if not a.is_zero()]
            checked += 1
    assert checked > 360


def test_build_charts_eliminates_once_per_vertex(monkeypatch):
    calls = []
    eliminate = construction._eliminate
    monkeypatch.setattr(construction, "_eliminate",
                        lambda rows, d: calls.append(d) or eliminate(rows, d))
    for t in _simple_triples_and_halves(6161):
        calls.clear()
        charts = build_charts(t)
        assert len(calls) == len(charts) == len(t.polytope.vertices())


def test_build_presentation_eliminates_once_and_makes_one_smith_form(monkeypatch):
    # one elimination of [pi | generators] and one Smith form of
    # [relations; certificates]; no integer solve
    triples, calls = _simple_triples_and_halves(6262), []
    eliminate, smith = field._eliminate, quasilattice.snf
    spy = lambda rows, d: calls.append("eliminate") or eliminate(rows, d)
    monkeypatch.setattr(construction, "_eliminate", spy)
    monkeypatch.setattr(field, "_eliminate", spy)
    monkeypatch.setattr(quasilattice, "snf", lambda *a, **k: calls.append("snf") or smith(*a, **k))
    monkeypatch.setattr(quasilattice, "int_solve", lambda *a, **k: calls.append("int_solve"))
    for t in triples:
        relation_lattice(t.lattice)   # once per quasilattice, kept on it
        calls.clear()
        build_presentation(t)
        assert sorted(calls) == ["eliminate", "snf"]


def _tangent_polygon(q, a_range):
    """The tangent lines to the unit circle at the points that inverse stereographic
    projection gives from u = a/q, a in `a_range`, with primitive integer normals;
    the lattice is Z^2."""
    halfspaces = []
    for a in a_range:
        x, y, level = q * q - a * a, 2 * a * q, q * q + a * a
        g = math.gcd(x, y, level)
        halfspaces.append(HalfSpace(KVector([fe(-x // g), fe(-y // g)]), fe(-level // g)))
    return Triple.build(PolytopeH(2, halfspaces),
                        Quasilattice(2, (KVector([fe(1), fe(0)]), KVector([fe(0), fe(1)]))))


def _golden_quadrilateral():
    """x, y >= 0, x + y <= 2 and x + phi*y <= 3 over the quasilattice spanned by
    e1, e2, phi*e1 and phi*e2: phi*e1 lies outside the normals' Z-span."""
    zero, one, f = fe(0, 0, 5), fe(1, 0, 5), phi()
    lattice = Quasilattice(2, (KVector([one, zero]), KVector([zero, one]),
                               KVector([f, zero]), KVector([zero, f])))
    halfspaces = [HalfSpace(kv5(1, 0), fe(0, 0, 5)), HalfSpace(kv5(0, 1), fe(0, 0, 5)),
                  HalfSpace(kv5(-1, -1), fe(-2, 0, 5)), HalfSpace(kv5(-1, -f), fe(-3, 0, 5))]
    return Triple.build(PolytopeH(2, halfspaces), lattice)


def test_presentations_against_the_per_generator_route():
    # the route build_presentation took before: the canonical kernel of pi by the
    # textbook route (rref of pi, then rref of its raw kernel rows), a generator
    # left out when the integer system of all the normals has a solution,
    # KMatrix.solve's particular solution for each other one, reduced modulo the
    # kernel (at its pivots) and 1, and a Smith form for the group
    seen_in_span = seen_outside = 0
    golden = _golden_quadrilateral()
    extra = [_tangent_polygon(6, range(-30, 30)), golden]
    for t in _simple_triples_and_halves(9191) + extra:
        d, n = t.polytope.d, t.polytope.dim
        pi = KMatrix(zip(*t.normals))
        ref_rows, ref_pivots = fieldmatrix.rref(pi.rows, d)
        kernel = [KVector(v, pi.d) for v in fieldmatrix.kernel(ref_rows, ref_pivots, d, pi.d)]
        pivots = [next(i for i, x in enumerate(row) if not x.is_zero()) for row in kernel]
        assert all(row[p] == 1 for row, p in zip(kernel, pivots))
        expected = []
        for gen in t.lattice.generators:
            cert = int_solve(*split_target(gen, t.normals, n), ncols=d)
            if cert is not None:
                assert sum((v.scale(c) for c, v in zip(cert, t.normals)), gen.scale(0)) == gen
                seen_in_span += 1
                continue
            x, x_kernel = pi.solve(gen)
            assert x_kernel == kernel
            for g, p in zip(kernel, pivots):
                x = x - g.scale(x[p])
            expected.append(KVector([c.mod1() for c in x], d=gen.d))
            seen_outside += 1
        rows = [list(r) for r in relation_lattice(t.lattice)] + [list(c) for c in t.certificates]
        factors = snf(rows, ncols=t.lattice.m).invariant_factors()
        group = AbelianGroupInvariants(t.lattice.m - len(factors),
                                       tuple(f for f in factors if f > 1))
        pres = build_presentation(t)
        assert (pres.d, pres.n) == (d, n)
        assert list(pres.cont_gens) == kernel
        assert [r.coefficients for r in pres.level_rows] == kernel
        assert [r.constant for r in pres.level_rows] == [
            -sum((c * lam for c, lam in zip(row, t.levels)), fe(0, 0, row.d)) for row in kernel]
        assert list(pres.disc_gens) == expected
        assert pres.component_invariants == group
        assert t is not golden or pres.disc_gens
    assert seen_in_span > 50 and seen_outside > 50
    assert extra[0].polytope.d == 60


def test_presentations_and_charts_make_no_fraction(monkeypatch):
    # field elements on the construction path come from integer pairs, never
    # through Fraction; parsing and report text may still use it
    triples = _simple_triples_and_halves(7171)
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kwargs: made.append(args) or new(cls, *args, **kwargs))
    for t in triples:
        build_presentation(t)
        build_charts(t)
    monkeypatch.undo()
    assert made == []


def test_chart_generators_against_integer_membership():
    # independent route: a generator is left out of group_gens exactly when
    # the integer system of the active normals has a solution, and the angles
    # of the others are the field solution of A^T x = gen, reduced mod 1
    rng = random.Random(4242)
    seen_in_span = seen_outside = 0
    for name in SIMPLE_EXAMPLES:
        t = get_example(name)
        for triple in [t] + seeded_halves(t, rng):
            n = triple.polytope.dim
            for chart in build_charts(triple):
                normals = [triple.normals[j] for j in chart.active]
                at = KMatrix(zip(*normals))
                expected = []
                for gen in triple.lattice.generators:
                    cert = int_solve(*split_target(gen, normals, n), ncols=n)
                    if cert is not None:
                        assert sum((v.scale(c) for c, v in zip(cert, normals)),
                                   gen.scale(0)) == gen
                        seen_in_span += 1
                        continue
                    x, kernel = at.solve(gen)
                    assert not kernel
                    angles = KVector([c.mod1() for c in x], d=gen.d)
                    assert not angles.is_zero()
                    expected.append(angles)
                    seen_outside += 1
                assert list(chart.group_gens) == expected, name
    assert seen_in_span and seen_outside


# -- half-kite via cutting -------------------------------------------------------


def test_half_kite_cut_presentation():
    t = kite()
    normal, level = kite_axis_cut()
    t_plus, t_minus, p_plus, p_minus = cut_and_present(t, normal, level)
    p = phi()
    assert list(p_minus.cont_gens) == [kv5(1, p, p)]
    row = p_minus.level_rows[0]
    assert list(row.coefficients) == [fe(1, 0, 5), p, p]
    assert row.constant == p
    assert p_minus.component_invariants.free_rank == 1
    assert not p_minus.component_invariants.torsion
    # the plus half is the mirror image with permuted facets
    assert p_plus.component_invariants.free_rank == 1
    assert same_row_space(p_plus.cont_gens, [kv5(1, p - 1, 1)])


def test_half_kite_discrete_generator_class():
    t = kite()
    normal, level = kite_axis_cut()
    _tp, t_minus, _pp, p_minus = cut_and_present(t, normal, level)
    cand = kv5(0, 0, phi())
    # (0,0,phi) is itself a nonzero class
    zero = kv5(0, 0, 0)
    assert not torus_classes_equal(t_minus, cand, zero)
    # every reported discrete generator is an integer multiple of its class
    assert p_minus.disc_gens
    for g in p_minus.disc_gens:
        assert any(torus_classes_equal(t_minus, g, cand.scale(k))
                   for k in range(-3, 4) if k != 0)


def test_cut_interval_gives_spheres():
    t = sphere()
    tp, tm, pp, pm = cut_and_present(t, KVector([fe(1)]), fe(Fraction(1, 2)))
    for pres in (pp, pm):
        assert len(pres.level_rows) == 1
        assert list(pres.level_rows[0].coefficients) == [fe(1), fe(1)]
        assert pres.component_invariants.is_trivial()


def test_cut_thick_rhombus_smoke():
    t = get_example("thick_rhombus")
    tp, tm, pp, pm = cut_and_present(t, kv5(1, -1), fe(0, 0, 5))
    assert len(tp.polytope.vertices()) == 3
    assert len(tm.polytope.vertices()) == 3
    assert len(pp.level_rows) == 1 and len(pm.level_rows) == 1


# -- classification ---------------------------------------------------------------


def test_classification_table():
    assert classify(cube()).kind == "manifold"
    assert classify(tetrahedron()).kind == "manifold"
    oc = classify(octahedron())
    assert (oc.simple, oc.rational, oc.kind) == (False, True, "stratified-by-manifolds")
    dd = classify(dodecahedron())
    assert (dd.simple, dd.rational, dd.kind) == (True, False, "quasifold")
    assert len(dd.chart_kinds) == 20
    assert all(k == "quasifold" for k in dd.chart_kinds)
    ic = classify(get_example("icosahedron"))
    assert (ic.simple, ic.rational, ic.kind) == (False, False, "stratified-by-quasifolds")


def test_classify_kinds_are_the_chart_kinds():
    for t in _simple_triples_and_halves(4141):
        assert classify(t).chart_kinds == tuple(c.kind() for c in build_charts(t))


def test_classify_builds_no_chart(monkeypatch):
    # one quotient_by per vertex, and no chart and no chart elimination; the
    # validation scan's eliminations are polytope's own
    calls = []
    quotient = construction.quotient_by
    monkeypatch.setattr(construction, "build_charts", lambda t: calls.append("build_charts"))
    monkeypatch.setattr(construction, "_eliminate", lambda *a: calls.append("_eliminate"))
    monkeypatch.setattr(construction, "quotient_by",
                        lambda *a: calls.append("quotient_by") or quotient(*a))
    for name in SIMPLE_EXAMPLES:
        t = get_example(name)
        calls.clear()
        kinds = classify(t).chart_kinds
        assert calls == ["quotient_by"] * len(t.polytope.vertices())
        assert len(kinds) == len(calls)


def test_nonsimple_construction_refused():
    with pytest.raises(NonsimpleTripleError) as err:
        build_presentation(octahedron())
    assert err.value.classification.kind == "stratified-by-manifolds"


def test_degenerate_triple_rejected():
    # normals all along one axis cannot span the plane
    with pytest.raises(ValueError):
        lattice = Quasilattice(2, (kv5(1, 0), kv5(0, 1)))
        poly = PolytopeH(2, [HalfSpace(kv5(1, 0), fe(0, 0, 5)),
                             HalfSpace(kv5(-1, 0), fe(-1, 0, 5))])
        Triple.build(poly, lattice).ensure_valid()


# -- structural properties -----------------------------------------------------------


def test_kernel_orthogonality_everywhere():
    for name in ("quasisphere", "kite", "thick_rhombus", "thin_rhombus",
                 "cube", "tetrahedron", "prolate_rhombohedron"):
        t = get_example(name)
        pi = KMatrix(zip(*t.normals))
        pres = build_presentation(t)
        for g in pres.cont_gens:
            assert matvec(pi, g).is_zero()
        for row in pres.level_rows:
            acc = fe(0, 0, row.constant.d)
            for c, lam in zip(row.coefficients, t.levels):
                acc = acc + c * lam
            assert (acc + row.constant).is_zero()


def test_vertex_count_equals_chart_count():
    for name in ("quasisphere", "kite", "cube", "dodecahedron"):
        t = get_example(name)
        assert len(build_charts(t)) == len(t.polytope.vertices())


def test_charts_per_vertex_and_quasifold_iff_lattice_rank_exceeds_dim():
    """On the simple examples and seeded halves: one chart per vertex, and the
    chart groups make a quasifold exactly when the quasilattice's Z-rank
    exceeds the dimension (the normals' Z-rank does not decide it: the
    rhombi's normals have Z-rank 2 = n)."""
    rng = random.Random(55)
    for name in SIMPLE_EXAMPLES:
        t = get_example(name)
        for u in [t, *seeded_halves(t, rng, tries=2)]:
            c = classify(u)
            assert c.simple and len(c.chart_kinds) == len(u.polytope.vertices()), name
            assert (c.kind == "quasifold") == (z_rank(u.lattice) > u.polytope.dim), name


def test_chart_bounds_positive():
    for name in ("kite", "thin_rhombus", "dodecahedron"):
        for c in build_charts(get_example(name)):
            for ineq in c.domain_ineqs:
                assert ineq.bound.sign() > 0


def test_scale_equivariance():
    # positive scalars; 3/7 + phi/5 puts mixed denominators and sqrt(5) parts into the levels
    t = kite()
    p0, ch0 = build_presentation(t), build_charts(t)
    for c in (phi() * phi(), fe(Fraction(3, 7), 0, 5) + phi() / 5):
        scaled_poly = PolytopeH(2, [HalfSpace(h.normal, h.level * c)
                                    for h in t.polytope.halfspaces])
        ts = Triple(scaled_poly, t.lattice, t.certificates)
        p1 = build_presentation(ts)
        assert p0.cont_gens == p1.cont_gens
        assert p0.disc_gens == p1.disc_gens
        for r0, r1 in zip(p0.level_rows, p1.level_rows):
            assert r0.coefficients == r1.coefficients
            assert r1.constant == r0.constant * c
        ch1 = build_charts(ts)
        assert len(ch0) == len(ch1) > 0
        for a, b in zip(ch0, ch1):
            assert a.group_gens == b.group_gens
            for i0, i1 in zip(a.domain_ineqs, b.domain_ineqs, strict=True):
                assert i0.coefficients == i1.coefficients
                assert i1.bound == i0.bound * c


def test_slot_expressions_satisfy_level_rows():
    # substituting |z_j|^2 = bound_j - sum c|z|^2 into each level row is exact
    t = quasisphere()
    pres = build_presentation(t)
    chart = build_charts(t)[0]
    smoke = [fe(Fraction(1, 3), 0, 5)]          # a point of the chart domain
    modsq = {chart.active[k]: smoke[k] for k in range(len(chart.active))}
    for ineq in chart.domain_ineqs:
        val = ineq.bound
        for ck, zk in zip(ineq.coefficients, smoke):
            val = val - ck * zk
        assert val.sign() > 0
        modsq[ineq.facet] = val
    for row in pres.level_rows:
        acc = fe(0, 0, 5)
        for j, c in enumerate(row.coefficients):
            acc = acc + c * modsq[j]
        assert acc == row.constant


# -- reports --------------------------------------------------------------------------


def test_text_report_quasisphere():
    text = emit_report(build_presentation(quasisphere()), None, "text")
    assert "|z1|^2 + φ|z2|^2 = φ" in text


def test_text_report_kite_style():
    t = kite()
    text = emit_report(build_presentation(t), build_charts(t), "text")
    assert "level set:" in text and "chart group" in text


def test_format_field_elem():
    p = phi()
    assert format_field_elem(p) == "φ"
    assert format_field_elem(p - 1) == "φ - 1"
    assert format_field_elem(2 - p) == "2 - φ"
    assert format_field_elem(fe(2, 0, 5) * p) == "2φ"
    assert format_field_elem(fe(Fraction(3, 2))) == "3/2"


def test_json_report_roundtrip(capsys):
    # the report is the presentation's canonical encoding, byte for byte, as the CLI prints it
    pres = build_presentation(kite())
    text = emit_report(pres, None, "json")
    assert text == jsonio.dumps_canonical(jsonio.encode_presentation(pres))
    assert main(["present", "--example", "kite", "--format", "json"]) == 0
    assert capsys.readouterr().out == text


def test_empty_chart_list_report():
    text = emit_report(build_presentation(sphere()), [], "text")
    assert "chart" not in text.split("component group")[1]
