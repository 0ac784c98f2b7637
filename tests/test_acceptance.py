"""Acceptance suite: one test per criterion, one PASS line each (run -s).

Exact checks use field equality; floating point appears only in the SVG/ratio
projections of criterion 7.
"""
import json
import random
from fractions import Fraction

from quasitoric import jsonio
from quasitoric.construction import (NonsimpleTripleError, Triple,
                                     build_charts, build_presentation,
                                     classify, cut_and_present)
from quasitoric.examples import EXAMPLES, get_example, kite_axis_cut
from quasitoric.field import FieldElem, KMatrix, KVector, fe, phi
from quasitoric.intlattice import hnf_basis, int_solve, mat_vec, snf
from quasitoric.polytope import HalfSpace, PolytopeH
from quasitoric.quasilattice import combination, member
from quasitoric.tilings import deflate, inflate, seed, verify_patch

from edges import count_by_kind
from example_builders import load_quasilattice, orbisphere, quasisphere, sphere
from fieldmatrix import matvec, torus_classes_equal
from intmatrix import det, mat_mul


def kv5(*xs):
    return KVector([x if isinstance(x, FieldElem) else fe(x, 0, 5) for x in xs])


def _pass(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_quasisphere_reproduction():
    pres = build_presentation(quasisphere())
    p = phi()
    assert len(pres.level_rows) == 1
    assert list(pres.level_rows[0].coefficients) == [fe(1, 0, 5), p]
    assert pres.level_rows[0].constant == p
    assert list(pres.cont_gens) == [kv5(1, p)]
    assert pres.component_invariants.is_trivial()
    _pass(1, "quasisphere level row |z1|^2 + phi|z2|^2 = phi, "
             "direction (1, phi), trivial component group")


def test_criterion_2_orbisphere_and_sphere():
    charts = build_charts(orbisphere(2, 3))
    invs = sorted((c.group_invariants.free_rank, c.group_invariants.torsion)
                  for c in charts)
    assert invs == [(0, (2,)), (0, (3,))]
    assert all(c.group_invariants.is_trivial() for c in build_charts(sphere()))
    _pass(2, "orbisphere chart groups Z/3 and Z/2; sphere charts trivial")


def test_criterion_3_kite():
    t = get_example("kite")
    pres = build_presentation(t)
    p = phi()
    level_span = [kv5(p, 1, p, 0), kv5(0, p, 1, p)]
    cont_span = [kv5(-1, 1, 0, p), kv5(p, 0, 1, -1)]
    rows = [r.coefficients for r in pres.level_rows]
    assert KMatrix.from_vectors(rows + level_span).rank() == 2
    assert KMatrix.from_vectors(list(pres.cont_gens) + cont_span).rank() == 2

    apex = next(c for c in build_charts(t) if c.active == (1, 2))
    inv = apex.group_invariants
    assert inv.free_rank == 2 and not inv.torsion
    # chart group generators match <(phi,0), (0,phi)> mod Z^2 up to basis change
    def subgroup(vectors):
        units = [kv5(1, 0), kv5(0, 1)]
        den = 1
        from math import lcm
        for v in list(vectors) + units:
            for x in v:
                den = lcm(den, x.a.denominator, x.b.denominator)
        rows = [[int(x.a * den) for x in v] + [int(x.b * den) for x in v]
                for v in list(vectors) + units]
        return hnf_basis(rows, 4)
    assert subgroup(apex.group_gens) == subgroup([kv5(p, 0), kv5(0, p)])

    assert len(apex.domain_ineqs) == 2
    canon = []
    for ineq in apex.domain_ineqs:
        scale = min(ineq.coefficients).inverse()
        coeffs = sorted((c * scale for c in ineq.coefficients), key=float)
        canon.append((coeffs, ineq.bound * scale))
    assert canon[0][0] == [fe(1, 0, 5), p] and canon[1][0] == [fe(1, 0, 5), p]
    assert canon[0][1] == canon[1][1]
    _pass(3, "kite level/torus row spaces, chart group (phi,0),(0,phi), "
             "domain coefficient sets {1,phi} with equal bounds")


def test_criterion_4_half_kite():
    t = get_example("kite")
    normal, level = kite_axis_cut()
    _tp, tm, _pp, pm = cut_and_present(t, normal, level)
    p = phi()
    assert list(pm.cont_gens) == [kv5(1, p, p)]
    row = pm.level_rows[0]
    assert list(row.coefficients) == [fe(1, 0, 5), p, p]
    assert pm.component_invariants.free_rank == 1
    assert not pm.component_invariants.torsion
    cand = kv5(0, 0, p)
    zero = kv5(0, 0, 0)
    assert not torus_classes_equal(tm, cand, zero)      # nonzero class
    assert pm.disc_gens
    for g in pm.disc_gens:                               # generated by (0,0,phi)
        assert any(torus_classes_equal(tm, g, cand.scale(k))
                   for k in range(-3, 4) if k != 0)
    _pass(4, "half-kite direction (1,phi,phi), component group Z generated "
             "by the class of (0,0,phi)")


def test_criterion_5_rhombus_and_ammann_pairs():
    p = phi()
    consts = {}
    for name in ("thick_rhombus", "thin_rhombus"):
        pres = build_presentation(get_example(name))
        supports = [tuple(j for j, c in enumerate(r.coefficients)
                          if not c.is_zero()) for r in pres.level_rows]
        assert len(pres.level_rows) == 2
        assert all(len(s) == 2 for s in supports)
        assert not set(supports[0]) & set(supports[1])
        assert len({r.constant for r in pres.level_rows}) == 1
        consts[name] = pres.level_rows[0].constant
    assert consts["thick_rhombus"] == p * consts["thin_rhombus"]
    # consistent with the printed radii: (1/2)/(1/(2 phi)) = phi exactly
    assert fe(Fraction(1, 2), 0, 5) / (fe(Fraction(1, 2), 0, 5) * (p - 1)) == p

    for name, rows in (("prolate_rhombohedron", 3), ("oblate_rhombohedron", 3)):
        pres = build_presentation(get_example(name))
        supports = [tuple(j for j, c in enumerate(r.coefficients)
                          if not c.is_zero()) for r in pres.level_rows]
        assert len(pres.level_rows) == rows
        assert all(len(s) == 2 for s in supports)
        assert len({j for s in supports for j in s}) == 6
        assert len({r.constant for r in pres.level_rows}) == 1
        consts[name] = pres.level_rows[0].constant
    assert consts["prolate_rhombohedron"] == p * consts["oblate_rhombohedron"]
    # consistent with the printed radii: 2 phi^2 (3-phi) / (2 (3-phi)) = phi^2
    three_minus = fe(3, 0, 5) - p
    assert (fe(2, 0, 5) * p * p * three_minus) / (fe(2, 0, 5) * three_minus) == p * p
    _pass(5, "rhombus and rhombohedron presentations decouple; "
             "constant ratios thick:thin = prolate:oblate = phi exactly")


def test_criterion_6_regular_polyhedra_table():
    cl = classify(get_example("cube"))
    assert cl.kind == "manifold"
    pres = build_presentation(get_example("cube"))
    assert len(pres.level_rows) == 3
    supports = [tuple(j for j, c in enumerate(r.coefficients) if not c.is_zero())
                for r in pres.level_rows]
    assert all(len(s) == 2 for s in supports)

    cl = classify(get_example("tetrahedron"))
    assert cl.kind == "manifold"
    pres = build_presentation(get_example("tetrahedron"))
    assert len(pres.level_rows) == 1
    assert all(c == fe(1) for c in pres.level_rows[0].coefficients)
    assert list(pres.cont_gens) == [KVector([fe(1)] * 4)]   # diagonal circle

    cl = classify(get_example("octahedron"))
    assert (cl.simple, cl.rational) == (False, True)
    assert cl.kind == "stratified-by-manifolds"
    try:
        build_presentation(get_example("octahedron"))
        raise AssertionError("octahedron construction must refuse")
    except NonsimpleTripleError:
        pass

    cl = classify(get_example("dodecahedron"))
    assert (cl.simple, cl.rational, cl.kind) == (True, False, "quasifold")
    assert len(cl.chart_kinds) == 20
    assert all(k == "quasifold" for k in cl.chart_kinds)

    cl = classify(get_example("icosahedron"))
    assert (cl.simple, cl.rational) == (False, False)
    assert cl.kind == "stratified-by-quasifolds"
    _pass(6, "cube/tetrahedron manifolds, octahedron and icosahedron refused "
             "with the correct stratified kinds, dodecahedron a quasifold "
             "with 20 infinite chart groups")


def test_criterion_7_tiling_suite():
    for mode in ("p2", "p3"):
        base = seed(mode, "acute")
        for k in range(1, 7):
            d = deflate(base, k)
            assert inflate(d, k) == base
        verify_patch(deflate(base, 6))
        verify_patch(deflate(seed(mode, "obtuse"), 6))
        patch = base
        a, o = 1, 0
        for _ in range(6):
            patch = deflate(patch, 1)
            a, o = 2 * a + o, a + o
            c = count_by_kind(patch)
            assert (c["acute"], c["obtuse"]) == (a, o)
        for t in patch.leaves():
            for v in t.vertices:
                assert all(isinstance(x, int) for x in v.c)
    deep = deflate(seed("p2", "acute"), 10)
    c = count_by_kind(deep)
    assert abs(c["acute"] / c["obtuse"] - (1 + 5 ** 0.5) / 2) < 1e-3
    _pass(7, "inflate/deflate exact inverses to depth 6, edge cancellation "
             "at every node, Robinson counts exact, depth-10 ratio near phi")


def test_criterion_8_property_suites():
    rng = random.Random(2024)

    def rand_fe():
        return FieldElem(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                         Fraction(rng.randint(-50, 50), rng.randint(1, 9)), 5)

    for _ in range(1000):
        x, y, z = rand_fe(), rand_fe(), rand_fe()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == fe(1, 0, 5)

    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        a = KMatrix([[rand_fe() for _ in range(n)] for _ in range(m)])
        b = KVector([rand_fe() for _ in range(m)])
        res = a.solve(b)
        if res is not None:
            part, kernel = res
            assert matvec(a, part) == b
            for v in kernel:
                assert matvec(a, v).is_zero()

    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        dec = snf(a)
        assert mat_mul(mat_mul(dec.u, a), dec.v) == dec.s
        assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1
        x = [rng.randint(-4, 4) for _ in range(n)]
        sol = int_solve(a, mat_vec(a, x))
        assert sol is not None and mat_vec(a, sol) == mat_vec(a, x)

    for name in EXAMPLES:
        t = get_example(name)
        for j, cert in enumerate(t.certificates):
            assert combination(t.lattice, cert) == t.polytope.halfspaces[j].normal
    for fname in ("pentagon", "icosa_simple", "icosa_body", "icosa_face"):
        q = load_quasilattice(fname)
        for g in q.generators:
            cert = member(q, g)
            assert cert is not None and combination(q, cert) == g

    t = get_example("kite")
    c = phi() * phi() * phi()
    scaled = Triple(PolytopeH(2, [HalfSpace(h.normal, h.level * c)
                                  for h in t.polytope.halfspaces]),
                    t.lattice, t.certificates)
    p0, p1 = build_presentation(t), build_presentation(scaled)
    assert p0.cont_gens == p1.cont_gens and p0.disc_gens == p1.disc_gens
    for r0, r1 in zip(p0.level_rows, p1.level_rows):
        assert r1.constant == r0.constant * c

    for name in ("quasisphere", "kite", "cube", "oblate_rhombohedron"):
        t = get_example(name)
        text = jsonio.dumps_canonical(jsonio.encode_triple(t))
        again = jsonio.parse_triple(json.loads(text))
        assert jsonio.dumps_canonical(jsonio.encode_triple(again)) == text
    patch = deflate(seed("p2", "obtuse"), 3)
    text = jsonio.dumps_canonical(jsonio.encode_patch(patch))
    assert jsonio.dumps_canonical(
        jsonio.encode_patch(jsonio.parse_patch(json.loads(text)))) == text
    _pass(8, "field axioms (1000 cases), solver re-substitution, SNF "
             "identities, certificate round-trips, scale equivariance, "
             "JSON byte determinism")
