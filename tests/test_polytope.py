import itertools
import math
import random
from fractions import Fraction

import pytest

from quasitoric import polytope
from quasitoric.examples import EXAMPLES, get_example
from quasitoric.field import FieldMixError, KMatrix, KVector, fe, phi
from quasitoric.polytope import (DegenerateCutError, HalfSpace, PolytopeH,
                                 ValidationReport, VertexData, cut, cut_with_maps)

import fieldmatrix
from halves import SIMPLE_EXAMPLES, seeded_cuts, seeded_halves


def kv(*xs, d=0):
    return KVector([fe(x, 0, d) for x in xs])


def unit_interval_quasi():
    p = phi()
    return PolytopeH(1, [HalfSpace(KVector([p]), fe(0, 0, 5)),
                         HalfSpace(KVector([fe(-1, 0, 5)]), fe(-1, 0, 5))])


def unit_square():
    return PolytopeH(2, [HalfSpace(kv(1, 0), fe(0)), HalfSpace(kv(0, 1), fe(0)),
                         HalfSpace(kv(-1, 0), fe(-1)), HalfSpace(kv(0, -1), fe(-1))])


def unit_cube():
    hs = [HalfSpace(kv(*(1 if j == i else 0 for j in range(3))), fe(0)) for i in range(3)]
    hs += [HalfSpace(kv(*(-1 if j == i else 0 for j in range(3))), fe(-1)) for i in range(3)]
    return PolytopeH(3, hs)


def octahedron():
    hs = [HalfSpace(kv(s1, s2, s3), fe(-1))
          for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    return PolytopeH(3, hs)


def test_interval_vertices():
    p = unit_interval_quasi()
    vs = p.vertices()
    assert [list(v.point) for v in vs] == [[fe(0, 0, 5)], [fe(1, 0, 5)]]
    assert [v.active_facets for v in vs] == [(0,), (1,)]
    rep = p.validate()
    assert rep.bounded and rep.full_dim and rep.simple and rep.irredundant_facets


def test_cube_vertices():
    c = unit_cube()
    vs = c.vertices()
    assert len(vs) == 8
    assert all(len(v.active_facets) == 3 for v in vs)
    assert c.validate().simple


def test_octahedron_not_simple():
    o = octahedron()
    vs = o.vertices()
    assert len(vs) == 6
    assert all(len(v.active_facets) == 4 for v in vs)
    rep = o.validate()
    assert rep.bounded and rep.full_dim and rep.irredundant_facets
    assert not rep.simple


def test_single_halfspace_unbounded():
    p = PolytopeH(2, [HalfSpace(kv(1, 0), fe(0))])
    assert not p.validate().bounded


def test_missing_direction_unbounded():
    p = PolytopeH(2, [HalfSpace(kv(1, 0), fe(0)), HalfSpace(kv(0, 1), fe(0)),
                      HalfSpace(kv(-1, -1), fe(-5))])
    # a triangle: bounded
    assert p.validate().bounded
    q = PolytopeH(2, [HalfSpace(kv(1, 0), fe(0)), HalfSpace(kv(0, 1), fe(0))])
    assert not q.validate().bounded


def test_empty_bounded_polytope_reports_no_property():
    # x + y >= 3 misses the unit square: bounded, with no vertex
    p = PolytopeH(2, [*unit_square().halfspaces, HalfSpace(kv(1, 1), fe(3))])
    assert p.vertices() == ()
    assert p.validate() == ValidationReport(True, False, False, False, 0)


def test_every_vertex_satisfies_all_inequalities():
    for poly in (unit_square(), unit_cube(), octahedron()):
        for v in poly.vertices():
            for h in poly.halfspaces:
                assert fieldmatrix.slack(h, v.point).sign() >= 0


def test_mixed_fields_are_refused():
    with pytest.raises(FieldMixError):
        HalfSpace(kv(-1, 0, d=2), fe(-1, 0, 5))
    # the unit square with its facet x <= 1 in Q(sqrt 5), the others in Q(sqrt 2)
    hs = [HalfSpace(kv(1, 0, d=2), fe(0, 0, 2)), HalfSpace(kv(0, 1, d=2), fe(0, 0, 2)),
          HalfSpace(kv(-1, 0, d=5), fe(-1, 0, 5)), HalfSpace(kv(0, -1, d=2), fe(-1, 0, 2))]
    with pytest.raises(FieldMixError):
        PolytopeH(2, hs)


def test_empty_polytope_is_refused():
    with pytest.raises(ValueError, match="at least one half-space"):
        PolytopeH(2, [])


def test_facet_contact_dimension():
    trimmed, keep = unit_cube().drop_redundant()
    assert keep == list(range(6)) and trimmed.validate().irredundant_facets


def test_redundant_facet_detected():
    # the plane x <= 2 misses the unit square's facets entirely
    hs = list(unit_square().halfspaces) + [HalfSpace(kv(-1, 0), fe(-2))]
    p = PolytopeH(2, hs)
    rep = p.validate()
    assert not rep.irredundant_facets
    trimmed, keep = p.drop_redundant()
    assert keep == [0, 1, 2, 3]


def test_drop_redundant_refuses_what_it_cannot_trim():
    # the bounded segment 0 <= x <= 1, y = 0: not full-dimensional, and a trimmed
    # copy keeping only its two y facets would be a whole line
    segment = PolytopeH(2, [HalfSpace(kv(0, 1), fe(0)), HalfSpace(kv(0, -1), fe(0)),
                            HalfSpace(kv(1, 0), fe(0)), HalfSpace(kv(-1, 0), fe(-1))])
    assert segment.is_bounded() and len(segment.vertices()) == 2
    unbounded = PolytopeH(2, [HalfSpace(kv(1, 0), fe(0)), HalfSpace(kv(0, 1), fe(0))])
    for p in (segment, unbounded):
        with pytest.raises(ValueError, match="bounded full-dimensional"):
            p.drop_redundant()


def test_cut_interval_at_half():
    from fractions import Fraction
    p = PolytopeH(1, [HalfSpace(kv(1), fe(0)), HalfSpace(kv(-1), fe(-1))])
    plus, minus = cut(p, kv(1), fe(Fraction(1, 2)))
    ppts = sorted(float(v.point[0]) for v in plus.vertices())
    mpts = sorted(float(v.point[0]) for v in minus.vertices())
    assert ppts == [0.5, 1.0]
    assert mpts == [0.0, 0.5]


def test_cut_square_diagonal():
    plus, minus = cut(unit_square(), kv(1, 1), fe(1))
    for half in (plus, minus):
        assert half.d == 3
        assert len(half.vertices()) == 3
        assert half.validate().simple
    # oracle: direct vertex check
    plus_pts = {tuple(float(x) for x in v.point) for v in plus.vertices()}
    assert plus_pts == {(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_cut_preserves_facet_order():
    plus, map_p, minus, map_m = cut_with_maps(unit_square(), kv(1, 1), fe(1))
    assert map_p[-1] == -1 and map_m[-1] == -1
    assert map_p[:-1] == sorted(map_p[:-1])
    assert map_m[:-1] == sorted(map_m[:-1])


def test_cut_vertex_inclusion_property():
    p = unit_square()
    plus, minus = cut(p, kv(1, 1), fe(1))
    original = {v.point for v in p.vertices()}
    combined = {v.point for v in plus.vertices()} | {v.point for v in minus.vertices()}
    assert original <= combined
    for v in p.vertices():
        side = (kv(1, 1).dot(v.point) - fe(1)).sign()
        if side > 0:
            assert v.point in {w.point for w in plus.vertices()}
            assert v.point not in {w.point for w in minus.vertices()}


def test_degenerate_cut_rejected():
    with pytest.raises(DegenerateCutError):
        cut(unit_square(), kv(1, 0), fe(0))      # supporting hyperplane
    with pytest.raises(DegenerateCutError):
        cut(unit_square(), kv(1, 0), fe(5))      # misses entirely


def test_cut_refuses_an_unbounded_polyhedron():
    # its facets x >= 0 and y >= 0 touch one vertex each, so trimming would drop them
    p = PolytopeH(2, [HalfSpace(kv(1, 0), fe(0)), HalfSpace(kv(0, 1), fe(0)),
                      HalfSpace(kv(1, 1), fe(1))])
    with pytest.raises(ValueError, match="bounded full-dimensional"):
        cut(p, kv(1, -1), fe(0))


def test_cut_through_vertices_allowed():
    # diagonal through two opposite corners of the square
    plus, minus = cut(unit_square(), kv(1, -1), fe(0))
    assert len(plus.vertices()) == 3 and len(minus.vertices()) == 3
    shared = {v.point for v in plus.vertices()} & {v.point for v in minus.vertices()}
    assert len(shared) == 2


# -- the integer enumeration against a per-subset field reference ----------------


def reference_vertices(p):
    """Every n-subset solved by `KMatrix.solve`, kept when its point satisfies
    every half-space; active facets from `fieldmatrix.slack`."""
    found = {}
    for subset in itertools.combinations(range(p.d), p.dim):
        a = KMatrix.from_vectors([p.halfspaces[j].normal for j in subset])
        sol = a.solve(KVector([p.halfspaces[j].level for j in subset], d=p.field_d))
        if sol is None or sol[1]:
            continue
        slacks = [fieldmatrix.slack(h, sol[0]).sign() for h in p.halfspaces]
        if min(slacks) >= 0:
            found[sol[0]] = VertexData(sol[0], tuple(j for j, s in enumerate(slacks) if s == 0))
    return tuple(sorted(found.values(), key=lambda v: tuple(v.point)))


def reference_bounded(p):
    """No ray: no kernel line of an (n-1)-subset on which every normal is >= 0."""
    if KMatrix.from_vectors([h.normal for h in p.halfspaces]).rank() < p.dim:
        return False
    for subset in itertools.combinations(range(p.d), p.dim - 1):
        rays = KMatrix([p.halfspaces[j].normal.entries for j in subset],
                       ncols=p.dim, d=p.field_d).kernel_basis()
        if len(rays) == 1 and any(all(h.normal.dot(y).sign() >= 0 for h in p.halfspaces)
                                  for y in (rays[0], -rays[0])):
            return False
    return True


def reference_affine_dim(points):
    """Affine dimension of the points (-1 if none): the `FieldElem` rank of
    their differences from the first."""
    if not points:
        return -1
    diffs = [list(q - points[0]) for q in points[1:]]
    return len(fieldmatrix.rref(diffs, len(points[0]))[0])


def assert_matches_reference(p):
    """Vertices, boundedness, facet contact dimensions and the validation
    report of `p` (which may have inherited them from a cut) and of a fresh
    copy, against the field references."""
    fresh = PolytopeH(p.dim, p.halfspaces)
    expected = reference_vertices(p)
    bounded = reference_bounded(p)
    contact = [reference_affine_dim([v.point for v in expected if j in v.active_facets])
               for j in range(p.d)]
    full_dim = reference_affine_dim([v.point for v in expected]) == p.dim
    irredundant = all(c == p.dim - 1 for c in contact)
    for q in (p, fresh):
        assert q.vertices() == expected
        assert q.is_bounded() == bounded
        if bounded and full_dim:   # trimming keeps the facets of contact dimension n - 1
            assert q.drop_redundant()[1] == [j for j, c in enumerate(contact) if c == p.dim - 1]
        report = q.validate()
        assert report.bounded == bounded
        if bounded:   # an unbounded report stops there, all False
            assert (report.full_dim, report.irredundant_facets) == (full_dim, irredundant)
    return expected


def test_vertices_match_reference_on_examples():
    for name in EXAMPLES:
        assert_matches_reference(get_example(name).polytope)


def test_vertices_match_reference_on_cut_halves():
    rng = random.Random(707)
    for name in ("cube", "dodecahedron", "kite", "tetrahedron", "thin_rhombus",
                 "prolate_rhombohedron", "quasisphere"):
        for half in seeded_halves(get_example(name), rng, tries=2):
            assert_matches_reference(half.polytope)


def test_cut_halves_validate_without_trying_a_subset(monkeypatch):
    cube = PolytopeH(3, get_example("cube").polytope.halfspaces)
    # cut --example cube --normal 1,0,0 --level 1/2
    plus, _, minus, _ = cut_with_maps(cube, kv(1, 0, 0), fe(Fraction(1, 2)))
    calls = []
    for name in ("_kernel_line", "_eliminate"):
        method = getattr(polytope, name)
        monkeypatch.setattr(polytope, name, lambda *a, m=method: calls.append(a) or m(*a))
    reports = [half.validate() for half in (plus, minus)]
    assert calls == []
    for half, report in zip((plus, minus), reports):
        assert report.valid and report.simple and report.vertex_count == 8
        assert report == PolytopeH(3, half.halfspaces).validate()


def _random_elem(rng, d):
    a = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
    b = Fraction(rng.randint(-2, 2), rng.choice((1, 2, 5))) if d else 0
    return fe(a, b, d)


def _random_gap(rng, d):
    x = _random_elem(rng, d)
    return -x if x.sign() < 0 else x


def random_polyhedron(rng, d, n):
    """Half-spaces around a feasible point: some through it (nonsimple
    vertices), some duplicated up to a positive scale, some with a parallel
    opposite partner (rank-deficient subsets); few of them leave it unbounded."""
    point = KVector([_random_elem(rng, d) for _ in range(n)])
    hs, count = [], rng.randint(n - 1, n + 5)
    while len(hs) < count:
        normal = KVector([_random_elem(rng, d) for _ in range(n)])
        if normal.is_zero():
            continue
        level = normal.dot(point)
        if rng.random() < 0.7:
            level = level - _random_gap(rng, d)
        hs.append(HalfSpace(normal, level))
        if rng.random() < 0.15:
            c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            hs.append(HalfSpace(normal.scale(c), level * c))
        if rng.random() < 0.2:
            hs.append(HalfSpace(-normal, -level - _random_gap(rng, d)))
    rng.shuffle(hs)
    return PolytopeH(n, hs)


@pytest.mark.parametrize("d", [0, 2, 3, 5])
def test_vertices_match_reference_on_random_polyhedra(d):
    rng = random.Random(f"polyhedra:{d}")
    bounded = nonsimple = duplicated = opposite = 0
    for _ in range(40):
        p = random_polyhedron(rng, d, rng.choice((2, 3)))
        verts = assert_matches_reference(p)
        normals = {h.normal for h in p.halfspaces}
        bounded += p.is_bounded()
        nonsimple += any(len(v.active_facets) > p.dim for v in verts)
        duplicated += len(normals) < p.d
        opposite += any(-x in normals for x in normals)
    assert 0 < bounded < 40 and nonsimple and duplicated and opposite


def test_points_segments_and_empty_sets_match_reference():
    # the point 0 of the line, where irredundancy needs the one-dimensional clause
    point_1d = PolytopeH(1, [HalfSpace(kv(1), fe(0)), HalfSpace(kv(-1), fe(0))])
    point_2d = PolytopeH(2, [HalfSpace(kv(*x), fe(0)) for x in ((1, 0), (-1, 0), (0, 1), (0, -1))])
    segment_3d = PolytopeH(3, [HalfSpace(kv(0, 1, 0), fe(0)), HalfSpace(kv(0, -1, 0), fe(0)),
                               HalfSpace(kv(0, 0, 1), fe(0)), HalfSpace(kv(0, 0, -1), fe(0)),
                               HalfSpace(kv(1, 0, 0), fe(0)), HalfSpace(kv(-1, 0, 0), fe(-1))])
    empty = PolytopeH(1, [HalfSpace(kv(1), fe(1)), HalfSpace(kv(-1), fe(0))])   # bounded
    for p in (point_1d, point_2d, segment_3d, empty):
        assert_matches_reference(p)
    assert point_1d.validate() == ValidationReport(True, False, True, False, 1)
    assert point_2d.validate() == ValidationReport(True, False, False, False, 1)
    assert segment_3d.validate() == ValidationReport(True, False, False, False, 2)
    assert empty.validate() == ValidationReport(True, False, False, False, 0)


def test_elimination_divides_exactly_and_reads_the_kernel():
    rng = random.Random(11)
    for d in (0, 2, 5):
        for k in (1, 2, 3):
            rows = [[(rng.randint(-9, 9), rng.randint(-9, 9) if d else 0)
                     for _ in range(k + 1)] for _ in range(k)]
            y = polytope._kernel_line(rows, d)
            if y is None:
                continue
            assert any(v != (0, 0) for v in y)
            for row in rows:
                assert polytope._dot(row, y, d) == (0, 0)
    # two proportional rows leave a two-dimensional kernel
    assert polytope._kernel_line([[(1, 0), (2, 0), (3, 0)], [(2, 0), (4, 0), (6, 0)]], 0) is None
    # a singular leading block still has a one-dimensional kernel
    rows = [[(1, 0), (1, 0), (0, 0)], [(1, 0), (1, 0), (1, 0)]]
    assert polytope._kernel_line(rows, 0) == [(-1, 0), (1, 0), (0, 0)]


def test_enumeration_never_calls_the_field_solvers(monkeypatch):
    def refuse(*_args):
        raise AssertionError("field solver called")
    monkeypatch.setattr(KMatrix, "solve", refuse)
    monkeypatch.setattr(KMatrix, "kernel_basis", refuse)
    p = PolytopeH(3, get_example("icosahedron").polytope.halfspaces)
    assert len(p.vertices()) == 12 and p.is_bounded()


# -- cut halves against their parent: Euler and cut additivity -------------------


def _edges(verts, n):
    """Vertex pairs sharing n - 1 facets: the edges of a simple polytope."""
    return [(u, w) for u, w in itertools.combinations(verts, 2)
            if len(set(u.active_facets) & set(w.active_facets)) == n - 1]


def test_cut_halves_satisfy_euler_and_cut_additivity():
    rng = random.Random(2024)
    for name in ("cube", "dodecahedron", "tetrahedron", "prolate_rhombohedron",
                 "oblate_rhombohedron"):
        parent = get_example(name).polytope
        parent_edges = _edges(parent.vertices(), 3)
        for normal, level, *halves in seeded_cuts(get_example(name), rng):
            for half, side in zip(halves, (1, -1)):
                p = half.polytope
                verts = p.vertices()
                edges = _edges(verts, 3)
                assert len(verts) - len(edges) + p.d == 2, name
                assert all(sum(v in e for e in edges) == 3 for v in verts)
                expected = {v.point for v in parent.vertices()
                            if side * (normal.dot(v.point) - level).sign() >= 0}
                for u, w in parent_edges:
                    su, sw = normal.dot(u.point) - level, normal.dot(w.point) - level
                    if su.sign() * sw.sign() < 0:
                        expected.add(u.point + (w.point - u.point).scale(su / (su - sw)))
                assert {v.point for v in verts} == expected, name


def sphere_tangents(grid):
    """The planes <p, x> <= 1 tangent to the unit sphere at the points p that inverse
    stereographic projection gives from the pairs (u, v) of `grid`."""
    hs = []
    for u, v in itertools.product(grid, repeat=2):
        s = u * u + v * v
        p = kv(2 * u / (s + 1), 2 * v / (s + 1), (s - 1) / (s + 1))
        hs.append(HalfSpace(-p, fe(-1)))
    return PolytopeH(3, hs)


def euler_characteristic(p):
    """V - E + F of bounded three-dimensional `p`, counted apart from the library's face
    rules: its facets are the distinct sets of three or more vertices that one half-space
    holds (a face with three vertices is two-dimensional), and its edges the vertex pairs
    that two of them share (two facets meet in an edge, a vertex or nothing)."""
    verts = p.vertices()
    held = {frozenset(i for i, v in enumerate(verts) if j in v.active_facets) for j in range(p.d)}
    facets = [f for f in held if len(f) >= 3]
    edges = {f & g for f, g in itertools.combinations(facets, 2) if len(f & g) == 2}
    assert len(facets) == len(p.drop_redundant()[1])
    return len(verts) - len(edges) + len(facets)


def test_many_facets_satisfy_euler():
    tangents = sphere_tangents([Fraction(2 * a, 7) for a in range(-7, 8)])
    assert tangents.d == 225 and tangents.validate().valid
    # the 70-facet triple of the CLI tests: <mu, X> >= -1, X primitive in {-2..2}^3
    normals = [x for x in itertools.product(range(-2, 3), repeat=3)
               if any(x) and math.gcd(*x) == 1][:70]
    many = PolytopeH(3, [HalfSpace(kv(*x), fe(-1)) for x in normals])
    report = many.validate()
    assert report.bounded and report.full_dim and report.vertex_count == 15
    for p in (tangents, many):
        assert euler_characteristic(p) == 2
    # a polygon: as many vertices as edges
    polygon = PolytopeH(2, [HalfSpace(-kv(2 * u / (u * u + 1), (u * u - 1) / (u * u + 1)), fe(-1))
                            for u in (Fraction(a, 30) for a in range(-150, 150))])
    assert polygon.d == 300 and polygon.validate().valid
    assert len(polygon.vertices()) == polygon.d


# -- the h-vector two ways ---------------------------------------------------------
#
# The Betti numbers of the toric quasifold of a simple polytope are its h-vector
# (Battaglia-Prato 2001), which the scan's output gives twice: from the active facet
# sets alone, and from coordinates and adjacency as Morse counts (Ziegler, Lectures
# on Polytopes, ch. 8).  The two agree, are palindromic (Dehn-Sommerville) and sum
# to the vertex count only if the vertex set is right.


def h_from_faces(verts, n):
    """Every k-subset of a vertex's active facets is a face of codimension k, which
    gives the f-vector; then sum_i h_i t^i = sum_i f_i (t - 1)^i."""
    f = [len({s for v in verts for s in itertools.combinations(v.active_facets, n - i)})
         for i in range(n + 1)]   # f[i]: the faces of dimension i
    return [sum(f[i] * math.comb(i, j) * (-1) ** (i - j) for i in range(j, n + 1))
            for j in range(n + 1)]


def h_from_morse(verts, n, rng, d):
    """h_k = the vertices with exactly k neighbours of lower <xi, x>, for a direction xi
    drawn from `rng` with no tie between neighbours (a tie draws a new xi); vertices are
    neighbours when they share n - 1 active facets."""
    near = [[w for w in verts if len(set(v.active_facets) & set(w.active_facets)) == n - 1]
            for v in verts]
    for _ in range(100):
        xi = KVector([fe(rng.randint(-9, 9), rng.randint(-9, 9) if d else 0, d)
                      for _ in range(n)], d=d)
        value = {v: xi.dot(v.point) for v in verts}
        if any(value[v] == value[w] for v, ws in zip(verts, near) for w in ws):
            continue
        lower = [sum(value[w] < value[v] for w in ws) for v, ws in zip(verts, near)]
        return [lower.count(k) for k in range(max(lower) + 1)]
    raise AssertionError("no direction without a tie between neighbours in 100 draws")


def assert_h_vector(p, rng):
    """The h-vector of simple `p` two ways, along three directions; returns it."""
    verts, n = p.vertices(), p.dim
    h = h_from_faces(verts, n)
    assert h == h[::-1] and sum(h) == len(verts), h
    for _ in range(3):
        assert h_from_morse(verts, n, rng, p.field_d) == h
    return tuple(h)


def test_h_vector_two_ways_on_examples_halves_and_random_polyhedra():
    rng = random.Random("h-vector")
    h = {name: assert_h_vector(get_example(name).polytope, rng) for name in SIMPLE_EXAMPLES}
    assert h["dodecahedron"] == (1, 9, 9, 1)
    assert h["cube"] == h["prolate_rhombohedron"] == h["oblate_rhombohedron"] == (1, 3, 3, 1)
    assert h["kite"] == h["thick_rhombus"] == h["thin_rhombus"] == (1, 2, 1)
    assert h["tetrahedron"] == (1, 1, 1, 1)
    halves = [half for name in ("cube", "dodecahedron", "kite", "tetrahedron", "quasisphere")
              for half in seeded_halves(get_example(name), random.Random(f"h:{name}"), 1)]
    for half in halves:
        assert half.polytope.validate().simple
        assert_h_vector(half.polytope, rng)
    simple = 0
    for d in (0, 2, 3, 5):
        shapes = random.Random(f"polyhedra:{d}")   # the polyhedra of the test above
        for _ in range(40):
            p = random_polyhedron(shapes, d, shapes.choice((2, 3)))
            report = p.validate()
            if report.bounded and report.full_dim and report.simple:
                assert_h_vector(p, rng)
                simple += 1
    assert simple
