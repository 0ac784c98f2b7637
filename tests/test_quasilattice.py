from fractions import Fraction

import pytest

from quasitoric.field import FieldElem, KVector, fe, phi
from quasitoric.intlattice import snf
from quasitoric.quasilattice import (Quasilattice, combination, is_discrete,
                                     member, quotient_by, relation_lattice,
                                     z_rank)


def kv5(*xs):
    return KVector([x if isinstance(x, FieldElem) else fe(x, 0, 5) for x in xs])


def pentagon_roots():
    p = phi()
    return (kv5(p - 1, -1), kv5(1, 0), kv5(0, 1), kv5(-1, p - 1),
            kv5(1 - p, 1 - p))


def test_pentagon_certificate_over_four_roots():
    v0, v1, v2, v3, v4 = pentagon_roots()
    q4 = Quasilattice(2, (v1, v2, v3, v4))
    assert member(q4, v0) == [-1, -1, -1, -1]


def test_z_plus_phiz_membership():
    p = phi()
    q = Quasilattice(1, (KVector([fe(1, 0, 5)]), KVector([p])))
    assert member(q, KVector([p * p])) == [1, 1]
    assert member(q, KVector([fe(Fraction(1, 2), 0, 5)])) is None
    # brute-force oracle over a bounded integer box
    half = Fraction(1, 2)
    for a in range(-8, 9):
        for b in range(-8, 9):
            val = FieldElem(a, 0, 5) + FieldElem(0, 0, 5).lift(b) * p
            assert val != FieldElem(half, 0, 5)


def test_certificate_resubstitutes():
    q = Quasilattice(2, pentagon_roots())
    for target in pentagon_roots():
        cert = member(q, target)
        assert cert is not None
        assert combination(q, cert) == target


def test_relation_lattice_pentagon():
    q = Quasilattice(2, pentagon_roots())
    rel = relation_lattice(q)
    assert rel == [[1, 1, 1, 1, 1]]
    assert snf(rel).invariant_factors() == [1]     # saturated
    assert z_rank(q) == 4


def test_relation_lattice_integer_lattice():
    q = Quasilattice(2, (kv5(1, 0), kv5(0, 1)))
    assert relation_lattice(q) == []


def test_relation_lattice_z_phi():
    p = phi()
    q = Quasilattice(1, (KVector([fe(1, 0, 5)]), KVector([p])))
    assert relation_lattice(q) == []
    # bounded search confirms no integer relation
    for a in range(-10, 11):
        for b in range(-10, 11):
            if (a, b) != (0, 0):
                assert not (fe(a, 0, 5) + p.lift(b) * p).is_zero()


def test_is_discrete():
    p = phi()
    assert not is_discrete(Quasilattice(1, (KVector([fe(1, 0, 5)]), KVector([p]))))
    assert is_discrete(Quasilattice(2, (kv5(1, 0), kv5(0, 1))))
    assert not is_discrete(Quasilattice(2, pentagon_roots()))


def test_quotient_quasisphere_chart():
    p = phi()
    q = Quasilattice(1, (KVector([fe(1, 0, 5)]), KVector([p])))
    res = quotient_by(q, [[0, 1]])
    assert res.free_rank == 1 and not res.torsion


def test_quotient_orbisphere_chart():
    q = Quasilattice(1, (KVector([fe(1)]),))
    res = quotient_by(q, [[3]])
    assert res.free_rank == 0 and res.torsion == (3,)


def test_quotient_manifold_chart():
    q = Quasilattice(2, (KVector([fe(1), fe(0)]), KVector([fe(0), fe(1)])))
    res = quotient_by(q, [[1, 0], [0, 1]])
    assert res.is_trivial()


def test_quotient_by_all_generators_trivial():
    for gens in (pentagon_roots(), (kv5(1, 0), kv5(0, 1))):
        q = Quasilattice(2, gens)
        eye = [[1 if i == j else 0 for j in range(q.m)] for i in range(q.m)]
        assert quotient_by(q, eye).is_trivial()


def test_kite_chart_group_from_quotient():
    # ambient pentagon relations + two vertex normals of the kite
    q = Quasilattice(2, pentagon_roots())
    res = quotient_by(q, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert res.free_rank == 2 and not res.torsion


def test_generators_must_span():
    with pytest.raises(ValueError):
        Quasilattice(2, (kv5(1, 0), kv5(2, 0)))
