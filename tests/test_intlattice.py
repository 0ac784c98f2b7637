import itertools
import random
from math import lcm

from quasitoric.examples import load_quasilattice
from quasitoric.intlattice import (AbelianGroupInvariants, hnf, hnf_basis,
                                   int_solve, integer_kernel, mat_vec, snf)
from quasitoric.quasilattice import quotient_by, relation_lattice

from intmatrix import det, mat_mul


def is_hnf(h):
    pivots = []
    r = 0
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        j = nz[0]
        assert row[j] > 0
        if pivots:
            assert j > pivots[-1]
        pivots.append(j)
        for i in range(r):
            assert 0 <= h[i][j] < row[j]
        r += 1
    return True


def brute_force_hnf_2x2(a):
    # smallest canonical image over unimodular multipliers with small entries
    best = None
    for entries in itertools.product(range(-3, 4), repeat=4):
        u = [[entries[0], entries[1]], [entries[2], entries[3]]]
        if abs(det(u)) != 1:
            continue
        h = mat_mul(u, a)
        try:
            is_hnf(h)
        except AssertionError:
            continue
        key = [x for row in h for x in row]
        if best is None or key < best[0]:
            best = (key, h)
    return best[1]


def test_hnf_identity():
    h, u = hnf([[1, 0], [0, 1]])
    assert h == [[1, 0], [0, 1]]
    assert u == [[1, 0], [0, 1]]


def test_hnf_example():
    a = [[2, 4], [1, 3]]
    h, u = hnf(a)
    assert mat_mul(u, a) == h
    assert abs(det(u)) == 1
    is_hnf(h)
    assert h == [[1, 1], [0, 2]]
    assert brute_force_hnf_2x2(a) == h
    # same row lattice as the other common convention
    assert hnf_basis([[1, 3], [0, 2]], 2) == [[1, 1], [0, 2]]


def test_hnf_single_row():
    h, u = hnf([[5, 0]])
    assert h == [[5, 0]] and u == [[1]]


def test_snf_examples():
    dec = snf([[2, 0], [0, 3]])
    assert dec.diagonal == [1, 6]
    assert mat_mul(mat_mul(dec.u, [[2, 0], [0, 3]]), dec.v) == dec.s

    dec = snf([[0, 0], [0, 0]])
    assert dec.diagonal == [0, 0]

    dec = snf([[1, 1, 1, 1, 1]])
    assert dec.s[0] == [1, 0, 0, 0, 0]


def test_snf_random_identities():
    rng = random.Random(31)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        dec = snf(a)
        assert mat_mul(mat_mul(dec.u, a), dec.v) == dec.s
        assert abs(det(dec.u)) == 1
        assert abs(det(dec.v)) == 1
        diag = dec.diagonal
        for i, x in enumerate(diag):
            assert x >= 0
            if i and diag[i - 1] != 0:
                assert x % diag[i - 1] == 0 or x == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert dec.s[i][j] == 0


def test_int_solve_examples():
    assert int_solve([[2]], [4]) == [2]
    assert int_solve([[2]], [3]) is None
    # no solution confirmed by exhaustive search over a box
    assert all(2 * x != 3 for x in range(-20, 21))


def test_int_solve_resubstitution_random():
    rng = random.Random(37)
    hits = 0
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = mat_vec(a, x)
        sol = int_solve(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b
        hits += 1
    assert hits == 200


def test_int_solve_absence_confirmed_by_box_search():
    rng = random.Random(41)
    for _ in range(60):
        a = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        b = [rng.randint(-5, 5), rng.randint(-5, 5)]
        sol = int_solve(a, b)
        if sol is not None:
            assert mat_vec(a, sol) == b
            continue
        for x in range(-12, 13):
            for y in range(-12, 13):
                assert mat_vec(a, [x, y]) != b


def test_quotient_invariants_examples():
    # Z^2 / <(3,0),(0,2)> is cyclic of order 6; Z^2 has no relations
    z2 = load_quasilattice("integer_lattice_2")
    assert relation_lattice(z2) == []
    inv = quotient_by(z2, [[3, 0], [0, 2]])
    assert inv == AbelianGroupInvariants(0, (6,))
    # coset enumeration oracle: (1,1) has order 6 = group order
    cosets = {(i % 3, j % 2) for i in range(3) for j in range(2)}
    assert len(cosets) == 6
    assert lcm(3, 2) == 6

    assert quotient_by(z2, [[1, 0], [0, 1]]).is_trivial()
    pentagon = load_quasilattice("pentagon")
    assert relation_lattice(pentagon) == [[1, 1, 1, 1, 1]]
    inv = quotient_by(pentagon, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert inv.free_rank == 2 and inv.torsion == ()


def test_quotient_invariants_unimodular_invariance():
    rng = random.Random(43)
    base = [[2, 4, 0], [0, 6, 3]]
    z3 = load_quasilattice("integer_lattice_3")
    assert relation_lattice(z3) == []
    ref = quotient_by(z3, base)
    for _ in range(50):
        rows = [r[:] for r in base]
        for _ in range(4):
            i, j = rng.sample(range(len(rows)), 2)
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        assert quotient_by(z3, rows) == ref


def test_integer_kernel_saturated():
    m = [[-1, 2, 0, -2, 1], [1, 0, 0, 0, -1], [-2, 0, 2, -1, 1], [0, 0, 0, 1, -1]]
    ker = integer_kernel(m, 5)
    assert ker == [[1, 1, 1, 1, 1]]
    assert snf(ker).invariant_factors() == [1]


def test_invariants_validation():
    try:
        AbelianGroupInvariants(0, (2, 3))
        raise AssertionError("divisibility chain not enforced")
    except ValueError:
        pass
