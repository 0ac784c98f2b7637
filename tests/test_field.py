import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

import fieldmatrix
from quasitoric import field
from quasitoric.field import (FieldElem, FieldMixError, KMatrix, KVector, fe,
                              parse_field_elem, phi)


def rand_fe(rng, d):
    a = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    b = Fraction(rng.randint(-60, 60), rng.randint(1, 12)) if d else 0
    return FieldElem(a, b, d)


def sign_oracle(x):
    # interval evaluation of a + b*sqrt(D) with 10^-30 wide rational bounds
    if x.b == 0:
        return (x.a > 0) - (x.a < 0)
    scale = 10 ** 30
    lo = Fraction(isqrt(x.d * scale * scale), scale)
    hi = lo + Fraction(1, scale)
    lower = x.a + (x.b * lo if x.b > 0 else x.b * hi)
    upper = x.a + (x.b * hi if x.b > 0 else x.b * lo)
    assert lower <= upper
    if lower > 0:
        return 1
    if upper < 0:
        return -1
    return 0


def test_golden_ratio_identities():
    p = phi()
    assert p * p == p + 1
    assert (p - 1) * p == fe(1, 0, 5)
    assert p.inverse() == p - 1
    assert fe(1, 0, 5) + fe(0, 0, 5) == fe(1, 0, 5)


def test_sign_examples():
    assert fe(0, 0, 5).sign() == 0
    assert (phi() - 1).sign() == 1
    assert fe(3, -1, 5).sign() == 1      # 9 > 5
    assert fe(2, -1, 5).sign() == -1     # 4 < 5
    assert fe(-3, 1, 5).sign() == -1


def test_sign_against_interval_oracle():
    rng = random.Random(7)
    for _ in range(1000):
        x = rand_fe(rng, 5)
        assert x.sign() == sign_oracle(x), x


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(1000):
        x, y, z = (rand_fe(rng, 5) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == fe(1, 0, 5)


def test_rational_field_context():
    rng = random.Random(13)
    for _ in range(200):
        x, y = rand_fe(rng, 0), rand_fe(rng, 0)
        assert (x * y).b == 0
        assert (x + y).a == x.a + y.a


def test_mixing_contexts_is_error():
    with pytest.raises(FieldMixError):
        fe(1, 0, 5) + fe(1, 0, 2)
    with pytest.raises(FieldMixError):
        KVector([fe(1, 0, 5), fe(1, 0, 2)])


def test_context_validation():
    with pytest.raises(ValueError):
        fe(1, 1, 4)     # not square-free
    with pytest.raises(ValueError):
        fe(1, 1, 1)
    with pytest.raises(ValueError):
        fe(1, 1, 0)     # sqrt part with D = 0


def test_division():
    p = phi()
    assert (p * p) / p == p
    with pytest.raises(ZeroDivisionError):
        p / fe(0, 0, 5)


def test_floor_exact():
    p = phi()
    assert p.floor() == 1
    assert (-p).floor() == -2
    assert (p * p * p).floor() == 4          # phi^3 = 2phi+1
    assert fe(Fraction(7, 2)).floor() == 3
    assert fe(Fraction(-7, 2)).floor() == -4
    assert fe(5, 0, 5).floor() == 5
    rng = random.Random(17)
    for _ in range(500):
        x = rand_fe(rng, 5)
        f = x.floor()
        assert (x - f).sign() >= 0
        assert (x - (f + 1)).sign() < 0
        r = x.mod1()
        assert r.sign() >= 0 and (r - 1).sign() < 0


def test_ordering():
    p = phi()
    assert fe(1, 0, 5) < p < fe(2, 0, 5)
    assert sorted([p, fe(0, 0, 5), -p]) == [-p, fe(0, 0, 5), p]


def test_parse_grammar():
    p = phi()
    assert parse_field_elem("1/2+1/2sqrt5", 5) == p
    assert parse_field_elem("1/2+1/2√5", 5) == p
    assert parse_field_elem("-3", 0) == fe(-3)
    assert parse_field_elem("sqrt5", 5) == fe(0, 1, 5)
    assert parse_field_elem("2-3sqrt5", 5) == fe(2, -3, 5)
    with pytest.raises(ValueError):
        parse_field_elem("1//2", 0)
    with pytest.raises(ValueError):
        parse_field_elem("", 0)
    with pytest.raises(FieldMixError):
        parse_field_elem("1+1sqrt2", 5)


# -- linear algebra -----------------------------------------------------------


def test_solve_quasisphere_direction():
    p = phi()
    a = KMatrix([[p, fe(-1, 0, 5)]])
    part, kernel = a.solve(KVector([fe(0, 0, 5)]))
    assert kernel == [KVector([fe(1, 0, 5), p])]
    assert fieldmatrix.matvec(a, part).is_zero()


def test_solve_identity():
    p = phi()
    i2 = KMatrix([[fe(1, 0, 5), fe(0, 0, 5)], [fe(0, 0, 5), fe(1, 0, 5)]])
    part, kernel = i2.solve(KVector([fe(1, 0, 5), p]))
    assert part == KVector([fe(1, 0, 5), p])
    assert kernel == []


def test_solve_all_ones_row():
    a = KMatrix([[fe(1, 0, 5)] * 5])
    part, kernel = a.solve(KVector([fe(0, 0, 5)]))
    assert len(kernel) == 4
    for v in kernel:
        assert fieldmatrix.matvec(a, v).is_zero()


def test_solve_inconsistent():
    a = KMatrix([[fe(1), fe(1)], [fe(1), fe(1)]])
    assert a.solve(KVector([fe(0), fe(1)])) is None


def test_rank_examples():
    p = phi()
    zero = KMatrix([[fe(0, 0, 5)] * 3] * 2)
    assert zero.rank() == 0
    one = fe(1, 0, 5)
    z = fe(0, 0, 5)
    rows = [[p, one, p, z], [z, p, one, p]]
    assert KMatrix(rows).rank() == 2
    stacked = rows + [[fe(-1, 0, 5), one, z, p], [p, z, one, fe(-1, 0, 5)]]
    assert KMatrix(stacked).rank() == 2
    assert KMatrix(zip(*rows)).rank() == 2


def test_solve_resubstitution_random():
    rng = random.Random(23)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = KMatrix([[rand_fe(rng, 5) for _ in range(n)] for _ in range(m)])
        b = KVector([rand_fe(rng, 5) for _ in range(m)])
        res = a.solve(b)
        if res is None:
            continue
        part, kernel = res
        assert fieldmatrix.matvec(a, part) == b
        for v in kernel:
            assert fieldmatrix.matvec(a, v).is_zero()
        assert len(kernel) == n - a.rank()
        assert kernel == a.kernel_basis()
    # rank-deficient square inputs: the last row combines the others and the
    # right-hand side is consistent, so solve returns a non-empty kernel
    for _ in range(60):
        n = rng.randint(2, 4)
        rows = [[rand_fe(rng, 5) for _ in range(n)] for _ in range(n - 1)]
        c = [rand_fe(rng, 5) for _ in range(n - 1)]
        rows.append([sum((ci * r[j] for ci, r in zip(c, rows)), fe(0, 0, 5))
                     for j in range(n)])
        a = KMatrix(rows)
        x = KVector([rand_fe(rng, 5) for _ in range(n)])
        b = fieldmatrix.matvec(a, x)
        part, kernel = a.solve(b)
        assert fieldmatrix.matvec(a, part) == b
        assert kernel and kernel == a.kernel_basis()
        assert len(kernel) == n - a.rank()


def test_kernel_echelon_idempotent():
    rng = random.Random(29)
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        a = KMatrix([[rand_fe(rng, 5) for _ in range(n)] for _ in range(m)])
        kernel = a.kernel_basis()
        if not kernel:
            continue
        km = KMatrix.from_vectors(kernel)
        assert km.rref() == km
        assert km.kernel_basis() == KMatrix.from_vectors(kernel).kernel_basis()


def test_kernel_basis_eliminates_once(monkeypatch):
    # the kernel's reduced echelon rows are read off one elimination, not reduced by a second
    rng, calls = random.Random(31), []
    eliminate = field._eliminate
    monkeypatch.setattr(field, "_eliminate", lambda rows, d: calls.append(d) or eliminate(rows, d))
    for d in (0, 2, 5):
        for _ in range(20):
            a = KMatrix(_degenerate_matrix(rng, d))
            calls.clear()
            a.kernel_basis()
            assert calls == [d]


def test_kernel_and_solutions_refuses_a_column_outside_the_span():
    one, zero = fe(1, 0, 5), fe(0, 0, 5)
    kernel, (x,) = field._kernel_and_solutions([(one, phi(), phi()), (zero, zero, zero)], 2, 5)
    assert kernel == [KVector([one, -phi().inverse()])] and list(x) == [zero, one]
    with pytest.raises(ValueError, match="outside the column span"):
        field._kernel_and_solutions([(one, phi(), phi()), (zero, zero, one)], 2, 5)


def _product(a, b, d):
    return [[sum((x * y for x, y in zip(r, c)), FieldElem(0, 0, d)) for c in zip(*b)]
            for r in a]


def _identity(n, d):
    return [[FieldElem(int(i == j), 0, d) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("d", [0, 2, 5])
def test_inverse_random(d):
    # the reference inverse that the chart tests compare against is a two-sided
    # inverse, and its column j is KMatrix.solve's unique solution of A x = e_j
    rng = random.Random(2000 + d)
    checked = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        rows = [[rand_fe(rng, d) for _ in range(n)] for _ in range(n)]
        a = KMatrix(rows)
        if a.rank() < n:
            with pytest.raises(ZeroDivisionError):
                fieldmatrix.inverse(rows, d)
            continue
        inv = fieldmatrix.inverse(rows, d)
        eye = _identity(n, d)
        assert _product(rows, inv, d) == eye and _product(inv, rows, d) == eye
        for j in range(n):
            x, kernel = a.solve(KVector(eye[j], d))
            assert not kernel and list(x) == [r[j] for r in inv]
        checked += 1
    assert checked >= 70


@pytest.mark.parametrize("d", [0, 2, 5])
def test_inverse_of_singular_matrix_raises(d):
    rng = random.Random(3000 + d)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[rand_fe(rng, d) for _ in range(n)] for _ in range(n - 1)]
        c = [rand_fe(rng, d) for _ in range(n - 1)]
        rows.append([sum((ci * r[j] for ci, r in zip(c, rows)), fe(0, 0, d))
                     for j in range(n)])
        assert KMatrix(rows).rank() < n
        with pytest.raises(ZeroDivisionError):
            fieldmatrix.inverse(rows, d)



def _small_fe(rng, d):
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if d else 0
    return FieldElem(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), b, d)


def _degenerate_matrix(rng, d):
    """Rows with zero columns, zero rows and proportional rows mixed in, shuffled."""
    m = rng.randint(1, 4)
    n = m if rng.random() < 0.4 else rng.randint(1, 5)
    zero = FieldElem(0, 0, d)
    rows = [[_small_fe(rng, d) for _ in range(n)] for _ in range(m)]
    for c in range(n):
        if rng.random() < 0.2:
            for r in rows:
                r[c] = zero
    for i in range(1, m):
        if rng.random() < 0.2:
            rows[i] = [zero] * n
        elif rng.random() < 0.25:
            f = _small_fe(rng, d)
            rows[i] = [f * x for x in rows[rng.randrange(i)]]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("d", [0, 2, 3, 5])
def test_shared_elimination_matches_the_field_reference(d):
    rng = random.Random(f"elimination:{d}")
    seen = {"deficient": 0, "inconsistent": 0, "singular": 0, "inverted": 0}
    for _ in range(300):
        rows = _degenerate_matrix(rng, d)
        m, n = len(rows), len(rows[0])
        a = KMatrix(rows)
        ref_rows, ref_pivots = fieldmatrix.rref(rows, n)
        ref_kernel = [KVector(v, d) for v in fieldmatrix.kernel(ref_rows, ref_pivots, n, d)]
        assert a.rank() == len(ref_pivots)
        assert a.rref() == KMatrix(ref_rows, ncols=n, d=d)
        assert a.kernel_basis() == ref_kernel
        seen["deficient"] += len(ref_pivots) < min(m, n)
        x = [_small_fe(rng, d) for _ in range(n)]
        consistent = list(fieldmatrix.matvec(a, KVector(x, d)))
        for b in ([_small_fe(rng, d) for _ in range(m)], consistent):
            ref = fieldmatrix.solve(rows, b, n, d)
            got = a.solve(KVector(b, d))
            if ref is None:
                assert got is None
                seen["inconsistent"] += 1
            else:
                assert got == (KVector(ref[0], d), [KVector(v, d) for v in ref[1]])
        if m == n:
            try:
                ref_inv = fieldmatrix.inverse(rows, d)
            except ZeroDivisionError:
                assert a.rank() < n
                seen["singular"] += 1
            else:
                # column j of the inverse is the unique solution of A x = e_j
                for j, e_j in enumerate(_identity(n, d)):
                    assert a.solve(KVector(e_j, d)) == (KVector([r[j] for r in ref_inv], d), [])
                seen["inverted"] += 1
    assert all(v >= 20 for v in seen.values()), seen


# -- the canonical integer form against a reference on Fraction pairs ----------


def _ref_sign(a, b, d):
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > b * b * d else sb


def _ref_floor(a, b, d):
    f = int(a + b * Fraction(isqrt(d * 10 ** 40), 10 ** 20)) - 2
    while _ref_sign(a - (f + 1), b, d) >= 0:
        f += 1
    return f


def _rand_pair(rng, d):
    a = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice([1, 2, 4, rng.randint(1, 10 ** 4)]))
    b = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 50)) if d else Fraction(0)
    if rng.random() < 0.1:
        a = Fraction(0)
    return a, b


def _parts(x):
    return (x.a, x.b)


@pytest.mark.parametrize("d", [0, 2, 3, 5])
def test_integer_form_against_fraction_pairs(d):
    rng = random.Random(1000 + d)
    for _ in range(300):
        (a, b), (c, e) = _rand_pair(rng, d), _rand_pair(rng, d)
        x, y = FieldElem(a, b, d), FieldElem(c, e, d)
        assert _parts(x) == (a, b) and _parts(y) == (c, e)
        assert _parts(x + y) == (a + c, b + e)
        assert _parts(x - y) == (a - c, b - e)
        assert _parts(-x) == (-a, -b)
        assert _parts(x * y) == (a * c + b * e * d, a * e + b * c)
        if c or e:
            norm = c * c - e * e * d
            assert _parts(x / y) == ((a * c - b * e * d) / norm, (b * c - a * e) / norm)
        assert x.sign() == _ref_sign(a, b, d)
        assert (x - y).sign() == _ref_sign(a - c, b - e, d)
        assert x.floor() == _ref_floor(a, b, d)
        assert (x == y) == ((a, b) == (c, e))
        assert x == FieldElem(a, b, d) and hash(x) == hash(FieldElem(a, b, d))
        if c or e:
            again = x * y / y        # same value reached through other denominators
            assert again == x and hash(again) == hash(x)
        if b == 0:
            assert x == a and hash(x) == hash(a)
        for z in (x, y, x + y, x * y, x - y):
            assert z._r > 0
            assert gcd(z._p, z._q, z._r) == 1
            assert d or z._q == 0


def test_hash_matches_rationals():
    assert hash(fe(3)) == hash(3)
    assert hash(fe(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(fe(Fraction(-7, 3), 0, 5)) == hash(Fraction(-7, 3))
    assert len({fe(2), 2, Fraction(2), fe(4) / 2}) == 1


def test_floor_near_integers():
    # a - b*sqrt(D) with a^2 - D*b^2 = 1 lies within 1/(2ab) above zero
    for d, a, b in [(2, 99, 70), (2, 577, 408), (3, 97, 56), (5, 161, 72), (5, 2889, 1292)]:
        for sign in (1, -1):
            for r in (1, 2, 3, 7):
                for k in range(-3, 4):
                    x = (FieldElem(a, -b, d) * sign + k) / r
                    f = x.floor()
                    assert f == _ref_floor(x.a, x.b, d)
                    assert (x - f).sign() >= 0 and (x - (f + 1)).sign() < 0
