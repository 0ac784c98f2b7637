"""Reference linear algebra over a quadratic field, used only by the tests.

Textbook Gauss-Jordan elimination on `FieldElem` entries, one inverse per
pivot.  `KMatrix`, `build_charts` and `split_target` read every answer off
fraction-free integer arithmetic over Z[sqrt D]; these functions give the same
answers the slow, obvious way, through `Fraction`.  Matrices are lists of rows;
vectors are lists, except where a function says otherwise.
"""
from math import lcm

from quasitoric.field import FieldElem, KMatrix, KVector
from quasitoric.intlattice import int_solve


def rref(rows, ncols):
    """(pivot rows of the reduced row echelon form, their pivot columns)."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def kernel(m, pivots, ncols, d):
    """Canonical kernel basis read off `rref` output (extra columns ignored)."""
    raw = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [FieldElem(0, 0, d)] * ncols
        v[f] = FieldElem(1, 0, d)
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        raw.append(v)
    return rref(raw, ncols)[0]


def solve(rows, b, ncols, d):
    """(particular solution, kernel basis) of A x = b, or None."""
    m, pivots = rref([list(r) + [x] for r, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [FieldElem(0, 0, d)] * ncols
    for i, p in enumerate(pivots):
        x[p] = m[i][ncols]
    return x, kernel(m, pivots, ncols, d)


def inverse(rows, d):
    """A^-1 of a square matrix; ZeroDivisionError when A is singular."""
    n = len(rows)
    eye = [[FieldElem(int(i == j), 0, d) for j in range(n)] for i in range(n)]
    m, pivots = rref([list(r) + e for r, e in zip(rows, eye)], 2 * n)
    if pivots != list(range(n)):
        raise ZeroDivisionError("inverse of a singular matrix")
    return [r[n:] for r in m]


def matvec(a, v):
    """A v for a KMatrix A and a KVector v, as a KVector."""
    return KVector([sum((x * y for x, y in zip(r, v, strict=True)), FieldElem(0, 0, a.d))
                    for r in a.rows], a.d)


def slack(h, point):
    """<X, point> - lambda for the half-space h = {<mu, X> >= lambda}, as a
    FieldElem dot product at the point: the oracle for the chart bounds."""
    return h.normal.dot(point) - h.level


def split_target(x, vectors, dim):
    """Integer system (mat, rhs) of sum_i c_i vectors[i] == x: per coordinate a
    row of rational parts, then one of sqrt(D) parts, each row times the lcm of
    its entries' denominators."""
    rows = [([v[i].a for v in vectors], x[i].a) for i in range(dim)]
    rows += [([v[i].b for v in vectors], x[i].b) for i in range(dim)]
    mat, rhs = [], []
    for coeffs, t in rows:
        den = lcm(t.denominator, *(f.denominator for f in coeffs))
        mat.append([int(f * den) for f in coeffs])
        rhs.append(int(t * den))
    return mat, rhs


def torus_classes_equal(triple, theta1, theta2):
    """Whether theta1 == theta2 inside R^d / (Z^d + exp-kernel directions):
    pi(theta1 - theta2) lies in the Z-span of the facet normals, pi being the
    n x d matrix with the normals as columns."""
    n, d = triple.polytope.dim, triple.polytope.d
    diff = matvec(KMatrix(zip(*triple.normals)), theta1 - theta2)
    return int_solve(*split_target(diff, triple.normals, n), ncols=d) is not None
