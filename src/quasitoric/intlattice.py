"""Integer matrix normal forms and integer linear solving.

All matrices are plain lists of lists of Python ints (arbitrary precision).
Hermite and Smith normal forms are computed by elementary row/column
operations with explicit unimodular multiplier tracking; instances here are
tiny, so no modular arithmetic or reduction tricks are used.

Conventions:
  * HNF is row-style: pivots positive, entries below pivots zero, entries
    above each pivot reduced into [0, pivot).
  * SNF diagonal entries are non-negative and form a divisibility chain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

IntMatrix = list[list[int]]
IntVector = list[int]


def _copy(a: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(r) for r in a]


def _eye(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: IntMatrix, v: Sequence[int]) -> IntVector:
    return [sum(r[j] * v[j] for j in range(len(v))) for r in a]


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def hnf(a: IntMatrix, ncols: Optional[int] = None) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.  Returns (H, U) with U unimodular, U*A = H."""
    m = len(a)
    n = len(a[0]) if a else (ncols or 0)
    h = _copy(a)
    u = _eye(m)
    r = 0
    for c in range(n):
        # gcd-reduce column c below row r by repeated division
        while True:
            nz = [i for i in range(r, m) if h[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][c]))
            if piv != r:
                h[r], h[piv] = h[piv], h[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == m:
                break
    return h, u


def hnf_basis(rows: IntMatrix, ncols: int) -> IntMatrix:
    """HNF of the row span with zero rows dropped (canonical lattice basis)."""
    if not rows:
        return []
    h, _ = hnf(rows, ncols)
    return [r for r in h if any(r)]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = S with U, V unimodular and S in Smith normal form."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> IntVector:
        k = min(len(self.s), len(self.s[0]) if self.s else 0)
        return [self.s[i][i] for i in range(k)]

    def invariant_factors(self) -> IntVector:
        return [x for x in self.diagonal if x != 0]


def snf(a: IntMatrix, ncols: Optional[int] = None) -> SmithDecomposition:
    m = len(a)
    n = len(a[0]) if a else (ncols or 0)
    s = _copy(a)
    u = _eye(m)
    v = _eye(n)

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for r in s:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i: int, j: int) -> None:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < m and t < n:
        # locate a minimal nonzero entry in the remaining block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        # clear row and column t; restart if a division leaves a remainder
        dirty = False
        for i in range(t + 1, m):
            if s[i][t] != 0:
                q = s[i][t] // s[t][t]
                row_op(i, t, q)
                if s[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j] != 0:
                q = s[t][j] // s[t][t]
                col_op(j, t, q)
                if s[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by s[t][t]
        fix = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t] != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            row_op(t, fix, -1)  # adds row `fix` into row t, reintroducing entries
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SmithDecomposition(u, s, v)


# ---------------------------------------------------------------------------
# Integer solving and quotient groups
# ---------------------------------------------------------------------------


def int_solve(a: IntMatrix, b: Sequence[int], ncols: Optional[int] = None) -> Optional[IntVector]:
    """Solve A x = b over the integers; None when no integral solution exists."""
    m = len(a)
    n = len(a[0]) if a else (ncols or 0)
    if len(b) != m:
        raise ValueError("right-hand side has wrong length")
    dec = snf(a, ncols=n)
    c = mat_vec(dec.u, list(b))
    y = [0] * n
    for i in range(m):
        si = dec.s[i][i] if i < n else 0
        if si != 0:
            if c[i] % si != 0:
                return None
            y[i] = c[i] // si
        elif c[i] != 0:
            return None
    return mat_vec(dec.v, y)


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Invariant-factor description of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError("torsion entries must be >= 2")
            if i and self.torsion[i] % self.torsion[i - 1] != 0:
                raise ValueError("torsion entries must form a divisibility chain")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> Optional[int]:
        if not self.is_finite():
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " x ".join(parts) if parts else "trivial"


def integer_kernel(a: IntMatrix, ncols: int) -> IntMatrix:
    """Canonical basis (HNF rows) of {x in Z^ncols : A x = 0}.

    The result is automatically saturated: any rational multiple of an
    integer vector killed by A is itself killed by A.
    """
    if not a:
        return _eye(ncols)
    dec = snf(a, ncols=ncols)
    rank = len(dec.invariant_factors())
    cols = [[dec.v[i][j] for i in range(ncols)] for j in range(rank, ncols)]
    return hnf_basis(cols, ncols)
