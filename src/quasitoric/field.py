"""Exact arithmetic in a real quadratic field and dense linear algebra over it.

Every geometric coordinate in this package is a :class:`FieldElem`, the real
number (p + q*sqrt(D)) / r stored as the integers (p, q, r, D) in canonical
form: r > 0 and gcd(p, q, r) = 1, so equal numbers have equal fields.  D is a
square-free non-negative integer fixed per computation; D = 0 encodes plain Q
(with q forced to zero), so rational inputs run through the same code path as
irrational ones.  Mixing elements of different fields is a hard error.

Signs, comparisons and floors are decided by integer arithmetic only.  No
floating point enters any predicate.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union

_RatLike = Union[int, Fraction]


class FieldMixError(ValueError):
    """Raised when two elements of different quadratic fields are combined."""


@lru_cache(maxsize=64)   # FieldElem() re-checks D on every public construction
def _check_context(d: int) -> int:
    if d < 0:
        raise ValueError(f"negative field discriminant {d}")
    if d == 1:
        raise ValueError("D = 1 is not a valid field context (sqrt(1) is rational)")
    if any(d % (k * k) == 0 for k in range(2, isqrt(d) + 1)):
        raise ValueError(f"D = {d} is not square-free")
    return d


_new = object.__new__


def _make(p: int, q: int, r: int, d: int) -> "FieldElem":
    """(p + q*sqrt(d)) / r in canonical form; d is not re-validated."""
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    x = _new(FieldElem)
    x._p, x._q, x._r, x._d = p, q, r, d
    return x


def _sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d)."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: |p| vs |q|*sqrt(d); equality impossible for square-free d >= 2
    return 1 if (p * p > q * q * d) == (p > 0) else -1


class FieldElem:
    """An element (p + q*sqrt(D)) / r of Q(sqrt(D)), in canonical integer form."""

    __slots__ = ("_p", "_q", "_r", "_d")

    def __init__(self, a: _RatLike, b: _RatLike = 0, d: int = 0) -> None:
        _check_context(d)
        a = Fraction(a)
        b = Fraction(b)
        if d == 0 and b != 0:
            raise ValueError("nonzero sqrt part with D = 0")
        r = lcm(a.denominator, b.denominator)   # gcd(p, q, r) = 1 over the lcm
        self._p, self._q = a.numerator * (r // a.denominator), b.numerator * (r // b.denominator)
        self._r, self._d = r, d

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._r)

    @property
    def d(self) -> int:
        return self._d

    # -- construction helpers -------------------------------------------------

    def zero(self) -> "FieldElem":
        return _make(0, 0, 1, self._d)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(D), via integer comparison only."""
        return _sign(self._p, self._q, self._d)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other: object) -> Optional["FieldElem"]:
        if isinstance(other, FieldElem):
            if other._d != self._d:
                raise FieldMixError(f"mixing fields D={self._d} and D={other._d}")
            return other
        if isinstance(other, (int, Fraction)):
            return _make(other.numerator, 0, other.denominator, self._d)
        return None

    def __add__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r, s = self._r, o._r
        if r == s:
            return _make(self._p + o._p, self._q + o._q, r, self._d)
        return _make(self._p * s + o._p * r, self._q * s + o._q * r, r * s, self._d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r, s = self._r, o._r
        if r == s:
            return _make(self._p - o._p, self._q - o._q, r, self._d)
        return _make(self._p * s - o._p * r, self._q * s - o._q * r, r * s, self._d)

    def __rsub__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "FieldElem":
        return _make(-self._p, -self._q, self._r, self._d)

    def __mul__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, s, t = self._p, self._q, o._p, o._q
        return _make(p * s + q * t * self._d, p * t + q * s, self._r * o._r, self._d)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        p, q, r = self._p, self._q, self._r
        if p == 0 and q == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return _make(r * p, -r * q, p * p - q * q * self._d, self._d)

    def __truediv__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElem):
            return (self._p == other._p and self._q == other._q
                    and self._r == other._r and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (self._q == 0 and self._p == other.numerator
                    and self._r == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if self._q == 0:
            return hash(self._p) if self._r == 1 else hash(Fraction(self._p, self._r))
        return hash((self._p, self._q, self._r, self._d))

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other: object) -> bool:
        return not self.__le__(other)

    def __ge__(self, other: object) -> bool:
        return not self.__lt__(other)

    # -- integer parts ----------------------------------------------------------

    def floor(self) -> int:
        """Exact floor, via isqrt; no floating point."""
        p, q, r, d = self._p, self._q, self._r, self._d
        if q == 0:
            return p // r
        # q*sqrt(D) is irrational, so its floor is s or -s-1 with s = isqrt(q*q*D);
        # and floor(y / r) = floor(y) // r for any real y and integer r > 0
        s = isqrt(q * q * d)
        return (p + s if q > 0 else p - s - 1) // r

    def mod1(self) -> "FieldElem":
        """Canonical representative in [0, 1) of this element mod Z."""
        return self - self.floor()

    def __float__(self) -> float:
        # boundary conversions only (SVG output, informal ratio checks)
        return self._p / self._r + self._q / self._r * self._d ** 0.5

    # -- text form --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FieldElem({self.a!r}, {self.b!r}, d={self._d})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        op = "+" if b >= 0 else "-"
        if a == 0:
            return f"{'-' if b < 0 else ''}{abs(b)}sqrt{self._d}"
        return f"{a}{op}{abs(b)}sqrt{self._d}"


def fe(a: _RatLike, b: _RatLike = 0, d: int = 0) -> FieldElem:
    """Shorthand constructor."""
    return FieldElem(a, b, d)


def phi() -> FieldElem:
    """The golden ratio (1 + sqrt(5)) / 2 as an element of Q(sqrt(5))."""
    return FieldElem(Fraction(1, 2), Fraction(1, 2), 5)


_FE_RE = re.compile(
    r"""^\s*
        (?P<a>[+-]?\d+(?:/\d+)?)?
        \s*
        (?:
            (?P<sign>[+-])?\s*
            (?P<b>\d+(?:/\d+)?)?\s*
            (?:√|sqrt)\s*(?P<d>\d+)
        )?
        \s*$""",
    re.VERBOSE,
)


def parse_field_elem(text: str, d: int) -> FieldElem:
    """Parse "p/q" or "p/q+r/s sqrtD" (unicode √D also accepted)."""
    m = _FE_RE.match(text)
    if not m or (m.group("a") is None and m.group("d") is None):
        raise ValueError(f"cannot parse field element {text!r}")
    try:
        a = Fraction(m.group("a") or 0)
        b = Fraction(m.group("b") or 1) if m.group("d") else Fraction(0)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in field element {text!r}") from None
    if m.group("d") is not None:
        dd = int(m.group("d"))
        if dd != d:
            raise FieldMixError(f"element in Q(sqrt({dd})) used in field D={d}")
        if m.group("sign") == "-":
            b = -b
        if m.group("a") and m.group("sign") is None:
            raise ValueError(f"cannot parse field element {text!r}")
    return FieldElem(a, b, d)


# ---------------------------------------------------------------------------
# Dense vectors and matrices over the field
# ---------------------------------------------------------------------------


_Pair = tuple[int, int]   # p + q*sqrt(D) in Z[sqrt D]


def _integer_rows(rows: Iterable[Sequence[FieldElem]]) -> list[list[_Pair]]:
    """Each row over Z[sqrt D], times the positive lcm of its denominators."""
    out = []
    for row in rows:
        m = lcm(*(x._r for x in row))
        out.append([(x._p * (m // x._r), x._q * (m // x._r)) for x in row])
    return out


def _eliminate(rows: list[list[_Pair]], d: int) -> tuple[list[list[_Pair]], list[int], _Pair]:
    """Fraction-free Gauss-Jordan elimination over Z[sqrt d] (Bareiss 1968; Cohen,
    A Course in Computational Algebraic Number Theory, 2.2).

    Returns (rows, pivot columns, delta), delta being the last pivot (1 if none).
    Pivot row i, with pivot column c_i, reads delta*x[c_i] + sum of m[i][f]*x[f]
    over the columns f holding no pivot; its entries at the other pivot columns
    are stale and must not be read.  Each division is exact, as every entry is a
    minor.  Stops once every row has a pivot.
    """
    m, k, n = [list(r) for r in rows], len(rows), len(rows[0]) if rows else 0
    pc, pe, norm, pivots, free = 1, 0, 1, [], []
    for c in range(n):
        r = len(pivots)
        if r == k:
            break
        pr = next((i for i in range(r, k) if m[i][c] != (0, 0)), None)
        if pr is None:
            free.append(c)
            continue
        m[r], m[pr] = m[pr], m[r]
        row, (a, b) = m[r], m[r][c]
        cols = free + list(range(c + 1, n))
        for mi in m:
            if mi is row:
                continue
            e, f = mi[c]
            for j in cols:
                (x, y), (s, t) = mi[j], row[j]
                x, y = a * x - e * s + d * (b * y - f * t), a * y + b * x - e * t - f * s
                # over the previous pivot pc + pe*sqrt d: times its conjugate, over its norm
                (x, rx), (y, ry) = divmod(x * pc - y * pe * d, norm), divmod(y * pc - x * pe, norm)
                if rx or ry:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                mi[j] = x, y
        pc, pe, norm = a, b, a * a - b * b * d
        pivots.append(c)
    return m, pivots, (pc, pe)


def _over(num: _Pair, den: _Pair, d: int) -> FieldElem:
    """(x + y*sqrt d) / (c + e*sqrt d) for pairs num = (x, y), den = (c, e) != 0:
    times the conjugate of den, over its norm."""
    (x, y), (c, e) = num, den
    return _make(x * c - y * e * d, y * c - x * e, c * c - e * e * d, d)


def _kernel_and_solutions(rows: Iterable[Sequence[FieldElem]], ncols: int, d: int,
                          ) -> tuple[list[KVector], list[KVector]]:
    """The right kernel of A, and a solution of A x = b for each column b of B, off
    one `_eliminate` of [A | B], A being the first `ncols` columns of `rows`.

    A's columns are read right to left, so its pivots are A's basis taken greedily
    from the right and the free columns are the complement, a basis of the dual
    matroid (Oxley, Matroid Theory, ch. 2).  Free column f gives the kernel row 1
    at f and -m[i][f]/delta at pivot c_i (m's columns in the reversed order),
    nonzero only at pivots right of f: these rows are already the reduced echelon
    basis.  Each solution is supported on the pivots, so it is zero at every pivot
    of the kernel.  ValueError when a column of B lies outside A's column span.
    """
    m, pivots, delta = _eliminate([r[:ncols][::-1] + r[ncols:] for r in _integer_rows(rows)], d)
    if pivots and pivots[-1] >= ncols:
        raise ValueError("a column of B lies outside the column span of A")
    at = {ncols - 1 - p: i for i, p in enumerate(pivots)}   # basis column -> its pivot row
    zero, one, minus = _make(0, 0, 1, d), _make(1, 0, 1, d), (-delta[0], -delta[1])

    def vector(c: int, den: _Pair, f: int = -1) -> KVector:   # m[i][c] / den at the basis
        return KVector([one if j == f else _over(m[at[j]][c], den, d) if j in at else zero
                        for j in range(ncols)], d)

    kernel = [vector(ncols - 1 - f, minus, f) for f in range(ncols) if f not in at]
    return kernel, [vector(c, delta) for c in range(ncols, len(m[0]) if m else 0)]


class KVector:
    """Immutable dense vector with entries in one quadratic field."""

    __slots__ = ("entries", "d")

    def __init__(self, entries: Iterable[FieldElem], d: Optional[int] = None) -> None:
        items = tuple(entries)
        if not items and d is None:
            raise ValueError("empty vector needs an explicit field context")
        dd = items[0].d if d is None else d
        if any(x._d != dd for x in items):
            raise FieldMixError("vector entries from different fields")
        self.entries = items
        self.d = dd

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> FieldElem:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KVector):
            return NotImplemented
        return self.d == other.d and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.d, self.entries))

    def __add__(self, other: "KVector") -> "KVector":
        return KVector([x + y for x, y in zip(self.entries, other.entries, strict=True)], self.d)

    def __sub__(self, other: "KVector") -> "KVector":
        return KVector([x - y for x, y in zip(self.entries, other.entries, strict=True)], self.d)

    def __neg__(self) -> "KVector":
        return KVector([-x for x in self.entries], self.d)

    def scale(self, c: FieldElem | _RatLike) -> "KVector":
        return KVector([x * c for x in self.entries], self.d)

    def dot(self, other: "KVector") -> FieldElem:
        if len(self) != len(other):
            raise ValueError("dimension mismatch in dot product")
        return sum((x * y for x, y in zip(self.entries, other.entries)), _make(0, 0, 1, self.d))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def __repr__(self) -> str:
        return "KVector(" + ", ".join(str(x) for x in self.entries) + f"; d={self.d})"


class KMatrix:
    """Immutable dense matrix over one quadratic field.

    Rank, echelon form and solving each read one fraction-free elimination of
    the rows over Z[sqrt D] (`_eliminate`), and the kernel reads one through
    `_kernel_and_solutions`; the reduced echelon form (leftmost pivots, pivots
    = 1) is the canonical form used throughout the package.  The package itself
    does not use this class: presentations, vertex points and chart coordinates
    call those routines themselves and convert the pairs they read with `_over`.
    """

    __slots__ = ("rows", "nrows", "ncols", "d")

    def __init__(self, rows: Iterable[Iterable[FieldElem]], ncols: Optional[int] = None,
                 d: Optional[int] = None) -> None:
        rr = tuple(tuple(r) for r in rows)
        if rr:
            nc = len(rr[0])
            dd = rr[0][0].d if (nc and d is None) else d
        else:
            nc, dd = ncols, d
        if nc is None or dd is None:
            raise ValueError("empty matrix needs explicit ncols and field context")
        for r in rr:
            if len(r) != nc:
                raise ValueError("ragged matrix rows")
            if any(x._d != dd for x in r):
                raise FieldMixError("matrix entries from different fields")
        self.rows = rr
        self.nrows = len(rr)
        self.ncols = nc
        self.d = dd

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_vectors(cls, vecs: Sequence[KVector]) -> "KMatrix":
        return cls([v.entries for v in vecs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KMatrix):
            return NotImplemented
        return (self.d == other.d and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self) -> str:
        body = "; ".join("(" + ", ".join(str(x) for x in r) + ")" for r in self.rows)
        return f"KMatrix[{self.nrows}x{self.ncols}; d={self.d}]({body})"

    # -- elimination ----------------------------------------------------------

    def rref(self) -> "KMatrix":
        d = self.d
        m, pivots, delta = _eliminate(_integer_rows(self.rows), d)
        zero, one, stale = _make(0, 0, 1, d), _make(1, 0, 1, d), set(pivots)
        return KMatrix([[one if j == p else zero if j in stale else _over(x, delta, d)
                         for j, x in enumerate(m[i])] for i, p in enumerate(pivots)],
                       ncols=self.ncols, d=d)

    def rank(self) -> int:
        return len(_eliminate(_integer_rows(self.rows), self.d)[1])

    def kernel_basis(self) -> list[KVector]:
        """Canonical basis of the right kernel, in reduced echelon form."""
        return _kernel_and_solutions(self.rows, self.ncols, self.d)[0]

    def solve(self, b: KVector) -> Optional[tuple[KVector, list[KVector]]]:
        """Solve A x = b; returns (particular solution, kernel basis) or None.

        The particular solution, read off one elimination of [A | b], is zero
        at the columns left free when pivots are taken from the left; the
        kernel basis is `kernel_basis()`, in canonical reduced echelon form.
        """
        if len(b) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        if b.d != self.d:
            raise FieldMixError("matrix entries from different fields")
        d, nc = self.d, self.ncols
        m, pivots, delta = _eliminate(_integer_rows(r + (x,) for r, x in zip(self.rows, b)), d)
        if nc in pivots:
            return None
        x = [_make(0, 0, 1, d)] * nc
        for i, p in enumerate(pivots):
            x[p] = _over(m[i][nc], delta, d)
        return KVector(x, d), self.kernel_basis()
