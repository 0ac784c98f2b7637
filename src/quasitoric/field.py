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

    def lift(self, value: _RatLike | "FieldElem") -> "FieldElem":
        """Coerce an int/Fraction (or compatible element) into this field."""
        o = self._coerce(value)
        if o is None:
            raise TypeError(f"cannot lift {value!r} into Q(sqrt({self._d}))")
        return o

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

    def conjugate(self) -> "FieldElem":
        return _make(self._p, -self._q, self._r, self._d)

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
    a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = Fraction(0)
    if m.group("d") is not None:
        dd = int(m.group("d"))
        if dd != d:
            raise FieldMixError(f"element in Q(sqrt({dd})) used in field D={d}")
        b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
        if m.group("sign") == "-":
            b = -b
        if m.group("a") and m.group("sign") is None:
            raise ValueError(f"cannot parse field element {text!r}")
    return FieldElem(a, b, d)


# ---------------------------------------------------------------------------
# Dense vectors and matrices over the field
# ---------------------------------------------------------------------------


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

    Solving and rank use fraction-free-enough Gauss-Jordan elimination with
    exact division; the reduced echelon form (leftmost pivots, pivots = 1) is
    the canonical form used throughout the package.
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
    def from_vectors(cls, vecs: Sequence[KVector], ncols: Optional[int] = None,
                     d: Optional[int] = None) -> "KMatrix":
        if vecs:
            return cls([v.entries for v in vecs])
        return cls([], ncols=ncols, d=d)

    @classmethod
    def from_columns(cls, cols: Sequence[KVector]) -> "KMatrix":
        n = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(n)])

    @classmethod
    def identity(cls, n: int, d: int = 0) -> "KMatrix":
        one, zero = FieldElem(1, 0, d), FieldElem(0, 0, d)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def row(self, i: int) -> KVector:
        return KVector(self.rows[i], self.d)

    def transpose(self) -> "KMatrix":
        return KMatrix([[self.rows[i][j] for i in range(self.nrows)]
                        for j in range(self.ncols)], ncols=self.nrows, d=self.d)

    def matvec(self, v: KVector) -> KVector:
        return KVector([self.row(i).dot(v) for i in range(self.nrows)],
                       self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KMatrix):
            return NotImplemented
        return (self.d == other.d and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.d, self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join("(" + ", ".join(str(x) for x in r) + ")" for r in self.rows)
        return f"KMatrix[{self.nrows}x{self.ncols}; d={self.d}]({body})"

    # -- elimination ----------------------------------------------------------

    def _rref(self) -> tuple[list[list[FieldElem]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices)."""
        m = [list(r) for r in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
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
            r += 1
            if r == len(m):
                break
        return m, pivots

    def rref(self) -> "KMatrix":
        m, pivots = self._rref()
        return KMatrix(m[: len(pivots)], ncols=self.ncols, d=self.d)

    def rank(self) -> int:
        return len(self._rref()[1])

    def kernel_basis(self) -> list[KVector]:
        """Canonical basis of the right kernel, in reduced echelon form."""
        return self._kernel(*self._rref())

    def _kernel(self, m: list[list[FieldElem]], pivots: list[int]) -> list[KVector]:
        """Canonical kernel basis read off an rref of this matrix, or of this
        matrix augmented on the right with a column holding no pivot."""
        free = [c for c in range(self.ncols) if c not in pivots]
        if not free:
            return []
        zero, one = _make(0, 0, 1, self.d), _make(1, 0, 1, self.d)
        raw = []
        for f in free:
            v = [zero] * self.ncols
            v[f] = one
            for i, p in enumerate(pivots):
                v[p] = -m[i][f]
            raw.append(v)
        canon = KMatrix(raw, ncols=self.ncols, d=self.d).rref()
        return [canon.row(i) for i in range(canon.nrows)]

    def solve(self, b: KVector) -> Optional[tuple[KVector, list[KVector]]]:
        """Solve A x = b; returns (particular solution, kernel basis) or None.

        The kernel basis is in canonical reduced echelon form, so re-solving
        with it reproduces the same rows.  One elimination of [A | b] yields
        both the solution and the kernel.
        """
        if len(b) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        aug = KMatrix([list(r) + [b[i]] for i, r in enumerate(self.rows)],
                      ncols=self.ncols + 1, d=self.d)
        m, pivots = aug._rref()
        if self.ncols in pivots:
            return None
        x = [_make(0, 0, 1, self.d)] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = m[i][self.ncols]
        return KVector(x, self.d), self._kernel(m, pivots)

    def inverse(self) -> "KMatrix":
        """A^-1 of a square matrix, from one elimination of [A | I].

        Raises ZeroDivisionError when A is singular.
        """
        n = self.nrows
        if self.ncols != n:
            raise ValueError("inverse of a non-square matrix")
        eye = KMatrix.identity(n, self.d).rows
        aug = KMatrix([r + e for r, e in zip(self.rows, eye)], ncols=2 * n, d=self.d)
        m, pivots = aug._rref()
        if pivots != list(range(n)):
            raise ZeroDivisionError("inverse of a singular matrix")
        return KMatrix([r[n:] for r in m], ncols=n, d=self.d)

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)
