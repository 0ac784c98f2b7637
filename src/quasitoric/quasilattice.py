"""Quasilattices: Z-spans of finitely many field vectors that span R^n.

Membership, the relation lattice and quotient groups are decided exactly by
splitting field-linear systems into their rational and sqrt(D) components,
clearing denominators, and handing the resulting integer systems to the
normal-form machinery in :mod:`quasitoric.intlattice`.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .field import KMatrix, KVector
from .intlattice import (AbelianGroupInvariants, IntMatrix, IntVector,
                         int_solve, integer_kernel, snf)


@dataclass(frozen=True)
class Quasilattice:
    """The Z-span of `generators` inside R^dim."""

    dim: int
    generators: tuple[KVector, ...]

    def __post_init__(self) -> None:
        if len(self.generators) < self.dim:
            raise ValueError("need at least dim generators")
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError("generator dimension mismatch")
        if KMatrix.from_vectors(list(self.generators)).rank() != self.dim:
            raise ValueError("generators do not span R^dim")

    @property
    def m(self) -> int:
        return len(self.generators)

    @property
    def field_d(self) -> int:
        return self.generators[0].d


def split_target(x: KVector, vectors: Sequence[KVector], dim: int,
                 ) -> tuple[IntMatrix, IntVector]:
    """Integer system (mat, rhs) whose integer solutions c are exactly those
    of sum_i c_i vectors[i] == x.

    Row block 1 holds the rational parts of each coordinate, block 2 the
    sqrt(D) parts (all zero when D = 0); each row and its target share one
    scale, the lcm of the parts' reduced denominators, so integer solutions are
    preserved exactly.  The parts are read as integers off each (p + q*sqrt D) / r.
    """
    mat: IntMatrix = []
    rhs: IntVector = []
    for part in ("_p", "_q"):
        for i in range(dim):
            row = [(getattr(e, part), e._r) for e in (*(v[i] for v in vectors), x[i])]
            den = lcm(*(r // gcd(a, r) for a, r in row))   # a / r has denominator r / gcd
            *coeffs, t = (a * den // r for a, r in row)
            mat.append(coeffs)
            rhs.append(t)
    return mat, rhs


def member(q: Quasilattice, x: KVector) -> Optional[IntVector]:
    """Integer coefficients writing x in the generators, or None.

    The certificate re-substitutes exactly: sum_i c_i g_i == x.
    """
    if len(x) != q.dim:
        raise ValueError("vector dimension mismatch")
    mat, rhs = split_target(x, q.generators, q.dim)
    return int_solve(mat, rhs, ncols=q.m)


def certify(q: Quasilattice, x: KVector) -> IntVector:
    cert = member(q, x)
    if cert is None:
        raise ValueError(f"vector {x!r} is not a quasilattice member")
    return cert


def combination(q: Quasilattice, coefficients: Sequence[int]) -> KVector:
    """The quasilattice element sum_i coefficients[i] * generator[i]."""
    acc = KVector([q.generators[0][0].zero()] * q.dim, d=q.field_d)
    for c, g in zip(coefficients, q.generators, strict=True):
        if c:
            acc = acc + g.scale(c)
    return acc


def relation_lattice(q: Quasilattice) -> tuple[tuple[int, ...], ...]:
    """Canonical basis (HNF rows) of {a in Z^m : sum a_i g_i = 0}.

    Being the integer kernel of an integer matrix, the lattice is saturated.
    It is computed once per quasilattice and kept on it, so the rows are tuples.
    """
    rows = q.__dict__.get("_relations")
    if rows is None:
        zero = KVector([q.generators[0][0].zero()] * q.dim, d=q.field_d)
        mat, _ = split_target(zero, q.generators, q.dim)
        rows = tuple(map(tuple, integer_kernel(mat, q.m)))
        object.__setattr__(q, "_relations", rows)   # a cache, not a field
    return rows


def z_rank(q: Quasilattice) -> int:
    return q.m - len(relation_lattice(q))


def is_discrete(q: Quasilattice) -> bool:
    """True when the quasilattice is an honest lattice (Z-rank equals dim)."""
    return z_rank(q) == q.dim


def quotient_by(q: Quasilattice, certificates: Sequence[Sequence[int]],
                ) -> AbelianGroupInvariants:
    """Invariants of the group Q / Z-span{certified vectors}.

    Each certificate is an integer coefficient vector over the generators of
    Q; the quotient is computed as Z^m / (relations + certificate rows).
    """
    rows = [list(r) for r in relation_lattice(q)] + [list(c) for c in certificates]
    for r in rows:
        if len(r) != q.m:
            raise ValueError("certificate length does not match generator count")
    if not rows:
        return AbelianGroupInvariants(q.m, ())
    factors = snf(rows, ncols=q.m).invariant_factors()
    torsion = tuple(f for f in factors if f >= 2)
    return AbelianGroupInvariants(q.m - len(factors), torsion)
