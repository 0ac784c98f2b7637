"""Level-set presentations and vertex charts for polytope/quasilattice triples.

Given a validated triple (simple polytope, quasilattice Q, facet normals
certified in Q), this module computes:

  * the level-set equations sum_j beta_j |z_j|^2 = c, where the beta rows form
    the canonical kernel basis of the map e_j -> X_j;
  * the cutting group data: continuous generators (the kernel rows again, read
    as exponent directions on the d-torus), discrete generators representing
    the component group, and the component group's invariant factors.  Both
    read one fraction-free elimination over Z[sqrt D] of [pi | the generators],
    pi having the normals as columns, and one Smith form of the relations and
    certificates, which says which generators lie in the Z-span of the normals;
  * one chart per vertex, with exact domain inequalities and the countable
    chart group acting by angles mod Z^n.  At a simple vertex the n active
    normals form a basis, so both are coordinates in that basis: of the other
    facet normals (negated) and of the generators (mod 1), read off one
    fraction-free elimination over Z[sqrt D] per vertex.  (The chart map's
    filled-slot records are a JSON-only view of the domain rows, written by
    :func:`quasitoric.jsonio.encode_charts`.)
  * a classification (manifold / orbifold / quasifold, or a structured refusal
    for nonsimple input).

Sign conventions: normals are inward, half-spaces read <mu, X_j> >= lambda_j,
and level constants are c_k = -sum_j (beta_k)_j lambda_j.  Scaling every
lambda_j by a positive field scalar rescales constants and chart bounds by
the same factor and leaves all group data unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .field import FieldElem, KVector, _canonical_kernel, _eliminate, _integer_rows, _over
from .intlattice import AbelianGroupInvariants, int_solve  # int_solve: a perfbench trace site
from .polytope import PolytopeH, VertexData, cut_with_maps
from .quasilattice import (Quasilattice, certify, combination, is_discrete,
                           quotient_and_spanned, quotient_by)


class DegenerateTripleError(ValueError):
    """Normals do not span, or the polytope data is otherwise unusable."""


class NonsimpleTripleError(ValueError):
    """Construction refused: the polytope is not simple."""

    def __init__(self, classification: "Classification") -> None:
        super().__init__(f"construction refused: {classification.kind}")
        self.classification = classification


@dataclass(frozen=True)
class Triple:
    """Input datum: polytope + quasilattice + per-facet membership certificates."""

    polytope: PolytopeH
    lattice: Quasilattice
    certificates: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.certificates) != self.polytope.d:
            raise ValueError("one certificate per facet required")
        for j, cert in enumerate(self.certificates):
            if combination(self.lattice, cert) != self.polytope.halfspaces[j].normal:
                raise ValueError(f"certificate for facet {j} does not re-substitute")

    @classmethod
    def build(cls, polytope: PolytopeH, lattice: Quasilattice,
              certificates: Optional[Sequence[Sequence[int]]] = None) -> "Triple":
        """Construct a triple, certifying normals via membership when needed."""
        if certificates is None:
            certificates = [certify(lattice, h.normal) for h in polytope.halfspaces]
        return cls(polytope, lattice, tuple(tuple(c) for c in certificates))

    @property
    def normals(self) -> list[KVector]:
        return [h.normal for h in self.polytope.halfspaces]

    @property
    def levels(self) -> list[FieldElem]:
        return [h.level for h in self.polytope.halfspaces]

    def ensure_valid(self) -> None:
        """Raise unless the polytope is bounded, full-dimensional and simple."""
        report = self.polytope.validate()
        if not report.valid:
            raise DegenerateTripleError(
                f"invalid polytope: bounded={report.bounded} "
                f"full_dim={report.full_dim} irredundant={report.irredundant_facets}")
        if not report.simple:
            raise NonsimpleTripleError(classify(self))


@dataclass(frozen=True)
class LevelRow:
    """One equation sum_j coefficients[j] * |z_j|^2 = constant."""

    coefficients: KVector
    constant: FieldElem


@dataclass(frozen=True)
class Presentation:
    """Level set plus cutting-group data for a triple."""

    d: int
    n: int
    level_rows: tuple[LevelRow, ...]
    cont_gens: tuple[KVector, ...]
    disc_gens: tuple[KVector, ...]
    component_invariants: AbelianGroupInvariants


@dataclass(frozen=True)
class DomainIneq:
    """sum_k coefficients[k] * |z_k|^2 < bound, one per non-active facet."""

    facet: int
    coefficients: KVector
    bound: FieldElem


@dataclass(frozen=True)
class Chart:
    vertex: VertexData
    active: tuple[int, ...]
    domain_ineqs: tuple[DomainIneq, ...]
    group_gens: tuple[KVector, ...]       # angle vectors mod Z^n
    group_invariants: AbelianGroupInvariants

    def kind(self) -> str:
        if self.group_invariants.is_trivial():
            return "manifold"
        if self.group_invariants.is_finite():
            return "orbifold"
        return "quasifold"


@dataclass(frozen=True)
class Classification:
    simple: bool
    rational: bool
    kind: str
    chart_kinds: Optional[tuple[str, ...]] = None


# ---------------------------------------------------------------------------
# Presentation
# ---------------------------------------------------------------------------


def build_presentation(triple: Triple) -> Presentation:
    triple.ensure_valid()
    d, n, fd = triple.polytope.d, triple.polytope.dim, triple.polytope.field_d
    # [pi | every generator], pi = the facet normals as columns, of rank n: every
    # pivot falls in pi, and column d + i over the last pivot delta holds a
    # solution of pi x = generator i, zero at pi's free columns
    m, pivots, delta = _eliminate(
        _integer_rows(zip(*triple.normals, *triple.lattice.generators)), fd)
    if len(pivots) != n or pivots[-1] >= d:
        raise AssertionError("internal invariant breach: a pivot outside the normals")
    kernel, kernel_pivots = _canonical_kernel(m, pivots, delta, d, fd)
    assert len(kernel) == d - n
    if any(row.is_zero() for row in kernel):
        raise AssertionError("internal invariant breach: zero level row")
    levels = KVector(triple.levels, fd)
    rows = tuple(LevelRow(row, -row.dot(levels)) for row in kernel)

    component, spanned = quotient_and_spanned(triple.lattice, triple.certificates)
    disc, zero = [], levels[0].zero()
    for c in (c for c, inside in enumerate(spanned, d) if not inside):   # nonzero classes
        theta = [zero] * d
        for i, p in enumerate(pivots):
            theta[p] = _over(m[i][c], delta, fd)
        # theta mod (Z^d + the kernel's span): zero its kernel pivots, then floor mod 1
        for g, p in zip(kernel, kernel_pivots):
            theta = [x - y * theta[p] for x, y in zip(theta, g)]
        disc.append(KVector([x.mod1() for x in theta], fd))
    return Presentation(d, n, rows, tuple(kernel), tuple(disc), component)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------


def build_charts(triple: Triple) -> list[Chart]:
    triple.ensure_valid()
    poly, d = triple.polytope, triple.polytope.field_d
    n, normals, generators = poly.dim, triple.normals, triple.lattice.generators
    charts = []
    for vertex in poly.vertices():
        active = vertex.active_facets
        inactive = [j for j in range(poly.d) if j not in active]
        # [A^T | X_j for the inactive j | every generator], A^T nonsingular: column
        # c >= n of the elimination over its last pivot delta holds the coordinates
        # of that vector in the basis of the active normals
        columns = [normals[j] for j in (*active, *inactive)] + list(generators)
        m, _pivots, delta = _eliminate(_integer_rows(zip(*columns)), d)
        minus = (-delta[0], -delta[1])   # domain rows are the negated coordinates

        domain = []
        for c, j in enumerate(inactive, n):
            bound = poly.halfspaces[j].slack(vertex.point)
            if bound.sign() <= 0:
                raise AssertionError("internal invariant breach: non-positive bound")
            domain.append(DomainIneq(j, KVector([_over(m[i][c], minus, d) for i in range(n)], d),
                                     bound))

        gens = []
        for c in range(n + len(inactive), len(columns)):
            angles = KVector([_over(m[i][c], delta, d).mod1() for i in range(n)], d)
            # the coordinates are unique, so the generator lies in the Z-span of
            # the active normals exactly when they are all integers
            if not angles.is_zero():
                gens.append(angles)

        group = quotient_by(triple.lattice,
                            [triple.certificates[j] for j in active])
        charts.append(Chart(vertex, active, tuple(domain), tuple(gens), group))
    return charts


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

_WORST = {"manifold": 0, "orbifold": 1, "quasifold": 2}


def classify(triple: Triple) -> Classification:
    report = triple.polytope.validate()
    rational = is_discrete(Quasilattice(triple.polytope.dim,
                                        tuple(triple.normals)))
    if not report.simple:
        kind = "stratified-by-manifolds" if rational else "stratified-by-quasifolds"
        return Classification(False, rational, kind)
    kinds = tuple(c.kind() for c in build_charts(triple))
    worst = max(kinds, key=_WORST.__getitem__, default="manifold")
    return Classification(True, rational, worst, kinds)


# ---------------------------------------------------------------------------
# Symplectic cutting at the triple level
# ---------------------------------------------------------------------------


def cut_and_present(triple: Triple, normal: KVector, level: FieldElem,
                    certificate: Optional[Sequence[int]] = None,
                    ) -> tuple[Triple, Triple, Presentation, Presentation]:
    """Cut the polytope along <mu, normal> = level and present both halves.

    The cut normal must be a quasilattice member; each half keeps the
    surviving facets (original order) and appends the cut facet last.
    """
    triple.ensure_valid()
    cert = tuple(certificate) if certificate is not None else tuple(certify(triple.lattice, normal))
    if combination(triple.lattice, cert) != normal:
        raise ValueError("cut certificate does not re-substitute")
    plus, map_p, minus, map_m = cut_with_maps(triple.polytope, normal, level)

    def rebuild(poly: PolytopeH, facet_map: list[int], flip: bool) -> Triple:
        certs = []
        for j in facet_map:
            if j >= 0:
                certs.append(triple.certificates[j])
            else:
                certs.append(tuple(-c for c in cert) if flip else cert)
        return Triple(poly, triple.lattice, tuple(certs))

    t_plus = rebuild(plus, map_p, flip=False)
    t_minus = rebuild(minus, map_m, flip=True)
    return t_plus, t_minus, build_presentation(t_plus), build_presentation(t_minus)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def format_field_elem(x: FieldElem) -> str:
    """Pretty form: golden-ratio notation over Q(sqrt(5)), plain otherwise."""
    if x.d == 5:
        u = x.a - x.b          # x = u + v*phi with phi = (1+sqrt5)/2
        v = 2 * x.b
        if v == 0:
            return str(u)
        if v == 1:
            vs = "φ"
        elif v == -1:
            vs = "-φ"
        else:
            vs = f"{v}φ"
        if u == 0:
            return vs
        if vs.startswith("-"):
            return f"{u} - {vs[1:]}"
        if u < 0:
            return f"{vs} - {-u}"
        return f"{u} + {vs}"
    return str(x)


def _coeff_prefix(x: FieldElem) -> str:
    s = format_field_elem(x)
    if s == "1":
        return ""
    if s == "-1":
        return "-"
    if " " in s:
        return f"({s})"
    return s


def format_level_row(row: LevelRow) -> str:
    terms = []
    for j, c in enumerate(row.coefficients):
        if c.is_zero():
            continue
        terms.append(f"{_coeff_prefix(c)}|z{j + 1}|^2")
    lhs = " + ".join(terms).replace("+ -", "- ")
    return f"{lhs} = {format_field_elem(row.constant)}"


def render_text_report(presentation: Presentation,
                       charts: Optional[Sequence[Chart]] = None) -> str:
    lines = [f"facets: {presentation.d}   ambient dimension: {presentation.n}",
             "level set:"]
    for row in presentation.level_rows:
        lines.append(f"  {format_level_row(row)}")
    lines.append("continuous torus directions:")
    for g in presentation.cont_gens:
        lines.append("  (" + ", ".join(format_field_elem(x) for x in g) + ")")
    lines.append("discrete generators (angles mod 1):")
    if presentation.disc_gens:
        for g in presentation.disc_gens:
            lines.append("  (" + ", ".join(format_field_elem(x) for x in g) + ")")
    else:
        lines.append("  none")
    lines.append(f"component group: {presentation.component_invariants}")
    for chart in charts or ():
        lines.append(f"chart at vertex ("
                     + ", ".join(format_field_elem(x) for x in chart.vertex.point)
                     + f"), active facets {list(chart.active)}:")
        for ineq in chart.domain_ineqs:
            terms = " + ".join(f"{_coeff_prefix(c)}|z{k + 1}|^2"
                               for k, c in enumerate(ineq.coefficients)
                               if not c.is_zero()) or "0"
            lines.append(f"  {terms.replace('+ -', '- ')} < {format_field_elem(ineq.bound)}")
        lines.append(f"  chart group: {chart.group_invariants}")
        for g in chart.group_gens:
            lines.append("    angle gen ("
                         + ", ".join(format_field_elem(x) for x in g) + ")")
    return "\n".join(lines) + "\n"


def emit_report(presentation: Presentation, charts: Optional[Sequence[Chart]],
                fmt: str = "text") -> str:
    if fmt == "text":
        return render_text_report(presentation, charts)
    if fmt == "json":
        from . import jsonio
        doc = jsonio.encode_presentation(presentation)
        if charts is not None:
            doc["charts"] = jsonio.encode_charts(charts)["charts"]
        return jsonio.dumps_canonical(doc)
    raise ValueError(f"unknown report format {fmt!r}")
