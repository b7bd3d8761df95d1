"""Analysis of the pencil F + lambda*G.

Discriminant polynomial, homogenization bookkeeping, rank profile of every
singular member over its exact field of definition, the multiplicity bound,
the low-rank census, condition (E), and the smoothness criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Factorization,
    Poly,
    QuotientField,
    det_int,
    factor_poly,
    interpolate,
    matrix_rank,
    rank_and_kernel,
)
from .forms import QuadraticForm, form_rank, radical_subspace


class IdenticallyZeroDiscriminant(ArithmeticError):
    """det(F + lambda G) vanishes for every lambda; routed, not fatal."""


class WrongDimension(ValueError):
    pass


@dataclass(frozen=True)
class Pencil:
    F: QuadraticForm
    G: QuadraticForm

    def __post_init__(self):
        if self.F.dim != self.G.dim:
            raise WrongDimension("F and G must have the same number of variables")
        if _proportional(self.F, self.G):
            raise ValueError("F and G must not be proportional")

    @property
    def dim(self) -> int:
        return self.F.dim

    def member(self, lam) -> QuadraticForm:
        return self.F.add(self.G.scale(lam))


def _proportional(F: QuadraticForm, G: QuadraticForm) -> bool:
    rows = []
    flat_f = [x for row in F.gram for x in row]
    flat_g = [x for row in G.gram for x in row]
    if all(x == 0 for x in flat_f) or all(x == 0 for x in flat_g):
        return True
    return matrix_rank([[a, b] for a, b in zip(flat_f, flat_g)]) < 2


def pencil_det_poly(F: QuadraticForm, G: QuadraticForm) -> Poly:
    """P(lambda) = det(F + lambda G), exactly, via integer interpolation.

    The entries of F + lambda G have degree <= 1 so deg P <= dim; we clear
    denominators, evaluate integer determinants at dim+1 nodes and
    interpolate over Q.
    """
    n = F.dim
    dens = [x.denominator for row in F.gram for x in row]
    dens += [x.denominator for row in G.gram for x in row]
    s = math.lcm(*dens)
    A = [[int(x * s) for x in row] for row in F.gram]
    B = [[int(x * s) for x in row] for row in G.gram]
    xs = list(range(n + 1))
    ys = []
    for lam in xs:
        M = [[A[i][j] + lam * B[i][j] for j in range(n)] for i in range(n)]
        ys.append(Fraction(det_int(M), s**n))
    return interpolate(xs, ys)


def member_matrix(F: QuadraticForm, G: QuadraticForm, field: QuotientField):
    """Gram matrix of F + t*G with t the generator of Q[t]/(m)."""
    return [[field.reduce(Poly([F.gram[i][j], G.gram[i][j]]))
             for j in range(F.dim)] for i in range(F.dim)]


@dataclass(frozen=True)
class RankRecord:
    """Rank data for one singular member of the pencil.

    kind 'factor': member at a root of the irreducible factor, over
    Q[t]/(factor); kind 'mu': the member G at (mu:lambda) = (0:1).
    """

    kind: str                 # 'factor' or 'mu'
    factor: Poly | None       # primitive integer irreducible, None for 'mu'
    multiplicity: int         # multiplicity in D(mu, lambda)
    rank: int
    radical: tuple            # kernel vectors; field elements for deg >= 2
    fld: QuotientField | None  # None when defined over Q

    @property
    def degree(self) -> int:
        return 1 if self.kind == "mu" else self.factor.degree

    def rational_lambda(self) -> Fraction | None:
        if self.kind == "factor" and self.factor.degree == 1:
            return -self.factor[0] / self.factor[1]
        return None


@dataclass(frozen=True)
class DiscriminantData:
    P: Poly
    factorization: Factorization
    mu_multiplicity: int
    records: tuple  # RankRecord, factor records first, 'mu' record last
    dim: int        # n + 1

    @property
    def n(self) -> int:
        return self.dim - 1

    def factor_records(self):
        return [r for r in self.records if r.kind == "factor"]

    def mu_record(self) -> RankRecord:
        return self.records[-1]


def discriminant(p: Pencil) -> DiscriminantData:
    F, G = p.F, p.G
    dim = p.dim
    P = pencil_det_poly(F, G)
    if P.is_zero():
        raise IdenticallyZeroDiscriminant(
            "det(F + lambda G) vanishes identically")
    fac = factor_poly(P)
    records = []
    for m, mult in fac.factors:
        if m.degree == 1:
            lam = -m[0] / m[1]
            member = p.member(lam)
            rad = radical_subspace(member)
            records.append(RankRecord(
                kind="factor", factor=m, multiplicity=mult,
                rank=form_rank(member), radical=tuple(rad.basis), fld=None))
        else:
            fld = QuotientField(m.monic(), check_irreducible=False)
            rows = member_matrix(F, G, fld)
            rank, rad = rank_and_kernel(rows, fld)
            records.append(RankRecord(
                kind="factor", factor=m, multiplicity=mult,
                rank=rank, radical=tuple(tuple(v) for v in rad), fld=fld))
    mu_mult = dim - P.degree
    rad_g = radical_subspace(G)
    records.append(RankRecord(
        kind="mu", factor=None, multiplicity=mu_mult,
        rank=form_rank(G), radical=tuple(rad_g.basis), fld=None))
    return DiscriminantData(P=P, factorization=fac, mu_multiplicity=mu_mult,
                            records=tuple(records), dim=dim)


def multiplicity_bound_check(d: DiscriminantData, n: int) -> bool:
    """multiplicity >= (n+1) - rank for every record; a theorem, so any
    failure is an internal-consistency bug upstream."""
    return all(r.multiplicity >= (n + 1) - r.rank for r in d.records)


@dataclass(frozen=True)
class CensusMember:
    kind: str          # 'rational', 'mu', 'conjugate-pair', 'higher-degree'
    rank: int
    lam: Fraction | None = None
    factor: Poly | None = None
    count: int = 1     # contribution to s (field degree)


@dataclass(frozen=True)
class CensusReport:
    s: int
    members: tuple
    inequality_ok: bool
    n: int


def low_rank_census(d: DiscriminantData, n: int) -> CensusReport:
    members = []
    for r in d.records:
        if r.rank > 4:
            continue
        if r.kind == "mu":
            if r.multiplicity >= 1:
                members.append(CensusMember(kind="mu", rank=r.rank))
        elif r.factor.degree == 1:
            members.append(CensusMember(
                kind="rational", rank=r.rank, lam=r.rational_lambda()))
        elif r.factor.degree == 2:
            members.append(CensusMember(
                kind="conjugate-pair", rank=r.rank, factor=r.factor, count=2))
        else:
            members.append(CensusMember(
                kind="higher-degree", rank=r.rank, factor=r.factor,
                count=r.factor.degree))
    s = sum(m.count for m in members)
    ok = s * (1 - Fraction(4, n + 1)) <= 1
    return CensusReport(s=s, members=tuple(members), inequality_ok=ok, n=n)


@dataclass(frozen=True)
class ConditionEReport:
    holds: bool
    witness: tuple | None   # ('rational', lam1, lam2) / ('mu-rational', lam)
                            # / ('quadratic', factor)
    notes: tuple = ()


def condition_E_check(d: DiscriminantData) -> ConditionEReport:
    """Condition (E) in P^4: two non-proportional rank-4 members either
    both rational or conjugate over a quadratic extension."""
    if d.dim != 5:
        raise WrongDimension("condition (E) is a P^4 notion (5 variables)")
    rational = [r.rational_lambda() for r in d.factor_records()
                if r.factor.degree == 1 and r.rank == 4]
    mu_rank4 = d.mu_record().rank == 4 and d.mu_multiplicity >= 1
    notes = []
    if len(rational) >= 2:
        return ConditionEReport(True, ("rational", rational[0], rational[1]))
    if rational and mu_rank4:
        return ConditionEReport(True, ("mu-rational", rational[0]))
    for r in d.factor_records():
        if r.factor.degree == 2 and r.rank == 4:
            return ConditionEReport(True, ("quadratic", r.factor))
        if r.factor.degree > 2 and r.rank == 4:
            notes.append("higher-degree rank-4 member, (E) not triggered")
    return ConditionEReport(False, None, tuple(notes))


def smoothness_test(p: Pencil) -> bool:
    """Smoothness of X = {F = G = 0} as a complete intersection.

    Verdict: D(mu, lambda) squarefree of degree dim, i.e. P nonzero and
    squarefree with mu-multiplicity <= 1.
    """
    try:
        d = discriminant(p)
    except IdenticallyZeroDiscriminant:
        return False
    return (all(mult == 1 for _, mult in d.factorization.factors)
            and d.mu_multiplicity <= 1)
