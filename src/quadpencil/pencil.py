"""Analysis of the pencil F + lambda*G.

Discriminant polynomial, homogenization bookkeeping, rank profile of every
singular member over its exact field of definition, the multiplicity bound,
the low-rank census, condition (E), and the smoothness criterion.

Ranks over Q[t]/(m): a factor m of multiplicity 1 and degree >= 2 takes its
record from one column C(t) of adj(F + tG).  The identity
(F + tG) C(t) = P(t) e_col, checked in integers at dim + 1 nodes, gives
(F + aG) C(a) = 0 at a root a of m, so a column with C(a) != 0 spans the
radical and certifies rank dim - 1.  That column, reduced mod m, is the
radical as recorded: it is not scaled to a normal form, because its
consumers (the zero test of the descent's V0 check and the analyze report)
do not depend on its scale.  Repeated factors, whose rank can drop further,
use the echelon over Q[t]/(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Factorization,
    InternalError,
    Poly,
    QuotientField,
    det_int,
    factor_poly,
    integer_interpolation,
    rank_and_kernel,
)
from .forms import QuadraticForm


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
    flat_f = [x for row in F.gram for x in row]
    flat_g = [x for row in G.gram for x in row]
    k = next((i for i, g in enumerate(flat_g) if g != 0), None)
    if k is None or all(x == 0 for x in flat_f):
        return True
    # rank < 2 iff every 2x2 minor against the nonzero entry g_k vanishes
    return all(f * flat_g[k] == flat_f[k] * g
               for f, g in zip(flat_f, flat_g))


def _integer_pencil(F: QuadraticForm, G: QuadraticForm):
    """(A, B, s): integer Gram matrices with A + xB = s * (F + xG)."""
    dens = [x.denominator for row in F.gram for x in row]
    dens += [x.denominator for row in G.gram for x in row]
    s = math.lcm(*dens)
    A = [[int(x * s) for x in row] for row in F.gram]
    B = [[int(x * s) for x in row] for row in G.gram]
    return A, B, s


def _member_at(A, B, x):
    return [[a + x * b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def pencil_det_poly(F: QuadraticForm, G: QuadraticForm) -> Poly:
    """P(lambda) = det(F + lambda G), exactly, via integer interpolation.

    The entries of F + lambda G have degree <= 1 so deg P <= dim; we clear
    denominators, evaluate integer determinants at the nodes 0..dim and
    interpolate.
    """
    A, B, s = _integer_pencil(F, G)
    n = len(A)
    nums, den = integer_interpolation(
        [det_int(_member_at(A, B, x)) for x in range(n + 1)])
    return Poly([Fraction(c, den * s**n) for c in nums])


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

    def irreducible_of_degree(self, k: int) -> bool:
        """P is irreducible over Q and of degree k."""
        fac = self.factorization.factors
        return self.P.degree == k and len(fac) == 1 and fac[0][1] == 1

    @property
    def smooth(self) -> bool:
        """X = {F = G = 0} is smooth: D(mu, lambda) is squarefree of degree
        dim, i.e. P is squarefree and the mu-multiplicity is <= 1."""
        return (all(mult == 1 for _, mult in self.factorization.factors)
                and self.mu_multiplicity <= 1)


def _adjugate_column(A, B, dets, col):
    """Column col of adj(A + tB) as polynomials, certified in integers.

    The cofactors are integer determinants at the nodes x = 0..dim, and
    dets[x] = det(A + xB) = s^dim P(x).  The check (A + xB) c(x) =
    dets[x] e_col at those dim + 1 nodes, with every cofactor of degree
    <= dim - 1, proves the identity of polynomials.  Entries are scaled by
    a common positive integer.
    """
    n = len(A)
    values = []
    for x in range(n + 1):
        M = _member_at(A, B, x)
        rest = M[:col] + M[col + 1:]
        c = [(-1) ** (i + col) * det_int([r[:i] + r[i + 1:] for r in rest])
             for i in range(n)]
        for r, row in enumerate(M):
            if sum(a * b for a, b in zip(row, c)) != (dets[x] if r == col
                                                      else 0):
                raise InternalError(
                    f"adjugate column {col} fails (F + tG) C = P e at t = {x}")
        values.append(c)
    column = []
    for i in range(n):
        nums, _ = integer_interpolation([c[i] for c in values])
        if nums[n] != 0:
            raise InternalError(f"cofactor ({i}, {col}) has degree {n}")
        column.append(Poly(nums))
    return column


def _adjugate_kernel(A, B, dets, fld: QuotientField, columns: dict):
    """Radical vector of F + tG over fld, for a simple root of P.

    adj = c v v^T at rank dim - 1, so the last column nonzero mod m is a
    nonzero multiple of the radical vector v, and it is returned unscaled:
    the radical is a line, and no consumer depends on which vector spans
    it.  columns caches the certified integer columns across the factors of
    one discriminant.
    """
    n = len(A)
    for col in range(n - 1, -1, -1):
        if col not in columns:
            columns[col] = _adjugate_column(A, B, dets, col)
        v = tuple(fld.reduce(c) for c in columns[col])
        if any(v):
            return v
    # Jacobi: P' = tr(adj(F + tG) G), nonzero at a simple root
    raise InternalError(f"adj(F + tG) vanishes at a simple root of "
                        f"{fld.modulus!r}")


def discriminant(p: Pencil) -> DiscriminantData:
    F, G = p.F, p.G
    dim = p.dim
    P = pencil_det_poly(F, G)
    if P.is_zero():
        raise IdenticallyZeroDiscriminant(
            "det(F + lambda G) vanishes identically")
    fac = factor_poly(P)
    A, B, s = _integer_pencil(F, G)
    dets = [P.evaluate(x) * s**dim for x in range(dim + 1)]
    columns = {}
    records = []
    for m, mult in fac.factors:
        if m.degree == 1:
            fld = None
            rank, rad = rank_and_kernel(p.member(-m[0] / m[1]).gram)
        else:
            fld = QuotientField(m.monic(), check_irreducible=False)
            if mult == 1:
                rank = dim - 1
                rad = [_adjugate_kernel(A, B, dets, fld, columns)]
            else:
                rank, rad = rank_and_kernel(member_matrix(F, G, fld), fld)
        records.append(RankRecord(
            kind="factor", factor=m, multiplicity=mult,
            rank=rank, radical=tuple(tuple(v) for v in rad), fld=fld))
    mu_mult = dim - P.degree
    rank_g, rad_g = rank_and_kernel(G.gram)
    records.append(RankRecord(
        kind="mu", factor=None, multiplicity=mu_mult,
        rank=rank_g, radical=tuple(tuple(v) for v in rad_g), fld=None))
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
    """Smoothness of X = {F = G = 0} as a complete intersection; see
    DiscriminantData.smooth.  False when P vanishes identically."""
    try:
        d = discriminant(p)
    except IdenticallyZeroDiscriminant:
        return False
    return d.smooth
