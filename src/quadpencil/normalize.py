"""Conic configuration validation and the normal form of the pencil.

Puts the input (F0, G0, plane) into coordinates where the plane is
{x_3 = ... = x_n = 0}, the pencil basis has G vanishing on the plane and F
of maximal rank with F restricted to the plane of rank 3, then classifies
the instance into its case route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import InternalError, rational_sqrt
from .forms import (
    LinearSubspace,
    QuadraticForm,
    change_coordinates,
    extend_to_basis,
    form_rank,
    restrict_form,
)
from .pencil import (
    CensusReport,
    DiscriminantData,
    Pencil,
    discriminant,
    low_rank_census,
    pencil_det_poly,
)


class PlaneContained(ValueError):
    pass


class NotSmoothConic(ValueError):
    pass


class NotAConic(ValueError):
    pass


class DiscriminantZero(ArithmeticError):
    """P = 0 in every pencil basis; routed to direct search."""


@dataclass(frozen=True)
class ConicConfiguration:
    plane: LinearSubspace
    conic_form: QuadraticForm      # rank-3 form q with X cap plane = {q = 0}
    f_scalar: Fraction             # F0 restricted = f_scalar * q
    g_scalar: Fraction             # G0 restricted = g_scalar * q


def _proportionality(q1: QuadraticForm, q2: QuadraticForm):
    """If q1 = s * q2 (q2 nonzero) return s, else None."""
    s = None
    for r1, r2 in zip(q1.gram, q2.gram):
        for a, b in zip(r1, r2):
            if b == 0:
                if a != 0:
                    return None
            else:
                t = a / b
                if s is None:
                    s = t
                elif s != t:
                    return None
    return s


def verify_conic_plane(F0: QuadraticForm, G0: QuadraticForm,
                       plane: LinearSubspace) -> ConicConfiguration:
    if plane.dim != 3:
        raise ValueError("the plane must have 3 basis vectors")
    rf = restrict_form(F0, plane)
    rg = restrict_form(G0, plane)
    fz, gz = rf.is_zero(), rg.is_zero()
    if fz and gz:
        raise PlaneContained("the plane lies on X")
    if fz:
        q, fs, gs = rg, Fraction(0), Fraction(1)
    elif gz:
        q, fs, gs = rf, Fraction(1), Fraction(0)
    else:
        s = _proportionality(rf, rg)
        if s is None:
            raise NotAConic("restrictions are not proportional; "
                            "X meets the plane in points, not a conic")
        q, fs, gs = rg, s, Fraction(1)
    if form_rank(q) != 3:
        raise NotSmoothConic(f"conic form has rank {form_rank(q)} < 3")
    return ConicConfiguration(plane=plane, conic_form=q,
                              f_scalar=fs, g_scalar=gs)


@dataclass(frozen=True)
class NormalizedSystem:
    F: QuadraticForm
    G: QuadraticForm
    coordinate_change: tuple   # matrix M: normalized coords y, x = M y
    pencil_change: tuple       # 2x2: (F, G) = pencil_change @ (F0, G0)
    n: int
    conic_form: QuadraticForm  # q = F restricted to the standard plane

    @property
    def dim(self) -> int:
        return self.n + 1

    def pencil(self) -> Pencil:
        return Pencil(self.F, self.G)


MAX_RANK_SCAN = 32


def _lambda_scan():
    yield Fraction(0)
    k = 1
    while k <= MAX_RANK_SCAN:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def normalize_pencil(F0: QuadraticForm, G0: QuadraticForm,
                     cfg: ConicConfiguration) -> NormalizedSystem:
    dim = F0.dim
    n = dim - 1
    cols = extend_to_basis([list(c) for c in cfg.plane.basis], dim)
    M = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    F0n = change_coordinates(F0, M)
    G0n = change_coordinates(G0, M)
    a, b = cfg.f_scalar, cfg.g_scalar
    # G = a*G0 - b*F0 vanishes on the plane; base keeps rank 3 there
    G = G0n.scale(a).add(F0n.scale(-b))
    if a != 0:
        base, base_row = F0n, (Fraction(1), Fraction(0))
    else:
        base, base_row = G0n, (Fraction(0), Fraction(1))
    if G.is_zero():
        raise DiscriminantZero("pencil degenerates on the plane")
    P = pencil_det_poly(base, G)
    if P.is_zero():
        raise DiscriminantZero("det(F + lambda G) = 0 for every member")
    lam = next(l for l in _lambda_scan() if P.evaluate(l) != 0)
    F = base.add(G.scale(lam))
    g_row = (-b, a)
    f_row = (base_row[0] + lam * g_row[0], base_row[1] + lam * g_row[1])
    sys = NormalizedSystem(
        F=F, G=G,
        coordinate_change=tuple(tuple(r) for r in M),
        pencil_change=(f_row, g_row),
        n=n,
        conic_form=restrict_form(F, LinearSubspace.standard(dim, (0, 1, 2))))
    if form_rank(sys.conic_form) != 3:
        raise InternalError("normalized conic does not have rank 3")
    if not restrict_form(G, LinearSubspace.standard(dim, (0, 1, 2))).is_zero():
        raise InternalError("normalized G does not vanish on the plane")
    return sys


@dataclass(frozen=True)
class HypothesisReport:
    n: int
    non_conical: bool
    rank_f: int
    rank_g: int
    min_member_rank: int
    route: str
    hypothesis_failures: tuple
    census: CensusReport | None
    disc: DiscriminantData
    notes: tuple = ()


ROUTES = (
    "P4-Theorem-1.1",
    "P5-Theorem-2.1",
    "Pn-Theorem-3.1",
    "low-rank-G-elementary",
    "rank4-G-singular-line",
    "s2-rational",
    "s2-conjugate-weil",
    "discriminant-zero",
)


def hypothesis_report(sys: NormalizedSystem) -> HypothesisReport:
    """Classify sys into its route.  Every rank comes from the discriminant:
    F is the member at lambda = 0, so it has full rank unless 0 is a root.
    The pencil is non-conical, because a kernel vector shared by F and G
    would make P vanish identically and discriminant raise."""
    n = sys.n
    dim = sys.dim
    d = discriminant(sys.pencil())
    rank_f = dim if d.P[0] != 0 else next(
        r.rank for r in d.records if r.rational_lambda() == 0)
    rank_g = d.mu_record().rank
    min_rank = min([r.rank for r in d.records if r.kind == "factor"]
                   + ([rank_g] if d.mu_multiplicity >= 1 else [])
                   + [rank_f])
    census = low_rank_census(d, n)
    failures = []
    notes = []
    if n == 4:
        route = "P4-Theorem-1.1"
        if rank_f != 5:
            failures.append("rank(F) != 5")
        if rank_g < 3:
            failures.append("rank(G) < 3")
        if not d.irreducible_of_degree(5):
            failures.append("discriminant quintic not irreducible")
    elif n == 5:
        if rank_g <= 3:
            route = "low-rank-G-elementary"
        elif rank_g == 4:
            route = "rank4-G-singular-line"
            subcase, _ = singular_line(sys.F, d.mu_record().radical)
            notes.append(f"singular-line-subcase: {subcase}")
        else:
            route = "P5-Theorem-2.1"
            if rank_f != 6:
                failures.append("rank(F) != 6")
            if min_rank < 5:
                failures.append("some member has rank < 5")
    else:
        if rank_g <= n - 2:
            route = "low-rank-G-elementary"
        elif census.s == 0:
            route = "Pn-Theorem-3.1"
            if rank_f != n + 1:
                failures.append("rank(F) != n+1")
            if min_rank < 5:
                failures.append("some member has rank < 5")
            if rank_g < 3:
                failures.append("rank(G) < 3")
        elif all(m.kind in ("rational", "mu") for m in census.members):
            route = "s2-rational"
        elif any(m.kind == "conjugate-pair" for m in census.members):
            route = "s2-conjugate-weil"
        else:
            # higher-degree low-rank member: inequality forbids this at
            # n >= 6 for rank(F) = n+1, so flag rather than route
            route = "s2-rational"
            failures.append("unexpected higher-degree low-rank member")
    return HypothesisReport(
        n=n, non_conical=True, rank_f=rank_f, rank_g=rank_g,
        min_member_rank=min_rank, route=route,
        hypothesis_failures=tuple(failures), census=census, disc=d,
        notes=tuple(notes))


def singular_line(F: QuadraticForm, line):
    """(subcase, point) for the radical line of a rank-4 G in 6 variables,
    spanned by the two vectors in line: {F = 0} cap line from the roots of
    the restricted binary quadratic.  point is a rational point of it, or
    None for the subcase "conjugate-pair"."""
    v0, v1 = line
    a, c = F.evaluate(v0), F.evaluate(v1)
    b = (F.evaluate([x + y for x, y in zip(v0, v1)]) - a - c) / 2
    if a == 0 and b == 0 and c == 0:
        return "line-on-X", list(v0)
    if a == 0:
        return "k-point", list(v0)  # root (s, t) = (1, 0)
    root = rational_sqrt(b * b - a * c)
    if root is None:
        return "conjugate-pair", None
    s = (-b + root) / a
    return "k-point", [s * x + y for x, y in zip(v0, v1)]
