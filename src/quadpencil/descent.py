"""Hyperplane descent and rational point search.

Enumerates hyperplanes through the distinguished plane, certifies the
open-condition membership the induction needs, recurses down to P^4,
solves there through conic-bundle fibers, and handles the conjugate
rank-4 pair in P^6 by splitting the Weil restriction.  Every P^4 point
comes from a conic-bundle fiber; direct enumeration serves only routes
without a descent and the discriminant-zero case.  One descent step,
``descend_into``, is taken by both the search and ``replay_trace``, so
replay re-derives each descent level exactly as the search did.  The
real place is decided exactly, by one signature per interval between the
real roots of det(F + lambda G) (``definite_member``).  Also provides the
seeded planted-instance generator used by the test and acceptance suites.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    InternalError,
    Poly,
    QuotientField,
    _frac,
    mat_inverse,
    mat_mul,
    mat_transpose,
    matrix_rank,
    rank_and_kernel,
    rational_sqrt,
    real_root_intervals,
)
from .forms import (
    LinearSubspace,
    ProjectivePoint,
    QuadraticForm,
    form_rank,
    integer_rep_value,
    restrict_form,
    signature,
)
from .localsolve import (
    BudgetExceeded,
    conic_local_report,
    conic_rational_point,
    modp_counts,
    padic_lift_obstruction,
    reduce_ternary,
)
from .normalize import (
    DiscriminantZero,
    HypothesisReport,
    NormalizedSystem,
    hypothesis_report,
    normalize_pencil,
    singular_line,
    verify_conic_plane,
)
from .pencil import DiscriminantData, Pencil, member_matrix


class PointNotOnX(ValueError):
    pass


class DegenerateFiber(ValueError):
    pass


class NotConjugateCase(ValueError):
    pass


class PlanesNotDisjoint(ValueError):
    pass


class PointAtInfinity(ValueError):
    pass


class RetriesExhausted(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# height-ordered enumeration of primitive sign-canonical integer vectors


def primitive_vectors(length: int, height_bound: int):
    """Primitive integer vectors of the given length with max|v_i| <= bound
    and first nonzero entry positive: one vector per rational line.

    The order is exact, and search and replay rely on it: by height
    h = max|v_i|; within a height by support size, then by support in
    lexicographic order; on one support by the entries, compared
    lexicographically with 1 < -1 < 2 < -2 < ... < h < -h.  Vectors are
    produced lazily in that order: the first few at a large length do not
    wait for a whole height to be built."""
    for h in range(1, height_bound + 1):
        values = [s * a for a in range(1, h + 1) for s in (1, -1)]
        for k in range(1, length + 1):
            for support in itertools.combinations(range(length), k):
                for entries in itertools.product(values, repeat=k):
                    if (entries[0] < 0 or max(map(abs, entries)) != h
                            or math.gcd(*entries) != 1):
                        continue
                    vec = [0] * length
                    for i, v in zip(support, entries):
                        vec[i] = v
                    yield tuple(vec)


@dataclass(frozen=True)
class HyperplaneCandidate:
    alphas: tuple   # (alpha_3, ..., alpha_n), primitive, sign-canonical

    @property
    def height(self) -> int:
        return max(abs(a) for a in self.alphas)

    def linear_form(self, dim: int):
        """Coefficient vector of the hyperplane in ambient coordinates."""
        if dim != 3 + len(self.alphas):
            _bad_dim(dim, self.alphas)
        return [Fraction(0)] * 3 + [Fraction(a) for a in self.alphas]

    def cone_basis(self, dim: int) -> LinearSubspace:
        """Basis of the affine cone {sum alpha_i x_i = 0}, containing the
        standard plane e0, e1, e2."""
        if dim != 3 + len(self.alphas):
            _bad_dim(dim, self.alphas)
        cols = [[Fraction(int(i == k)) for i in range(dim)] for k in range(3)]
        _, kernel = rank_and_kernel([[Fraction(a) for a in self.alphas]])
        for ker in kernel:
            cols.append([Fraction(0)] * 3 + list(ker))
        return LinearSubspace.span(dim, cols)


def _bad_dim(dim, alphas):
    raise ValueError(f"hyperplane over {len(alphas)} tail coords does not "
                     f"match ambient dimension {dim}")


def enumerate_hyperplanes(n: int, height_bound: int):
    """Hyperplanes containing the standard plane in P^n, height-ordered."""
    for vec in primitive_vectors(n - 2, height_bound):
        yield HyperplaneCandidate(alphas=vec)


def enumerate_p1(height_bound: int):
    for vec in primitive_vectors(2, height_bound):
        yield vec


# ---------------------------------------------------------------------------
# V0 membership and transversality


@dataclass(frozen=True)
class V0Certificate:
    accepted: bool
    rank_f_restricted: int
    rank_g_restricted: int
    radical_hits: tuple   # labels of radical vectors lying on H (must be ())
    rejected_clause: str | None
    cone: LinearSubspace | None = None      # the cone of H, when accepted
    child: NormalizedSystem | None = None   # (F, G) restricted to the cone


def _eval_linear_on_vector(alphas, vec, fld):
    """Evaluate sum alpha_i x_i (i >= 3) at a radical vector over Q or a
    quotient field; returns True iff nonzero."""
    if fld is None:
        val = sum(Fraction(a) * vec[3 + k] for k, a in enumerate(alphas))
        return val != 0
    acc = Poly([])
    for k, a in enumerate(alphas):
        acc = acc + vec[3 + k] * Fraction(a)
    return not fld.reduce(acc).is_zero()


def v0_membership(sys: NormalizedSystem, d: DiscriminantData,
                  H: HyperplaneCandidate) -> V0Certificate:
    """Certify the open conditions on H; an accepted certificate carries
    the cone of H and the child system in P^{n-1}."""
    n = sys.n
    S = H.cone_basis(sys.dim)
    rf = restrict_form(sys.F, S)
    rg = restrict_form(sys.G, S)
    rank_f = form_rank(rf)
    rank_g = form_rank(rg)
    hits = []
    for idx, rec in enumerate(d.records):
        if rec.rank >= sys.dim and rec.kind == "factor":
            continue
        if rec.kind == "mu" and rec.multiplicity < 1:
            continue
        for j, vec in enumerate(rec.radical):
            # A vector in the plane lies on every hyperplane through it, so
            # no H could pass; skip it.  A rational 'mu' vertex there is not
            # on X: the descent runs only when C(Q) is empty, so q(v) != 0.
            # A factor-record vertex there is a point of C over k(lambda)
            # where X is singular, and it lies in every section.  The child
            # may then be singular at that vertex; its points are still
            # verified exactly and replayed.
            if not any(vec[3:]):
                continue
            if not _eval_linear_on_vector(H.alphas, vec, rec.fld):
                hits.append(f"record{idx}/vec{j}")
    if rank_f != n:
        return V0Certificate(False, rank_f, rank_g, tuple(hits), "non-tangency")
    if hits:
        return V0Certificate(False, rank_f, rank_g, tuple(hits),
                             "singular-point-avoidance")
    if rank_g < 3:
        return V0Certificate(False, rank_f, rank_g, (), "restricted-G-rank")
    child = NormalizedSystem(
        F=rf, G=rg,
        coordinate_change=tuple(
            tuple(Fraction(int(i == j)) for j in range(n))
            for i in range(n)),
        pencil_change=((Fraction(1), Fraction(0)),
                       (Fraction(0), Fraction(1))),
        n=n - 1,
        conic_form=sys.conic_form)
    return V0Certificate(True, rank_f, rank_g, (), None, cone=S, child=child)


def transversality_check(F: QuadraticForm, G: QuadraticForm,
                         H: HyperplaneCandidate, P: ProjectivePoint) -> bool:
    if F.evaluate(P.coords) != 0 or G.evaluate(P.coords) != 0:
        raise PointNotOnX("the point does not lie on X")
    dim = F.dim
    rows = [F.gradient(P.coords), G.gradient(P.coords),
            [Fraction(0)] * 3 + [Fraction(a) for a in H.alphas]]
    return matrix_rank(rows) == 3


def restricted_discriminant(child: NormalizedSystem):
    """Hypothesis report of a child system, whose .disc is the restricted
    discriminant, plus the irreducible quintic flag when the child lives in
    P^4 (descending from P^5)."""
    report = hypothesis_report(child)
    irreducible_quintic = None
    if child.n == 4:
        # with G' vanishing on the plane, rank(G') <= 4 forces deg P' <= 4,
        # so the literal condition is unattainable for conic instances; the
        # achievable analogue is an irreducible quartic lambda-part
        irreducible_quintic = (report.disc.irreducible_of_degree(5)
                               or report.disc.irreducible_of_degree(4))
    return report, irreducible_quintic


def descend_into(sys: NormalizedSystem, d: DiscriminantData,
                 H: HyperplaneCandidate):
    """The descent step from sys, with discriminant data d, into the
    hyperplane H; search and replay both take it.

    Returns None when V0 rejects H, else (certificate, child report,
    trace level).  An accepted child always classifies: F' has full rank,
    and G' is nonzero and vanishes on the plane where F' does not, so the
    pencil is non-conical, not proportional, and det(F' + lambda G') is
    nonzero at lambda = 0.
    """
    cert = v0_membership(sys, d, H)
    if not cert.accepted:
        return None
    child_report, irq = restricted_discriminant(cert.child)
    level = {"n": sys.n, "hyperplane": list(H.alphas),
             "rank_f_restricted": cert.rank_f_restricted,
             "rank_g_restricted": cert.rank_g_restricted,
             "irreducible_quintic": irq,
             "child_route": child_report.route}
    return cert, child_report, level


# ---------------------------------------------------------------------------
# conic bundle fibers in P^4


@dataclass(frozen=True)
class FiberConic:
    t: tuple                      # point of P^1
    residual_form: QuadraticForm  # 3 variables
    embedding: LinearSubspace     # 3-dim subspace of the P^4 cone
    mg_coeffs: tuple              # the linear form whose zero set is the fiber


def residual_conic_fiber(sys_or_forms, t) -> FiberConic:
    """Fiber of the conic bundle over t = (t0 : t1) for a normalized P^4
    system: on H_t = {t0 x3 + t1 x4 = 0} the form G factors as w * M_G and
    the fiber is F restricted to the plane {M_G = 0}."""
    if isinstance(sys_or_forms, NormalizedSystem):
        F, G = sys_or_forms.F, sys_or_forms.G
    else:
        F, G = sys_or_forms
    if F.dim != 5:
        raise ValueError("conic bundle fibers live over a P^4 system")
    t0, t1 = (int(t[0]), int(t[1]))
    if t0 == 0 and t1 == 0:
        raise ValueError("fiber parameter cannot be (0, 0)")
    w = [Fraction(0), Fraction(0), Fraction(0), Fraction(t1), Fraction(-t0)]
    cols = [[Fraction(int(i == k)) for i in range(5)] for k in range(3)] + [w]
    Ht = LinearSubspace.span(5, cols)
    G4 = restrict_form(G, Ht)
    mg = (2 * G4.gram[0][3], 2 * G4.gram[1][3], 2 * G4.gram[2][3],
          G4.gram[3][3])
    if all(c == 0 for c in mg):
        raise DegenerateFiber(f"G vanishes identically on H_{(t0, t1)}")
    _, plane_in_ht = rank_and_kernel([list(mg)])
    cols_p4 = [[sum(Ht.matrix()[i][j] * v[j] for j in range(4))
                for i in range(5)] for v in plane_in_ht]
    emb = LinearSubspace.span(5, cols_p4)
    return FiberConic(t=(t0, t1), residual_form=restrict_form(F, emb),
                      embedding=emb, mg_coeffs=mg)


# ---------------------------------------------------------------------------
# Weil restriction split in P^6


@dataclass(frozen=True)
class WeilSplitData:
    fld: QuotientField         # K = Q[t]/(m), m quadratic
    factor: Poly               # the primitive integer quadratic factor
    lambda1: Poly              # generator image: the first rank-4 parameter
    plane1: tuple              # radical basis of F + lambda1 G (3 vectors / K)
    plane2: tuple              # conjugate radical basis
    basis: tuple               # 7x7 matrix over K, columns [plane1|plane2|v]
    rational_column: int       # index of the rational completion vector
    T: tuple                   # 4x4 Gram of the first quadric over K


def weil_restriction_split(sys: NormalizedSystem, census) -> WeilSplitData:
    if sys.n != 6:
        raise NotConjugateCase("Weil split applies to P^6 instances")
    pair = [m for m in census.members if m.kind == "conjugate-pair"]
    if not pair:
        raise NotConjugateCase("census shows no conjugate rank-4 pair")
    m = pair[0].factor
    fld = QuotientField(m.monic(), check_irreducible=False)
    gen = fld.reduce(Poly([0, 1]))
    N1 = member_matrix(sys.F, sys.G, fld)
    _, R1 = rank_and_kernel(N1, fld)
    if len(R1) != 3:
        raise NotConjugateCase(f"rank-4 member has radical of dim {len(R1)}")
    R2 = [[fld.conjugate(x) for x in v] for v in R1]
    # F and G are rational, so the conjugate member is the entrywise conjugate
    N2 = [[fld.conjugate(x) for x in row] for row in N1]
    for v in R2:
        for row in N2:
            acc = fld.zero
            for x, y in zip(row, v):
                acc = fld.add(acc, fld.mul(x, y))
            if not fld.is_zero(acc):
                raise InternalError("conjugate plane is not the radical")
    stacked = [[R[i] for R in R1 + R2] for i in range(7)]
    if matrix_rank([r[:] for r in stacked], fld) != 6:
        raise PlanesNotDisjoint("singular planes intersect")
    rat_col = None
    for k in range(7):
        e = [fld.one if i == k else fld.zero for i in range(7)]
        trial = [[R[i] for R in R1 + R2 + [e]] for i in range(7)]
        if matrix_rank(trial, fld) == 7:
            rat_col = k
            break
    if rat_col is None:
        raise InternalError("no standard vector completes the planes")
    e = [fld.one if i == rat_col else fld.zero for i in range(7)]
    B = [[col[i] for col in R1 + R2 + [e]] for i in range(7)]
    Bt = mat_transpose(B)
    gram1 = mat_mul(mat_mul(Bt, N1, fld), B, fld)
    for i in range(3):
        for j in range(7):
            if not (fld.is_zero(gram1[i][j]) and fld.is_zero(gram1[j][i])):
                raise InternalError("split Gram matrix is not block diagonal")
    T = [[gram1[i][j] for j in range(3, 7)] for i in range(3, 7)]
    return WeilSplitData(fld=fld, factor=m, lambda1=gen,
                         plane1=tuple(tuple(v) for v in R1),
                         plane2=tuple(tuple(v) for v in R2),
                         basis=tuple(tuple(r) for r in B),
                         rational_column=rat_col,
                         T=tuple(tuple(r) for r in T))


def weil_reconstruct(w: WeilSplitData):
    """Rebuild (F, G) from the split data; exact inverse of the split."""
    fld = w.fld
    n1_new = [[fld.zero] * 7 for _ in range(7)]
    for i in range(4):
        for j in range(4):
            n1_new[3 + i][3 + j] = w.T[i][j]
    B = [list(r) for r in w.basis]
    Binv = mat_inverse(B, fld)
    Bit = mat_transpose(Binv)
    N1 = mat_mul(mat_mul(Bit, n1_new, fld), Binv, fld)
    N2 = [[fld.conjugate(x) for x in row] for row in N1]
    lam1 = w.lambda1
    lam2 = fld.conjugate(lam1)
    dl = fld.sub(lam2, lam1)
    dli = fld.inv(dl)
    Fg, Gg = [], []
    for i in range(7):
        frow, grow = [], []
        for j in range(7):
            fe = fld.mul(dli, fld.sub(fld.mul(lam2, N1[i][j]),
                                      fld.mul(lam1, N2[i][j])))
            ge = fld.mul(dli, fld.sub(N2[i][j], N1[i][j]))
            if fe.degree > 0 or ge.degree > 0:
                raise InternalError("reconstructed form is not rational")
            frow.append(fe[0] if fe.coeffs else Fraction(0))
            grow.append(ge[0] if ge.coeffs else Fraction(0))
        Fg.append(frow)
        Gg.append(grow)
    return QuadraticForm(Fg), QuadraticForm(Gg)


def field_sqrt(alpha: Poly, fld: QuotientField):
    """Square root in a quadratic field Q[t]/(t^2 + B t + C), or None."""
    if fld.degree != 2:
        raise InternalError("field_sqrt needs a quadratic field")
    alpha = fld.reduce(alpha)
    if alpha.is_zero():
        return Poly([])
    B, C = fld.modulus[1], fld.modulus[0]
    a0, a1 = alpha[0], alpha[1]
    candidates = []
    if a1 == 0:
        r = rational_sqrt(a0)
        if r is not None:
            candidates.append(Poly([r]))
    # z = u + v t, v != 0: s = v^2 satisfies the resolvent quadratic
    qa = B * B - 4 * C
    qb = 2 * B * a1 - 4 * a0
    qc = a1 * a1
    disc = qb * qb - 4 * qa * qc
    rd = rational_sqrt(disc)
    if rd is not None:
        for s in ((-qb + rd) / (2 * qa), (-qb - rd) / (2 * qa)):
            if s <= 0:
                continue
            v = rational_sqrt(s)
            if v is None:
                continue
            u = (a1 / v + B * v) / 2
            candidates.append(Poly([u, v]))
    for z in candidates:
        if fld.reduce(z * z) == alpha:
            return z
    return None


def weil_quadric_point(w: WeilSplitData, bound: int):
    """K-point (x3, x4, x5, 1) on T = 0, by enumerating two coordinates
    over small K-integers and solving the residual quadratic exactly."""
    fld = w.fld
    T = [list(r) for r in w.T]

    def telt(a, b):
        return fld.reduce(Poly([a, b]))

    two = fld.from_rational(2)
    coords = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            coords.append((abs(a) + abs(b), a, b))
    coords.sort()
    for _, ua, ub in coords:
        u = telt(ua, ub)
        for _, va, vb in coords:
            v = telt(va, vb)
            # quadratic in the third coordinate z:  A z^2 + Bl z + Cc = 0
            A = T[2][2]
            Bl = fld.mul(two, fld.add(fld.add(fld.mul(T[0][2], u),
                                              fld.mul(T[1][2], v)), T[2][3]))
            Cc = fld.add(
                fld.add(fld.mul(fld.mul(T[0][0], u), u),
                        fld.mul(fld.mul(T[1][1], v), v)),
                fld.add(fld.mul(fld.mul(two, fld.mul(T[0][1], u)), v),
                        fld.add(fld.mul(two, fld.add(fld.mul(T[0][3], u),
                                                     fld.mul(T[1][3], v))),
                                T[3][3])))
            if fld.is_zero(A):
                if fld.is_zero(Bl):
                    if fld.is_zero(Cc):
                        return (u, v, fld.zero, fld.one)
                    continue
                z = fld.neg(fld.div(Cc, Bl))
                return (u, v, z, fld.one)
            disc = fld.sub(fld.mul(Bl, Bl),
                           fld.mul(fld.from_rational(4), fld.mul(A, Cc)))
            root = field_sqrt(disc, fld)
            if root is None:
                continue
            z = fld.div(fld.sub(root, Bl), fld.mul(two, A))
            return (u, v, z, fld.one)
    return None


def weil_point_transfer(w: WeilSplitData, qpoint) -> ProjectivePoint:
    fld = w.fld
    q = [fld.reduce(x) for x in qpoint]
    val = fld.zero
    for i in range(4):
        for j in range(4):
            val = fld.add(val, fld.mul(fld.mul(w.T[i][j], q[i]), q[j]))
    if not fld.is_zero(val):
        raise ValueError("qpoint does not lie on the quadric T = 0")
    if fld.is_zero(q[3]):
        raise PointAtInfinity("quadric point lies on the hyperplane at "
                              "infinity; try another point")
    inv = fld.inv(q[3])
    q = [fld.mul(inv, x) for x in q]
    y = [fld.conjugate(q[0]), fld.conjugate(q[1]), fld.conjugate(q[2]),
         q[0], q[1], q[2], fld.one]
    B = [list(r) for r in w.basis]
    coords = []
    for i in range(7):
        acc = fld.zero
        for j in range(7):
            acc = fld.add(acc, fld.mul(B[i][j], y[j]))
        if acc.degree > 0:
            raise InternalError("transferred point is not rational")
        coords.append(acc[0] if acc.coeffs else Fraction(0))
    return ProjectivePoint(tuple(coords))


# ---------------------------------------------------------------------------
# direct enumeration fallback


def direct_point_search(F: QuadraticForm, G: QuadraticForm, height: int):
    """First primitive projective point with F = G = 0, by height."""
    _, df, cf = F.integer_rep()
    _, dg, cg = G.integer_rep()
    for vec in primitive_vectors(F.dim, height):
        if (integer_rep_value(df, cf, vec) == 0
                and integer_rep_value(dg, cg, vec) == 0):
            return ProjectivePoint(vec)
    return None


# ---------------------------------------------------------------------------
# search configuration, outcome, and the driver


@dataclass(frozen=True)
class SearchConfig:
    height_bound: int = 50
    hyperplanes_per_level: int = 24
    fibers_max: int = 96
    weil_bound: int = 6
    direct_height: int = 3
    prime_budget: int = 200_000
    obstruction_primes: tuple = (3,)


@dataclass
class SearchOutcome:
    status: str                      # 'point' | 'obstruction' | 'exhausted'
    point: ProjectivePoint | None = None
    trace: dict | None = None
    obstruction: dict | None = None
    route: str | None = None
    report: HypothesisReport | None = None
    notes: tuple = ()


def _verify_on_original(F0, G0, coords):
    vf = F0.evaluate(coords)
    vg = G0.evaluate(coords)
    if vf != 0 or vg != 0:
        raise InternalError(f"candidate point fails verification: {vf}, {vg}")


def _is_smooth_point(F0, G0, coords):
    rows = [F0.gradient(coords), G0.gradient(coords)]
    return matrix_rank(rows) == 2


def _finish(F0, G0, embed, local_coords, trace, route, report, method):
    coords = [sum(embed[i][j] * _frac(local_coords[j])
                  for j in range(len(local_coords)))
              for i in range(len(embed))]
    pt = ProjectivePoint(tuple(coords))
    _verify_on_original(F0, G0, pt.coords)
    trace["point"] = list(pt.coords)
    trace["evaluations"] = [str(F0.evaluate(pt.coords)),
                            str(G0.evaluate(pt.coords))]
    trace["smooth"] = _is_smooth_point(F0, G0, pt.coords)
    trace["method"] = method
    return SearchOutcome(status="point", point=pt, trace=trace, route=route,
                         report=report)


def _lambda_key(lam):
    return (abs(lam), lam < 0)


def _above(root):
    """Least integer greater than the root isolated by the interval."""
    a, b = root
    return int(b) if a < b and b.denominator == 1 else math.floor(b) + 1


def _below(root):
    """Greatest integer less than the root isolated by the interval."""
    a, b = root
    return int(a) if a < b and a.denominator == 1 else math.ceil(a) - 1


def real_sample_points(P: Poly, dim: int):
    """One rational lambda in each open interval of P^1(R) minus the real
    roots of P, with infinity a root when deg P < dim, in the order
    (|lambda|, lambda < 0).

    In each interval the integer of least |lambda|, non-negative first, is
    taken when there is one, else the midpoint of the gap between the
    isolating intervals of its two end roots (real_root_intervals leaves
    no integer strictly inside those)."""
    roots = real_root_intervals(P)
    if not roots:
        return [Fraction(0)]
    left = min(0, _below(roots[0]))
    right = max(0, _above(roots[-1]))
    if P.degree < dim:
        points = [left, right]
    else:  # no root at infinity: the two unbounded pieces are one interval
        points = [min(left, right, key=_lambda_key)]
    for lo, hi in zip(roots, roots[1:]):
        k0, k1 = _above(lo), _below(hi)
        points.append(min(max(0, k0), k1) if k0 <= k1 else (lo[1] + hi[0]) / 2)
    return sorted((Fraction(x) for x in points), key=_lambda_key)


def definite_member(sys: NormalizedSystem, P: Poly, conic_real: bool):
    """Decide the real place: {"lambda", "signature"} of a definite member
    F + lambda G, whose existence makes X(R) empty, or None when X(R) is
    nonempty.  P is det(F + lambda G); conic_real says whether the conic
    has a real point.

    By Finsler's lemma and Calabi's theorem (P. Finsler, Comment. Math.
    Helv. 9, 1937; E. Calabi, Proc. AMS 15, 1964) two real forms in at
    least 3 variables have no common nontrivial real zero iff some real
    combination of them is definite.  G vanishes on the plane, so it is
    never definite and only the members F + lambda G count.  Each of them
    restricts to the conic on the plane: a real conic point is a real
    point of X and settles the question with no signature computed.
    Otherwise definiteness is an open condition and the signature is
    constant between consecutive real roots of P, so one signature per
    interval of real_sample_points decides it.
    """
    if conic_real:
        return None
    for lam in real_sample_points(P, sys.dim):
        pos, neg, _ = signature(sys.F.add(sys.G.scale(lam)))
        if sys.dim in (pos, neg):
            return {"lambda": str(lam), "signature": [pos, neg]}
    return None


def find_rational_point(F0: QuadraticForm, G0: QuadraticForm,
                        plane: LinearSubspace,
                        config: SearchConfig = SearchConfig()):
    cfg = verify_conic_plane(F0, G0, plane)
    Pencil(F0, G0)  # rejects proportional F0, G0, as every command does
    trace = {"levels": []}
    try:
        sys = normalize_pencil(F0, G0, cfg)
    except DiscriminantZero:
        # every member singular: a rational singular point is expected;
        # fall back to direct enumeration
        trace["route"] = "discriminant-zero"
        pt = direct_point_search(F0, G0, max(config.direct_height, 4))
        if pt is not None:
            _verify_on_original(F0, G0, pt.coords)
            trace["point"] = list(pt.coords)
            trace["method"] = "direct"
            trace["smooth"] = _is_smooth_point(F0, G0, pt.coords)
            return SearchOutcome(status="point", point=pt, trace=trace,
                                 route="discriminant-zero")
        return SearchOutcome(status="exhausted", trace=trace,
                             route="discriminant-zero",
                             notes=("direct search exhausted",))
    report = hypothesis_report(sys)
    trace["route"] = report.route
    embed = [list(r) for r in sys.coordinate_change]

    # step 1: cheap win -- a rational point on the conic C itself
    conic = reduce_ternary(sys.conic_form)
    conic_report = conic_local_report(conic)
    trace["conic_local"] = {"verdicts": list(conic_report.verdicts),
                            "solvable": conic_report.globally_solvable}
    if conic_report.globally_solvable:
        pt3, _ = conic_rational_point(conic, conic_report)
        local = list(pt3.coords) + [0] * (sys.dim - 3)
        return _finish(F0, G0, embed, local, trace, report.route, report,
                       method="conic")

    # step 2: local obstruction screen, the real place decided exactly
    definite = definite_member(sys, report.disc.P,
                               dict(conic_report.verdicts)["oo"])
    if definite is not None:
        obstruction = {"kind": "definite-real-member", **definite}
        return SearchOutcome(status="obstruction", obstruction=obstruction,
                             route=report.route, report=report, trace=trace)
    for p in config.obstruction_primes:
        if p ** sys.dim > config.prime_budget:
            continue
        try:
            total, smooth, _ = modp_counts(sys.F, sys.G, p,
                                           config.prime_budget)
        except (ValueError, BudgetExceeded):
            continue
        if smooth == 0:
            # the empty smooth locus alone is evidence, not proof; only
            # claim the obstruction once bounded lifting certifies that no
            # primitive solution exists mod p^k
            depth = padic_lift_obstruction(sys.F, sys.G, p)
            if depth is not None:
                obstruction = {"kind": "empty-smooth-mod-p", "p": p,
                               "total_points": total, "smooth_points": 0,
                               "insolvable_mod_power": depth}
                return SearchOutcome(status="obstruction",
                                     obstruction=obstruction,
                                     route=report.route, report=report,
                                     trace=trace)

    outcome = _solve_normalized(F0, G0, sys, embed, report, trace, config)
    outcome.report = report
    outcome.route = report.route
    return outcome


def _solve_normalized(F0, G0, sys, embed, report, trace, config):
    route = report.route
    n = sys.n
    if n == 4:
        return _solve_p4(F0, G0, sys, embed, report, trace, config)
    if route == "s2-conjugate-weil" and n == 6:
        out = _solve_weil(F0, G0, sys, embed, report, trace, config)
        if out is not None:
            return out
        return SearchOutcome(status="exhausted", trace=trace, route=route,
                             report=report,
                             notes=("weil quadric search exhausted",))
    if route in ("Pn-Theorem-3.1", "P5-Theorem-2.1") or \
            (route == "s2-conjugate-weil" and n == 7):
        return _descend(F0, G0, sys, embed, report, trace, config)
    if route == "rank4-G-singular-line":
        _, local = singular_line(sys.F, report.disc.mu_record().radical)
        if local is not None:
            trace["levels"].append({"n": n, "method": "singular-line"})
            return _finish(F0, G0, embed, local, trace, route, report,
                           method="singular-line")
    # elementary cited cases and everything else: direct enumeration
    pt = direct_point_search(sys.F, sys.G, config.direct_height)
    if pt is not None:
        trace["levels"].append({"n": n, "method": "direct"})
        return _finish(F0, G0, embed, list(pt.coords), trace, route, report,
                       method="direct")
    return SearchOutcome(status="exhausted", trace=trace, route=route,
                         report=report, notes=("direct search exhausted",))


def _descend(F0, G0, sys, embed, report, trace, config):
    n = sys.n
    tried = 0
    for H in enumerate_hyperplanes(n, config.height_bound):
        if tried >= config.hyperplanes_per_level:
            break
        step = descend_into(sys, report.disc, H)
        if step is None:
            continue
        cert, child_report, level = step
        if n == 5 and not level["irreducible_quintic"]:
            continue
        tried += 1
        child_embed = mat_mul(embed, cert.cone.matrix())
        child_trace = dict(trace)
        child_trace["levels"] = trace["levels"] + [level]
        out = _solve_normalized(F0, G0, cert.child, child_embed, child_report,
                                child_trace, config)
        if out.status == "point":
            return out
    return SearchOutcome(status="exhausted", trace=trace, route=report.route,
                         report=report,
                         notes=(f"no hyperplane led to a point at n={n}",))


def _solve_p4(F0, G0, sys, embed, report, trace, config):
    fibers_tried = 0
    fiber_log = []
    for t in enumerate_p1(config.height_bound):
        if fibers_tried >= config.fibers_max:
            break
        try:
            fiber = residual_conic_fiber(sys, t)
        except DegenerateFiber:
            fiber_log.append({"t": list(t), "skip": "degenerate"})
            continue
        fibers_tried += 1
        rank, rad = rank_and_kernel(fiber.residual_form.gram)
        if rank < 3:
            y = rad[0]
            local = [sum(fiber.embedding.matrix()[i][j] * y[j]
                         for j in range(3)) for i in range(5)]
            trace["levels"].append({"n": 4, "fiber_t": list(t),
                                    "fiber_rank": rank,
                                    "method": "radical-fiber"})
            return _finish(F0, G0, embed, local, trace, report.route, report,
                           method="fiber")
        ternary = reduce_ternary(fiber.residual_form)
        lrep = conic_local_report(ternary)
        entry = {"t": list(t),
                 "conic": [ternary.a, ternary.b, ternary.c],
                 "verdicts": list(lrep.verdicts),
                 "solvable": lrep.globally_solvable}
        fiber_log.append(entry)
        if not lrep.globally_solvable:
            continue
        pt3, diag_sol = conic_rational_point(ternary, lrep)
        y = list(pt3.coords)
        local = [sum(fiber.embedding.matrix()[i][j] * y[j] for j in range(3))
                 for i in range(5)]
        trace["levels"].append({"n": 4, "fiber_t": list(t),
                                "conic": [ternary.a, ternary.b, ternary.c],
                                "diag_solution": list(diag_sol),
                                "method": "fiber"})
        trace["fibers"] = fiber_log
        return _finish(F0, G0, embed, local, trace, report.route, report,
                       method="fiber")
    # every fiber tried was locally insolvable: name the budget that ended
    # the walk
    budget = (f"fibers_max={config.fibers_max}"
              if fibers_tried >= config.fibers_max
              else f"height_bound={config.height_bound}")
    trace["fibers"] = fiber_log
    note = (f"fiber search exhausted: {budget} reached, {fibers_tried} "
            f"fibers locally insolvable")
    return SearchOutcome(status="exhausted", trace=trace, route=report.route,
                         report=report, notes=(note,))


def _solve_weil(F0, G0, sys, embed, report, trace, config):
    try:
        w = weil_restriction_split(sys, report.census)
    except (NotConjugateCase, PlanesNotDisjoint) as exc:
        trace.setdefault("notes", []).append(f"weil split failed: {exc}")
        return None
    q = weil_quadric_point(w, config.weil_bound)
    if q is None:
        return None
    try:
        pt = weil_point_transfer(w, q)
    except PointAtInfinity:
        return None
    trace["levels"].append({"n": 6, "method": "weil",
                            "factor": [str(c) for c in w.factor.coeffs]})
    return _finish(F0, G0, embed, list(pt.coords), trace, report.route,
                   report, method="weil")


# ---------------------------------------------------------------------------
# trace replay


def replay_trace(F0, G0, plane, trace) -> bool:
    """Re-run every certificate recorded in a successful trace and check
    the recorded verdicts are reproduced.  Each descent level is re-derived
    by descend_into, the step the search took, and must match the recorded
    level exactly."""
    cfg = verify_conic_plane(F0, G0, plane)
    if trace.get("route") == "discriminant-zero":
        pt = trace["point"]
        return F0.evaluate(pt) == 0 and G0.evaluate(pt) == 0
    sys = normalize_pencil(F0, G0, cfg)
    report = hypothesis_report(sys)
    if report.route != trace.get("route"):
        return False
    cur = sys
    d = report.disc
    for level in trace.get("levels", []):
        if "hyperplane" not in level:
            continue
        H = HyperplaneCandidate(alphas=tuple(level["hyperplane"]))
        step = descend_into(cur, d, H)
        if step is None:
            return False
        cert, child_report, derived = step
        if derived != level:
            return False
        cur, d = cert.child, child_report.disc
    for level in trace.get("levels", []):
        if level.get("method") == "fiber" and "conic" in level:
            fiber = residual_conic_fiber(cur, tuple(level["fiber_t"]))
            ternary = reduce_ternary(fiber.residual_form)
            if [ternary.a, ternary.b, ternary.c] != level["conic"]:
                return False
            sol = level["diag_solution"]
            val = (ternary.a * sol[0] ** 2 + ternary.b * sol[1] ** 2
                   + ternary.c * sol[2] ** 2)
            if val != 0:
                return False
    pt = trace.get("point")
    if pt is None:
        return False
    return F0.evaluate(pt) == 0 and G0.evaluate(pt) == 0


def replay_obstruction(F0, G0, plane, obstruction,
                       config: SearchConfig = SearchConfig()) -> bool:
    cfg = verify_conic_plane(F0, G0, plane)
    sys = normalize_pencil(F0, G0, cfg)
    kind = obstruction["kind"]
    if kind == "definite-real-member":
        lam = obstruction["lambda"]
        member = sys.G if lam == "mu" else sys.F.add(sys.G.scale(_frac(lam)))
        pos, neg, zero = signature(member)
        return zero == 0 and [pos, neg] == list(obstruction["signature"])
    if kind == "empty-smooth-mod-p":
        p = obstruction["p"]
        total, smooth, _ = modp_counts(sys.F, sys.G, p, config.prime_budget)
        depth = padic_lift_obstruction(sys.F, sys.G, p)
        return (smooth == 0 and total == obstruction["total_points"]
                and depth == obstruction["insolvable_mod_power"])
    return False


# ---------------------------------------------------------------------------
# planted instance generator

PLANTED_RETRIES = 400


def generate_planted_instance(n, conic_form: QuadraticForm, planted_point,
                              coefficient_height: int = 9, seed: int = 0,
                              route: str | None = None):
    """Instance (F0, G0, plane) with X containing the conic and the planted
    point.  F0 = q + sum_i>=3 x_i L_i, G0 = sum_i>=3 x_i M_i with seeded
    bounded linear forms, adjusted so both forms vanish at the point.
    Deterministic given the seed."""
    if form_rank(conic_form) != 3 or conic_form.dim != 3:
        raise ValueError("conic form must have rank 3 in 3 variables")
    dim = n + 1
    P0 = ProjectivePoint(tuple(planted_point))
    if len(P0.coords) != dim:
        raise ValueError("planted point dimension mismatch")
    istar = next((i for i in range(3, dim) if P0.coords[i] != 0), None)
    if istar is None:
        raise ValueError("planted point must not lie on the plane")
    plane = LinearSubspace.standard(dim, (0, 1, 2))
    rng = random.Random(seed)
    h = coefficient_height
    for _ in range(PLANTED_RETRIES):
        fg = [[Fraction(0)] * dim for _ in range(dim)]
        gg = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(3):
            for j in range(3):
                fg[i][j] = conic_form.gram[i][j]
        for i in range(3, dim):
            L = [rng.randint(-h, h) for _ in range(dim)]
            M = [rng.randint(-h, h) for _ in range(dim)]
            for j in range(dim):
                fg[i][j] += Fraction(L[j], 2)
                fg[j][i] += Fraction(L[j], 2)
                gg[i][j] += Fraction(M[j], 2)
                gg[j][i] += Fraction(M[j], 2)
        F0 = QuadraticForm(fg)
        G0 = QuadraticForm(gg)
        slope = Fraction(P0.coords[istar]) ** 2
        fg[istar][istar] -= F0.evaluate(P0.coords) / slope
        gg[istar][istar] -= G0.evaluate(P0.coords) / slope
        F0 = QuadraticForm(fg)
        G0 = QuadraticForm(gg)
        if F0.evaluate(P0.coords) != 0 or G0.evaluate(P0.coords) != 0:
            raise InternalError("planted point is not on the instance")
        try:
            cfg = verify_conic_plane(F0, G0, plane)
            sys = normalize_pencil(F0, G0, cfg)
            rep = hypothesis_report(sys)
        except (ValueError, ArithmeticError):
            continue
        if route is not None and rep.route != route:
            continue
        return F0, G0, plane
    raise RetriesExhausted(
        f"no instance with route {route} in {PLANTED_RETRIES} attempts")
