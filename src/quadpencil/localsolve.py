"""Exact local solvability machinery.

Hilbert symbols at all places of Q, conic local-global verdicts, rational
points on conics by Lagrange descent with Gaussian lattice reduction
(Cremona-Rusin, Math. Comp. 72, 2003), isotropy of diagonalized quadratic
forms over completions, mod-p point counting and p-adic lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy.solvers.diophantine.diophantine import descent

from .exact import InternalError, _frac, squarefree_part
from .forms import (
    ProjectivePoint,
    QuadraticForm,
    diagonalize,
    integer_rep_gradient,
    integer_rep_value,
)


class NotLocallySolvable(ValueError):
    def __init__(self, places):
        self.places = tuple(places)
        super().__init__(f"no local solution at {self.places}")


class BudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class Place:
    p: int | None = None  # None is the real place

    def __post_init__(self):
        if self.p is not None and not sympy.isprime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_real(self) -> bool:
        return self.p is None

    @classmethod
    def real(cls):
        return cls(None)

    @classmethod
    def prime(cls, p):
        return cls(int(p))

    def label(self) -> str:
        return "oo" if self.p is None else str(self.p)


def _square_class(x) -> int:
    """Integer representative of the square class of a nonzero rational."""
    x = _frac(x)
    if x == 0:
        raise ValueError("zero has no square class")
    return x.numerator * x.denominator


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def _split(x: int, p: int):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def hilbert_symbol(a, b, v: Place) -> int:
    """(a, b)_v = +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution
    over the completion at v.  Classical closed formulas."""
    a = _square_class(a)
    b = _square_class(b)
    if v.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    sa = -1 if a < 0 else 1
    sb = -1 if b < 0 else 1
    alpha, u = _split(abs(a), p)
    beta, w = _split(abs(b), p)
    u *= sa
    w *= sb
    if p != 2:
        res = 1
        if (alpha * beta) % 2 and (p - 1) // 2 % 2:
            res = -res
        if beta % 2:
            res *= legendre(u, p)
        if alpha % 2:
            res *= legendre(w, p)
        return res
    eps_u = ((u - 1) // 2) % 2
    eps_w = ((w - 1) // 2) % 2
    om_u = ((u * u - 1) // 8) % 2
    om_w = ((w * w - 1) // 8) % 2
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e % 2 else 1


def is_square_local(x, v: Place) -> bool:
    """Is the nonzero rational x a square in the completion at v?"""
    x = _frac(x)
    if v.is_real:
        return x > 0
    c = _square_class(x)
    val, unit = _split(abs(c), v.p)
    unit *= -1 if c < 0 else 1
    if val % 2:
        return False
    if v.p == 2:
        return unit % 8 == 1
    return legendre(unit % v.p, v.p) == 1


@dataclass(frozen=True)
class TernaryForm:
    """Reduced diagonal model a x^2 + b y^2 + c z^2 of a rank-3 form.

    a, b, c are squarefree and pairwise coprime.  The transcript satisfies
    original(transform @ y) = scale * (a y0^2 + b y1^2 + c y2^2), so zeros
    transport back exactly.
    """

    a: int
    b: int
    c: int
    transform: tuple   # 3x3 rational matrix (rows)
    scale: Fraction
    original: QuadraticForm

    def to_original(self, y) -> ProjectivePoint:
        coords = [sum(self.transform[i][j] * _frac(y[j]) for j in range(3))
                  for i in range(3)]
        return ProjectivePoint(tuple(coords))


def reduce_ternary(F: QuadraticForm) -> TernaryForm:
    """Diagonalize and Legendre-reduce a rank-3 form in 3 variables."""
    if F.dim != 3:
        raise ValueError("ternary reduction needs a form in 3 variables")
    diag, M = diagonalize(F)
    if any(d == 0 for d in diag):
        raise ValueError("form has rank < 3")
    B = [row[:] for row in M]
    scale = Fraction(1)
    coeffs = []
    for i, d in enumerate(diag):
        u, vden = d.numerator, d.denominator
        q, s = squarefree_part(u * vden)
        c = Fraction(vden, s)
        for r in range(3):
            B[r][i] *= c
        coeffs.append(q)
    # make pairwise coprime: common prime in two slots moves to the third
    changed = True
    while changed:
        changed = False
        g_all = math.gcd(*[abs(x) for x in coeffs])
        for p in sympy.primefactors(g_all):
            coeffs = [x // p for x in coeffs]
            scale *= p
            changed = True
        for i in range(3):
            for j in range(i + 1, 3):
                g = math.gcd(abs(coeffs[i]), abs(coeffs[j]))
                if g > 1:
                    p = sympy.primefactors(g)[0]
                    k = 3 - i - j
                    coeffs[i] //= p
                    coeffs[j] //= p
                    coeffs[k] *= p
                    for r in range(3):
                        B[r][k] *= p
                    scale *= p
                    changed = True
    a, b, c = coeffs
    return TernaryForm(a=a, b=b, c=c,
                       transform=tuple(tuple(r) for r in B),
                       scale=scale, original=F)


@dataclass(frozen=True)
class LocalReport:
    tested_places: tuple
    verdicts: tuple      # ((place_label, solvable), ...) aligned with places
    globally_solvable: bool

    def failing_places(self):
        return tuple(pl for pl, ok in self.verdicts if not ok)


def conic_bad_places(t: TernaryForm):
    # factor a, b, c apart: factoring their product costs far more once two
    # of them carry large primes
    primes = sorted({2}.union(*(sympy.primefactors(abs(x))
                                for x in (t.a, t.b, t.c))))
    return [Place.real()] + [Place.prime(p) for p in primes]


def conic_solvable_at(t: TernaryForm, v: Place) -> bool:
    return hilbert_symbol(-t.a * t.c, -t.b * t.c, v) == 1


def conic_local_report(t: TernaryForm) -> LocalReport:
    places = conic_bad_places(t)
    verdicts = tuple((v.label(), conic_solvable_at(t, v)) for v in places)
    return LocalReport(tested_places=tuple(places), verdicts=verdicts,
                       globally_solvable=all(ok for _, ok in verdicts))


def conic_rational_point(t: TernaryForm, report: LocalReport):
    """Primitive point on a x^2 + b y^2 + c z^2 = 0, pulled back to the
    original coordinates; report is conic_local_report(t).

    Lagrange descent with Gaussian lattice reduction solves
    z^2 = -ac x^2 - bc y^2; c divides that z because c is squarefree
    (J. E. Cremona and D. Rusin, Math. Comp. 72, 2003).  It runs in time
    polynomial in the bit size of a, b, c, apart from the factoring that
    square roots modulo bc need.

    Returns (point_in_original_coords, diagonal_solution).  Raises
    NotLocallySolvable when some place obstructs, and InternalError when
    the descent fails on a conic the local report calls solvable: by
    Legendre's theorem a point exists, so that is a bug.
    """
    if not report.globally_solvable:
        raise NotLocallySolvable(report.failing_places())
    a, b, c = t.a, t.b, t.c
    try:
        z, x, y = map(int, descent(-a * c, -b * c))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        # sympy signals a missing square root mod |B| by a TypeError
        raise InternalError(
            f"Lagrange descent failed despite local solvability: {exc!r}")
    sol = (x, y, z // c)
    g = math.gcd(*sol) or 1
    sol = tuple(abs(v) // g for v in sol)
    # real checks: sympy's gaussian_reduce asserts, and python -O strips that
    if not any(sol) or a * sol[0] ** 2 + b * sol[1] ** 2 + c * sol[2] ** 2:
        raise InternalError(
            f"Lagrange descent returned {sol}, not a point of the conic")
    pt = t.to_original(sol)
    if t.original.evaluate(pt.coords) != 0:
        raise InternalError("conic point is not on the conic")
    return pt, sol


def quadric_isotropy(F: QuadraticForm, v: Place) -> bool:
    """Does F have a nontrivial zero over the completion at v?"""
    diag, _ = diagonalize(F)
    nz = [d for d in diag if d != 0]
    if len(nz) < F.dim:
        return True  # radical vector is a nontrivial zero
    r = len(nz)
    if v.is_real:
        return any(d > 0 for d in nz) and any(d < 0 for d in nz)
    if r >= 5:
        return True
    if r <= 1:
        return False
    d = Fraction(1)
    for x in nz:
        d *= x
    if r == 2:
        return is_square_local(-d, v)
    eps = 1
    for i in range(r):
        for j in range(i + 1, r):
            eps *= hilbert_symbol(nz[i], nz[j], v)
    if r == 3:
        return hilbert_symbol(-1, -d, v) == eps
    # r == 4
    return (not is_square_local(d, v)) or eps == hilbert_symbol(-1, -1, v)


def _modp_setup(F: QuadraticForm, p: int):
    scale, diag, cross = F.integer_rep()
    if scale.numerator % p == 0:
        raise ValueError(f"form does not reduce mod {p} (denominator)")
    return diag, cross


def _projective_points(dim, p):
    for k in range(dim):
        tail = dim - k - 1
        for m in range(p**tail):
            rest = []
            mm = m
            for _ in range(tail):
                rest.append(mm % p)
                mm //= p
            yield tuple([0] * k + [1] + rest)


def modp_counts(F: QuadraticForm, G: QuadraticForm, p: int,
                budget: int = 200000):
    """(total, smooth, sample): exact mod-p point counts on {F = G = 0}.

    smooth counts points where the stacked Jacobian has rank 2 mod p;
    sample is the lexicographically least smooth point, if any.
    """
    dim = F.dim
    if p**dim > budget:
        raise BudgetExceeded(f"p^dim = {p**dim} exceeds budget {budget}")
    dF, cF = _modp_setup(F, p)
    dG, cG = _modp_setup(G, p)
    total = smooth = 0
    sample = None
    for x in _projective_points(dim, p):
        if (integer_rep_value(dF, cF, x) % p
                or integer_rep_value(dG, cG, x) % p):
            continue
        total += 1
        gf = integer_rep_gradient(dF, cF, x)
        gg = integer_rep_gradient(dG, cG, x)
        rank2 = any((gf[i] * gg[j] - gf[j] * gg[i]) % p
                    for i in range(dim) for j in range(i + 1, dim))
        if rank2:
            smooth += 1
            if sample is None:
                sample = x
    return total, smooth, sample


def _canonical_rep(x, p, pk):
    """Scale a primitive vector mod p^k by a unit so its first unit
    coordinate is 1; canonical representative of the scaling orbit."""
    i = next(idx for idx, v in enumerate(x) if v % p)
    inv = pow(x[i], -1, pk)
    return tuple(v * inv % pk for v in x)


def padic_lift_obstruction(F: QuadraticForm, G: QuadraticForm, p: int,
                           max_depth: int = 6, class_budget: int = 20000):
    """Sound p-adic emptiness certificate via Hensel-style lifting.

    Returns the smallest k <= max_depth such that the primitive integer
    models of F and G (QuadraticForm.integer_rep) have no common primitive
    zero mod p^k (then X has no Q_p point), or None if
    solution classes survive to max_depth or the class budget is hit
    (inconclusive -- no obstruction may be claimed).
    """
    dim = F.dim
    _, dA, cA = F.integer_rep()
    _, dB, cB = G.integer_rep()
    survivors = {_canonical_rep(x, p, p) for x in _projective_points(dim, p)
                 if integer_rep_value(dA, cA, x) % p == 0
                 and integer_rep_value(dB, cB, x) % p == 0}
    if not survivors:
        return 1
    pk = p
    for k in range(1, max_depth):
        nxt = set()
        for x in survivors:
            # x + p^k y solves mod p^{k+1} iff two linear conditions on y
            ca = integer_rep_value(dA, cA, x) // pk
            cb = integer_rep_value(dB, cB, x) // pk
            ga = integer_rep_gradient(dA, cA, x)
            gb = integer_rep_gradient(dB, cB, x)
            for y in _solve_two_linear_modp(ga, ca, gb, cb, p, dim):
                lifted = tuple((x[i] + pk * y[i]) % (pk * p)
                               for i in range(dim))
                nxt.add(_canonical_rep(lifted, p, pk * p))
                if len(nxt) > class_budget:
                    return None
        if not nxt:
            return k + 1
        survivors = nxt
        pk *= p
    return None


def _solve_two_linear_modp(ga, ca, gb, cb, p, dim):
    """All y in F_p^dim with ga.y + ca = 0 and gb.y + cb = 0."""
    rows = []
    rhs = []
    for g, c in ((ga, ca), (gb, cb)):
        if any(v % p for v in g):
            rows.append([v % p for v in g])
            rhs.append((-c) % p)
        elif c % p:
            return  # inconsistent: no solutions
    if not rows:
        # every y works
        for m in range(p**dim):
            y = []
            for _ in range(dim):
                y.append(m % p)
                m //= p
            yield tuple(y)
        return
    # eliminate: find pivot columns
    pivots = []
    r = 0
    mat = [row[:] + [rh] for row, rh in zip(rows, rhs)]
    for c in range(dim):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    for row in mat[r:]:
        if row[-1] % p:
            return  # inconsistent
    free = [c for c in range(dim) if c not in pivots]
    for m in range(p ** len(free)):
        y = [0] * dim
        mm = m
        for fc in free:
            y[fc] = mm % p
            mm //= p
        for i, pc in enumerate(pivots):
            y[pc] = (mat[i][-1] - sum(mat[i][c] * y[c] for c in free)) % p
        yield tuple(y)
