"""Shared builders and independent oracles for the test suite.

Oracles here are deliberately written from scratch (brute-force or
first-principles) so they do not share code paths with the library.
"""

import itertools
import math
import random
from fractions import Fraction

from quadpencil.descent import generate_planted_instance
from quadpencil.exact import (
    Poly,
    QuotientField,
    mat_inverse,
    mat_mul,
    mat_transpose,
)
from quadpencil.forms import LinearSubspace, QuadraticForm


def eager_primitive_vectors(length, height_bound):
    """Order oracle for descent.primitive_vectors: every height batch built
    in full and sorted by (support size, support, entries on the support
    keyed by (|v|, v < 0))."""
    def key(vec):
        support = tuple(i for i, v in enumerate(vec) if v)
        return (len(support), support,
                tuple((abs(vec[i]), vec[i] < 0) for i in support))

    out = []
    for h in range(1, height_bound + 1):
        batch = [vec for vec in itertools.product(range(-h, h + 1),
                                                  repeat=length)
                 if max(map(abs, vec)) == h
                 and math.gcd(*vec) == 1
                 and next(v for v in vec if v) > 0]
        out.extend(sorted(batch, key=key))
    return out


def plane_radical_instance():
    """planted-n5-h9-s1404310604 of the descent benchmark: route
    P5-Theorem-2.1, G of rank 5 with radical e0, a vector in the plane."""
    seed = 1404310604
    rng = random.Random(seed)
    while True:
        pt = [rng.randint(-3, 3) for _ in range(6)]
        if any(pt[3:]):
            break
    return generate_planted_instance(5, QuadraticForm.diagonal([1, 1, -3]),
                                     pt, seed=seed, coefficient_height=9)


def random_symmetric(rng, dim, height):
    g = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            c = Fraction(rng.randint(-height, height))
            g[i][j] = c
            g[j][i] = c
    return QuadraticForm(g)


def random_pencil_forms(rng, dim, height):
    """Two random non-proportional symmetric forms."""
    while True:
        F = random_symmetric(rng, dim, height)
        G = random_symmetric(rng, dim, height)
        if F.is_zero() or G.is_zero():
            continue
        flat_f = [x for r in F.gram for x in r]
        flat_g = [x for r in G.gram for x in r]
        cross = None
        prop = True
        for a, b in zip(flat_f, flat_g):
            if b == 0:
                if a != 0:
                    prop = False
                    break
            else:
                t = a / b
                if cross is None:
                    cross = t
                elif t != cross:
                    prop = False
                    break
        if not prop:
            return F, G


# ---------------------------------------------------------------------------
# conjugate-pair P^6 instances built FROM a chosen quadric T over K


def build_conjugate_weil_instance(seed=0):
    """(F0, G0, plane, planted K-point data) with a conjugate rank-4 pair
    over K = Q[t]/(t^2+1): three hyperbolic coordinate pairs plus one
    rational coordinate, built from a chosen T with rational upper 3x3
    block diag(4,4,-12) (so the conic is x0^2+x1^2-3x2^2, no rational
    points) and a planted K-point on T = 0."""
    rng = random.Random(seed)
    K = QuotientField(Poly([1, 0, 1]))
    zero, one = K.zero, K.one

    def kk(a, b=0):
        return K.reduce(Poly([a, b]))

    while True:
        T = [[zero] * 4 for _ in range(4)]
        T[0][0], T[1][1], T[2][2] = kk(4), kk(4), kk(-12)
        for i in range(3):
            e = kk(rng.randint(-3, 3), rng.randint(-3, 3))
            T[i][3] = T[3][i] = e
        w = [kk(1), kk(0, 1), kk(rng.randint(-1, 1)), one]
        quad = zero
        for i in range(3):
            for j in range(3):
                quad = K.add(quad, K.mul(K.mul(T[i][j], w[i]), w[j]))
        lin = zero
        for i in range(3):
            lin = K.add(lin, K.mul(T[i][3], w[i]))
        T[3][3] = K.neg(K.add(quad, K.mul(kk(2), lin)))

        def col(k, sgn):
            c = [zero] * 7
            c[k] = one
            c[3 + k] = kk(0, sgn)
            return c

        cols = ([col(k, 1) for k in range(3)]
                + [col(k, -1) for k in range(3)]
                + [[one if i == 6 else zero for i in range(7)]])
        B = [[cols[j][i] for j in range(7)] for i in range(7)]
        Binv = mat_inverse(B, K)
        big = [[zero] * 7 for _ in range(7)]
        for i in range(4):
            for j in range(4):
                big[3 + i][3 + j] = T[i][j]
        N1 = mat_mul(mat_mul(mat_transpose(Binv), big, K), Binv, K)
        N2 = [[K.conjugate(x) for x in row] for row in N1]
        t = Poly([0, 1])
        dli = K.inv(K.sub(K.conjugate(t), t))
        Fg, Gg = [], []
        for i in range(7):
            fr, gr = [], []
            for j in range(7):
                fe = K.mul(dli, K.sub(K.mul(K.conjugate(t), N1[i][j]),
                                      K.mul(t, N2[i][j])))
                ge = K.mul(dli, K.sub(N2[i][j], N1[i][j]))
                assert fe.degree <= 0 and ge.degree <= 0
                fr.append(fe[0] if fe.coeffs else Fraction(0))
                gr.append(ge[0] if ge.coeffs else Fraction(0))
            Fg.append(fr)
            Gg.append(gr)
        F0 = QuadraticForm(Fg)
        G0 = QuadraticForm(Gg)
        from quadpencil.forms import form_rank
        if form_rank(G0) < 6:
            continue
        plane = LinearSubspace.standard(7, (0, 1, 2))
        return F0, G0, plane, {"K": K, "T": T, "point": w}


# ---------------------------------------------------------------------------
# independent local/global oracles


def brute_conic_search(a, b, c):
    """Exhaustive primitive-point search for ax^2+by^2+cz^2 = 0 within the
    Holzer bounds, written independently of the library."""
    bx = math.isqrt(abs(b * c))
    by = math.isqrt(abs(a * c))
    bz = math.isqrt(abs(a * b))
    for x in range(bx + 1):
        for y in range(by + 1):
            for z in range(bz + 1):
                if x == y == z == 0:
                    continue
                if a * x * x + b * y * y + c * z * z == 0:
                    return (x, y, z)
    return None


def hilbert_oracle(a, b, p, depth=6):
    """Independent verdict for solvability of z^2 = a x^2 + b y^2 over Q_p
    by bounded lifting: returns True/False, or None if inconclusive.

    - definitely solvable: a primitive solution mod p^depth with a unit
      partial derivative (Hensel lifts it);
    - definitely insolvable: no primitive solution mod p^k for some k.
    """
    pk = p
    survivors = set()
    for x in range(p):
        for y in range(p):
            for z in range(p):
                if x == y == z == 0:
                    continue
                if (a * x * x + b * y * y - z * z) % p == 0:
                    survivors.add((x, y, z))
    for k in range(1, depth + 1):
        if not survivors:
            return False
        for (x, y, z) in survivors:
            grads = (2 * a * x, 2 * b * y, -2 * z)
            if any(g % p for g in grads):
                return True
        nxt = set()
        step = pk
        for (x, y, z) in survivors:
            for dx in range(p):
                for dy in range(p):
                    for dz in range(p):
                        nx, ny, nz = x + dx * step, y + dy * step, z + dz * step
                        if nx % p == 0 and ny % p == 0 and nz % p == 0:
                            continue
                        if (a * nx * nx + b * ny * ny - nz * nz) % (pk * p) == 0:
                            nxt.add((nx, ny, nz))
            if len(nxt) > 50000:
                return None
        survivors = nxt
        pk *= p
    return None


def hilbert_oracle_real(a, b):
    return not (a < 0 and b < 0)


def _content_free(coeffs):
    """Integer coefficients {(i, j): c} divided by their gcd."""
    g = math.gcd(*coeffs.values()) or 1
    return {k: c // g for k, c in coeffs.items()}


def _coeff_value(coeffs, x):
    return sum(c * x[i] * x[j] for (i, j), c in coeffs.items())


def first_empty_level(f_coeffs, g_coeffs, dim, p, max_k):
    """Least k <= max_k such that the forms with integer coefficients
    {(i, j): c} (c of x_i x_j, i <= j) have no common primitive zero mod
    p^k, or None.  Scaling a form does not change its zeros over Q_p, so
    each is first divided by its content.  Every vector mod p is tried,
    then every lift x + p^k y of each zero mod p^k, checked by direct
    evaluation."""
    f, g = _content_free(f_coeffs), _content_free(g_coeffs)
    zeros = [x for x in itertools.product(range(p), repeat=dim)
             if any(x) and _coeff_value(f, x) % p == 0
             and _coeff_value(g, x) % p == 0]
    pk = p
    for k in range(1, max_k + 1):
        if not zeros:
            return k
        if k == max_k:
            return None
        lifts = []
        for x in zeros:
            for y in itertools.product(range(p), repeat=dim):
                z = [a + pk * b for a, b in zip(x, y)]
                if (_coeff_value(f, z) % (pk * p) == 0
                        and _coeff_value(g, z) % (pk * p) == 0):
                    lifts.append(z)
        zeros = lifts
        pk *= p


# ---------------------------------------------------------------------------
# the real place: pencils with a far definite member, and a brute oracle


def _unimodular(rng, dim):
    """Integer matrix of determinant 1 (a product of elementary row
    additions with multipliers +-1) and its inverse."""
    V = [[int(i == j) for j in range(dim)] for i in range(dim)]
    W = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        V[i] = [a + c * b for a, b in zip(V[i], V[j])]
        for row in W:
            row[j] -= c * row[i]
    return V, W


def far_definite_instance(rng, n, lam0, noise=0):
    """(F0, G0, plane) whose member F0 + lam0 G0 is the positive definite
    sum of squares (x0 + a.t)^2 + (x1 + b.t)^2 + (x2 + c.t)^2 + |t|^2,
    t = (x3..xn), with G0 diagonal on the tail and G0(e3) > P(e3),
    G0(e4) < -P(e4), so the definite members lie within 1 of lam0.  With
    noise > 0, F0 gets a random tail block with entries in [-noise, noise]
    added, which may destroy every definite member.  The forms and the
    plane are hidden by a unimodular change of coordinates.
    """
    dim = n + 1
    rows = [[int(i == k) for i in range(3)]
            + [rng.randint(-2, 2) for _ in range(3, dim)] for k in range(3)]
    rows += [[int(i == k) for i in range(dim)] for k in range(3, dim)]
    P = [[sum(r[i] * r[j] for r in rows) for j in range(dim)]
         for i in range(dim)]
    g = [0] * dim
    for i in range(3, dim):
        sign = (1, -1)[i - 3] if i < 5 else rng.choice((1, -1))
        g[i] = sign * (P[i][i] + rng.randint(1, 3))
    lam0 = Fraction(lam0)
    f = [[P[i][j] - (lam0 * g[i] if i == j else 0) for j in range(dim)]
         for i in range(dim)]
    for i in range(3, dim):
        for j in range(i, dim):
            e = rng.randint(-noise, noise)
            f[i][j] += e
            f[j][i] += e * (i != j)
    V, W = _unimodular(rng, dim)

    def hide(A):
        return QuadraticForm([[sum(V[k][i] * A[k][l] * V[l][j]
                                   for k in range(dim) for l in range(dim))
                               for j in range(dim)] for i in range(dim)])

    G = [[g[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    plane = LinearSubspace.span(
        dim, [[Fraction(W[i][k]) for i in range(dim)] for k in range(3)])
    return hide(f), hide(G), plane


def sylvester_definite(gram) -> bool:
    """Definiteness by Sylvester's criterion: Gaussian elimination without
    pivoting yields the ratios of consecutive leading principal minors,
    which must be all positive or all negative."""
    A = [[Fraction(x) for x in row] for row in gram]
    n = len(A)
    signs = set()
    for k in range(n):
        piv = A[k][k]
        if piv == 0:
            return False
        signs.add(piv > 0)
        for i in range(k + 1, n):
            r = A[i][k] / piv
            for j in range(k, n):
                A[i][j] -= r * A[k][j]
    return len(signs) == 1


def brute_definite_scan(F, G, height=30, den=4):
    """First lambda = p/q, |p| <= height, 1 <= q <= den, with F + lambda G
    definite, or None."""
    for q in range(1, den + 1):
        for p in range(-height, height + 1):
            lam = Fraction(p, q)
            if sylvester_definite([[a + lam * b for a, b in zip(ra, rb)]
                                   for ra, rb in zip(F.gram, G.gram)]):
                return lam
    return None
