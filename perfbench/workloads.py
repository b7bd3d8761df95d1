"""Seeded instance generators for the benchmark workloads.

A workload's pool is a list of rounds, each a fixed mix of ``Instance``
records built only from the seed.  The prover sees the generated
``(F, G, plane)`` and nothing else; ``label`` and ``family`` stay on the
benchmark side, where the verdict check uses them.

Workloads (why each one is in the benchmark):

- ``descent``: planted P^5..P^8 instances (coefficient height 9, point
  coordinates in [-3, 3]) plus conjugate-pair P^6 instances.  Hyperplane
  descent, the discriminant and the Weil split dominate.
- ``fibers``: planted P^4 instances at coefficient heights 20 (seven in
  eight) and 100 with point coordinates in [-15, 15], so the height-3 quick
  search misses and the conic-bundle fibers and conic solving decide the
  verdict.  Most height-100 instances exhaust: their fiber conics exceed
  the Holzer search-volume cap.
- ``obstruction``: instances with X(Q_3) empty by construction (3-adic
  family) and a minority with a positive definite member (real family).
  Exercises mod-p counting and p-adic lifting.  When the definite member
  lies outside the prover's lambda scan, it walks the full direct search
  and reports "exhausted": the only workload that times that walk.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from quadpencil import (
    LinearSubspace,
    QuadraticForm,
    form_rank,
    generate_planted_instance,
)

CONIC = QuadraticForm.diagonal([1, 1, -3])


@dataclass(frozen=True)
class Instance:
    label: str
    family: str          # 'planted' (X has a rational point) or 'obstructed'
    F: QuadraticForm
    G: QuadraticForm
    plane: LinearSubspace


# ---------------------------------------------------------------------------
# descent and fibers: planted instances


def _planted_point(rng, dim, lo, hi):
    while True:
        pt = [rng.randint(lo, hi) for _ in range(dim)]
        if any(pt[3:]):
            return pt


def planted(rng, n, height, coord):
    seed = rng.randrange(2**31)
    pt = _planted_point(random.Random(seed), n + 1, -coord, coord)
    F, G, plane = generate_planted_instance(
        n, CONIC, pt, seed=seed, coefficient_height=height)
    return Instance(f"planted-n{n}-h{height}-s{seed}", "planted", F, G, plane)


# Gaussian rationals a + b*i as (Fraction, Fraction) pairs; K = Q(i).

def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


_G0 = (Fraction(0), Fraction(0))


def conjugate_weil(rng):
    """Conjugate rank-4 pair P^6 instance over K = Q(i).

    Pick a quadric T in four variables over K with upper 3x3 block
    diag(4, 4, -12) and a K-point w = (1, i, r, 1) on it.  With
    z_k = (x_k + i x_{3+k}) / 2 for k < 3 and z_3 = x_6, the form
    T(z) = F0(x) + i G0(x) has rational F0, G0 whose pencil has the
    conjugate rank-4 members T and its conjugate.  On the plane
    x3 = ... = x6 = 0 it restricts to x0^2 + x1^2 - 3 x2^2.
    """
    seed = rng.randrange(2**31)
    r = random.Random(seed)
    while True:
        T = [[_G0] * 4 for _ in range(4)]
        for k, d in enumerate((4, 4, -12)):
            T[k][k] = (Fraction(d), Fraction(0))
        for k in range(3):
            e = (Fraction(r.randint(-3, 3)), Fraction(r.randint(-3, 3)))
            T[k][3] = T[3][k] = e
        w = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
             (Fraction(r.randint(-1, 1)), Fraction(0)),
             (Fraction(1), Fraction(0))]
        acc = _G0
        for a in range(3):
            for b in range(3):
                acc = _gadd(acc, _gmul(_gmul(T[a][b], w[a]), w[b]))
        for a in range(3):
            acc = _gadd(acc, _gmul((Fraction(2), Fraction(0)),
                                   _gmul(T[a][3], w[a])))
        T[3][3] = (-acc[0], -acc[1])
        # C: 4 x 7 matrix with z = C x
        half = Fraction(1, 2)
        C = [[_G0] * 7 for _ in range(4)]
        for k in range(3):
            C[k][k] = (half, Fraction(0))
            C[k][3 + k] = (Fraction(0), half)
        C[3][6] = (Fraction(1), Fraction(0))
        A = [[_G0] * 7 for _ in range(7)]
        for i in range(7):
            for j in range(7):
                s = _G0
                for a in range(4):
                    if C[a][i] == _G0:
                        continue
                    for b in range(4):
                        if C[b][j] != _G0:
                            s = _gadd(s, _gmul(_gmul(C[a][i], T[a][b]),
                                               C[b][j]))
                A[i][j] = s
        F = QuadraticForm([[x[0] for x in row] for row in A])
        G = QuadraticForm([[x[1] for x in row] for row in A])
        if form_rank(G) < 6:
            continue
        plane = LinearSubspace.standard(7, (0, 1, 2))
        return Instance(f"weil-s{seed}", "planted", F, G, plane)


# ---------------------------------------------------------------------------
# obstruction: X(Q_3) empty, or a positive definite member


UNITS_MOD3 = (1, -1, 2, -2, 4, -4, 5, -5, 7, -7)


@dataclass(frozen=True)
class ObstructedConstruction:
    """A structured pencil and the unimodular change V that hides it:
    emitted forms are V^T F V and V^T G V, the emitted plane is V^{-1}
    applied to e0, e1, e2."""
    F: QuadraticForm
    G: QuadraticForm
    V: tuple
    V_inv: tuple
    tail_diagonal: tuple   # the diagonal of G on x3.. (3-adic family)


def _mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def _transpose(A):
    return [list(r) for r in zip(*A)]


def _unimodular(rng, dim):
    """Random integer matrix of determinant 1 and its inverse, as a product
    of 2 dim elementary row additions with multipliers +-1, which keeps the
    emitted coefficients small."""
    V = [[int(i == j) for j in range(dim)] for i in range(dim)]
    W = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        # V <- E V with E = I + c e_i e_j^T; W <- W E^{-1}
        V[i] = [a + c * b for a, b in zip(V[i], V[j])]
        for row in W:
            row[j] -= c * row[i]
    return V, W


def padic_construction(rng, n):
    """F = x0^2 + x1^2 - 3 x2^2 + sum_{i>=3} x_i L_i(x) and G on the tail,
    G = u(y0^2 + y1^2) + 3v(y2^2 + y3^2) truncated to the tail length, with
    3 not dividing uv.  G = 0 forces the tail to vanish over Q_3 and the
    conic is Q_3-anisotropic, so X(Q_3) is empty."""
    dim = n + 1
    if not 4 <= n <= 6:
        raise ValueError("3-adic family needs a tail of 2 to 4 variables")
    fg = [[Fraction(0)] * dim for _ in range(dim)]
    for k, d in enumerate((1, 1, -3)):
        fg[k][k] = Fraction(d)
    for i in range(3, dim):
        L = [rng.randint(-4, 4) for _ in range(dim)]
        for j in range(dim):
            fg[i][j] += Fraction(L[j], 2)
            fg[j][i] += Fraction(L[j], 2)
    u, v = rng.choice(UNITS_MOD3), rng.choice(UNITS_MOD3)
    tail = (u, u, 3 * v, 3 * v)[:dim - 3]
    G = QuadraticForm.diagonal([0, 0, 0] + list(tail))
    V, W = _unimodular(rng, dim)
    return ObstructedConstruction(QuadraticForm(fg), G, tuple(map(tuple, V)),
                                  tuple(map(tuple, W)), tail)


def definite_construction(rng, n, lam0=0):
    """A pencil whose member F + lam0 G is the positive definite form
    P = (x0 + a.t)^2 + (x1 + b.t)^2 + (x2 + c.t)^2 + |t|^2, t = (x3..xn),
    so X(R) is empty.  The conic x0^2 + x1^2 + x2^2 is isotropic over Q_3,
    so only the real place obstructs.

    With lam0 = 0, G is a random form on the tail.  Otherwise G is diagonal
    on the tail with G(e3) > P(e3) and G(e4) < -P(e4), so F + lam G is
    indefinite whenever |lam - lam0| >= 1: the definite members lie outside
    a small scan of lam around 0."""
    dim = n + 1
    rows = []
    for k in range(3):
        rows.append([int(i == k) for i in range(3)]
                    + [rng.randint(-2, 2) for _ in range(3, dim)])
    rows += [[int(i == k) for i in range(dim)] for k in range(3, dim)]
    P = [[sum(r[i] * r[j] for r in rows)
          for j in range(dim)] for i in range(dim)]
    gg = [[0] * dim for _ in range(dim)]
    if lam0 == 0:
        while all(x == 0 for row in gg for x in row):
            for i in range(3, dim):
                for j in range(i, dim):
                    gg[i][j] = gg[j][i] = rng.randint(-5, 5)
    else:
        # entries prime to 3 keep X smooth mod 3, so the prover never
        # tries (and never certifies) a 3-adic obstruction here
        for i in range(3, dim):
            sign = (1, -1)[i - 3] if i < 5 else rng.choice((1, -1))
            k = rng.choice([k for k in (1, 2, 3) if (P[i][i] + k) % 3])
            gg[i][i] = sign * (P[i][i] + k)
    fg = [[Fraction(P[i][j] - lam0 * gg[i][j]) for j in range(dim)]
          for i in range(dim)]
    V, W = _unimodular(rng, dim)
    return ObstructedConstruction(QuadraticForm(fg), QuadraticForm(gg),
                                  tuple(map(tuple, V)), tuple(map(tuple, W)),
                                  ())


def emit(c: ObstructedConstruction, label):
    V = [list(r) for r in c.V]
    Vt = _transpose(V)
    F = QuadraticForm(_mat_mul(_mat_mul(Vt, c.F.gram), V))
    G = QuadraticForm(_mat_mul(_mat_mul(Vt, c.G.gram), V))
    dim = len(V)
    plane = LinearSubspace.span(
        dim, [[c.V_inv[i][k] for i in range(dim)] for k in range(3)])
    return Instance(label, "obstructed", F, G, plane)


FAR_DEFINITE_LAMBDA = 9


def obstructed(rng, n, kind):
    seed = rng.randrange(2**31)
    r = random.Random(seed)
    if kind == "padic":
        c = padic_construction(r, n)
    elif kind == "definite":
        c = definite_construction(r, n)
    else:
        c = definite_construction(r, n, lam0=FAR_DEFINITE_LAMBDA)
    return emit(c, f"{kind}-n{n}-s{seed}")


# ---------------------------------------------------------------------------
# workload recipes: one round is a fixed mix, the seed picks the instances


def _descent_round(rng):
    return ([planted(rng, n, 9, 3) for n in (5, 6, 7, 7, 7, 7, 8)]
            + [conjugate_weil(rng)])


def _fibers_round(rng):
    return [planted(rng, 4, h, 15) for h in (20,) * 7 + (100,)]


def _obstruction_round(rng):
    return [obstructed(rng, 4, "padic"), obstructed(rng, 4, "padic"),
            obstructed(rng, 5, "padic"), obstructed(rng, 5, "padic"),
            obstructed(rng, 5, "definite"), obstructed(rng, 5, "definite"),
            obstructed(rng, 5, "far-definite")]


@dataclass(frozen=True)
class Workload:
    round_fn: object
    rounds: int       # pool size, about 40 s of work at the first commit
    tail: float       # the tail percentile reported for solve time


# The mixes put each reported quantile inside one instance class, away
# from the boundary between a cheap and an expensive class, so that it
# does not jump with the seed: on descent the median and p75 fall among
# the n=7 instances; on fibers the median among
# solved instances and p90 among exhausted ones; on obstruction the median
# among the cheap certificates and p90 among the exhausted walks.
WORKLOADS = {
    "descent": Workload(_descent_round, 8, 0.75),
    "fibers": Workload(_fibers_round, 18, 0.9),
    "obstruction": Workload(_obstruction_round, 28, 0.9),
}


def rounds(workload, seed):
    """The workload's pool, one round at a time, built from the seed."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    for _ in range(w.rounds):
        yield w.round_fn(rng)


# ---------------------------------------------------------------------------
# fingerprint


def _rat(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def instance_json(inst: Instance):
    return {"F": [[_rat(x) for x in row] for row in inst.F.gram],
            "G": [[_rat(x) for x in row] for row in inst.G.gram],
            "plane": [[_rat(x) for x in col] for col in inst.plane.basis]}


def fingerprint(pool):
    """sha256 of the canonical JSON of every (F, G, plane), in order."""
    text = json.dumps([instance_json(i) for rnd in pool for i in rnd],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
