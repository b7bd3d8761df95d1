"""Exact rational arithmetic kernels.

Univariate polynomials over Q, factorization (delegated to sympy's
Zassenhaus-based routines), quotient fields Q[t]/(m), and exact linear
algebra over Q or a quotient field.  No floating point anywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import sympy


class ZeroPolynomial(ValueError):
    pass


class NonInvertible(ZeroDivisionError):
    pass


class InternalError(RuntimeError):
    """A certificate or invariant inside the library failed: a bug, never a
    verdict about the input.  Deliberately neither a ValueError nor an
    ArithmeticError, so the handlers that skip bad inputs let it through."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, sympy.Rational):
        return Fraction(int(x.p), int(x.q))
    raise TypeError(f"not an exact rational: {x!r}")


class Poly:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, i) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        lc = other.lead()
        d = other.degree
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] / lc
            q[k] = c
            for i in range(d + 1):
                r[k + i] -= c * other.coeffs[i]
        return Poly(q), Poly(r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lc = self.lead()
        return Poly([c / lc for c in self.coeffs])

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def primitive_integer(self):
        """Return (scale, q) with q = scale * self having coprime integer
        coefficients and positive leading coefficient."""
        if self.is_zero():
            return Fraction(1), self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = math.gcd(*nums)
        if nums[-1] < 0:
            g = -g
        scale = Fraction(den, g)
        return scale, Poly([Fraction(n, g) for n in nums])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*t^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


ZERO = Poly([])
ONE = Poly([1])


def poly_xgcd(a: Poly, b: Poly):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.lead()
    inv = Fraction(1) / lc
    return r0.monic(), s0 * inv, t0 * inv


@dataclass(frozen=True)
class Factorization:
    unit: Fraction
    factors: tuple  # ((Poly, multiplicity), ...) primitive integer, positive lead

    def expand(self) -> Poly:
        out = Poly([self.unit])
        for f, e in self.factors:
            for _ in range(e):
                out = out * f
        return out


_t = sympy.Symbol("t")


def factor_poly(p: Poly) -> Factorization:
    """Factor a nonzero polynomial into irreducibles over Q.

    Factors are primitive with integer coefficients and positive leading
    coefficient, ordered by (degree, coefficient tuple).
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    sp = sympy.Poly(list(reversed(p.coeffs)), _t, domain="QQ")
    coeff, raw = sp.factor_list()
    unit = _frac(coeff)
    factors = []
    for f, e in raw:
        q = Poly(list(reversed([_frac(c) for c in f.all_coeffs()])))
        scale, qn = q.primitive_integer()
        unit /= scale**e
        factors.append((qn, int(e)))
    factors.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
    return Factorization(unit, tuple(factors))


def is_irreducible(p: Poly) -> bool:
    fac = factor_poly(p)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1 \
        and fac.factors[0][0].degree == p.degree


def real_root_intervals(p: Poly):
    """Isolating intervals (a, b) of the distinct real roots of a nonzero
    p, in increasing order, with rational endpoints.

    a == b is a rational root, read off a linear factor.  Otherwise the
    root is irrational and lies strictly inside; the closed interval holds
    no rational root and no integer other than its ends.  sympy isolates
    the roots of the product Q of the nonlinear factors exactly; each
    interval is then bisected by the exact sign of Q, at an integer
    inside it or at a rational root, until neither is left.
    """
    rational, Q = [], Poly([1])
    for f, _ in factor_poly(p).factors:
        if f.degree == 1:
            rational.append(-f[0] / f[1])
        else:
            Q = Q * f
    out = [(c, c) for c in rational]
    sp = sympy.Poly(list(reversed(Q.coeffs)), _t, domain="QQ")
    for (lo, hi), _ in sp.intervals():
        a, b = _frac(lo), _frac(hi)
        if (Q.evaluate(a) > 0) == (Q.evaluate(b) > 0):
            raise InternalError(f"no sign change of {Q!r} on [{a}, {b}]")
        while True:
            inside = [c for c in rational if a < c < b]
            k = max(math.floor((a + b) / 2), math.floor(a) + 1)
            if inside:
                split = inside[0]
            elif a in rational or b in rational:
                split = (a + b) / 2
            elif k < b:
                split = Fraction(k)
            else:
                break
            if (Q.evaluate(split) > 0) == (Q.evaluate(a) > 0):
                a = split
            else:
                b = split
        out.append((a, b))
    return sorted(out)


class QuotientField:
    """The field Q[t]/(m) for a monic irreducible modulus m.

    Elements are Poly values of degree < deg m.  Implements the field
    interface consumed by the generic elimination routines.
    """

    def __init__(self, modulus: Poly, check_irreducible: bool = True):
        m = modulus.monic()
        if m.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if check_irreducible and not is_irreducible(m):
            raise ValueError(f"modulus {modulus!r} is reducible over Q")
        self.modulus = m
        self.degree = m.degree
        self.zero = ZERO
        self.one = ONE

    def reduce(self, p: Poly) -> Poly:
        return p % self.modulus

    def from_rational(self, x) -> Poly:
        return Poly([_frac(x)])

    def is_zero(self, e: Poly) -> bool:
        return e.is_zero()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return (a * b) % self.modulus

    def inv(self, e: Poly) -> Poly:
        e = self.reduce(e)
        if e.is_zero():
            raise NonInvertible("zero is not invertible in the quotient field")
        g, u, _ = poly_xgcd(e, self.modulus)
        if g.degree != 0:
            raise NonInvertible(f"{e!r} shares a factor with the modulus")
        return u % self.modulus

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def conjugate(self, e: Poly) -> Poly:
        """Galois conjugate for a quadratic modulus t^2 + B t + C."""
        if self.degree != 2:
            raise ValueError("conjugation implemented for quadratic fields only")
        B = self.modulus[1]
        # t  ->  -B - t  (the other root)
        return Poly([e[0] - B * e[1], -e[1]])

    def __eq__(self, other):
        return isinstance(other, QuotientField) and self.modulus == other.modulus

    def __repr__(self):
        return f"QuotientField({self.modulus!r})"


class _RationalField:
    """Field adapter for plain Q so the elimination code is generic."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def reduce(x):
        return _frac(x)

    @staticmethod
    def from_rational(x):
        return _frac(x)

    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        if a == 0:
            raise NonInvertible("division by zero")
        return 1 / a

    @staticmethod
    def div(a, b):
        if b == 0:
            raise NonInvertible("division by zero")
        return a / b


QQ_FIELD = _RationalField()


def _as_field(field):
    return QQ_FIELD if field is None else field


def echelon(rows, field=None):
    """Row-reduce a matrix of field elements in place (on a copy).

    Returns (reduced rows, pivot column list).  Deterministic: pivots are
    the first nonzero entry scanning rows top-down within each column.
    """
    K = _as_field(field)
    rows = [[K.reduce(x) for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not K.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        # columns left of c in the pivot row are zero (skipped or already
        # eliminated), so row operations only need the tail from c on
        inv = K.inv(rows[r][c])
        rows[r] = rows[r][:c] + [K.mul(inv, x) for x in rows[r][c:]]
        tail_r = rows[r][c:]
        for i in range(nrows):
            if i != r and not K.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = rows[i][:c] + [
                    K.sub(x, K.mul(f, y)) for x, y in zip(rows[i][c:], tail_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def matrix_rank(rows, field=None) -> int:
    if not rows:
        return 0
    _, pivots = echelon(rows, field)
    return len(pivots)


def rank_and_kernel(rows, field=None):
    """(rank, right-kernel basis) from a single elimination pass.

    Deterministic: one kernel vector per free column, with a 1 in that
    column.
    """
    K = _as_field(field)
    if not rows:
        return 0, []
    ncols = len(rows[0])
    red, pivots = echelon(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [K.zero] * ncols
        v[fc] = K.one
        for r, pc in enumerate(pivots):
            v[pc] = K.neg(red[r][fc])
        basis.append(v)
    return len(pivots), basis


def mat_mul(A, B, field=None):
    K = _as_field(field)
    n, m, p = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            acc = K.zero
            for k in range(m):
                acc = K.add(acc, K.mul(K.reduce(A[i][k]), K.reduce(B[k][j])))
            row.append(acc)
        out.append(row)
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_inverse(A, field=None):
    """Inverse of a square matrix over Q or a quotient field; raises
    NonInvertible if singular."""
    K = _as_field(field)
    n = len(A)
    aug = [list(row) + [K.one if i == j else K.zero for j in range(n)]
           for i, row in enumerate(A)]
    red, pivots = echelon(aug, field)
    if pivots != list(range(n)):
        raise NonInvertible("matrix is singular")
    return [row[n:] for row in red[:n]]


def det_int(rows) -> int:
    """Exact determinant of an integer matrix via fraction-free Bareiss."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def interpolate(xs, ys) -> Poly:
    """Newton interpolation through rational points (xs distinct)."""
    n = len(xs)
    xs = [_frac(x) for x in xs]
    coeffs = [_frac(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly = Poly([coeffs[-1]])
    for i in range(n - 2, -1, -1):
        poly = poly * Poly([-xs[i], 1]) + Poly([coeffs[i]])
    return poly


@functools.lru_cache(maxsize=None)
def inverse_vandermonde(k: int):
    """(W, den), integers, with W[i][x] / den the inverse of the Vandermonde
    matrix at the nodes x = 0..k-1: the polynomial of degree < k through
    (x, y_x) has coefficients sum_x W[i][x] * y_x / den, lowest first."""
    V = [[Fraction(x**j) for j in range(k)] for x in range(k)]
    inv = mat_inverse(V)
    den = math.lcm(*(c.denominator for row in inv for c in row))
    W = tuple(tuple(int(c * den) for c in row) for row in inv)
    return W, den


def integer_interpolation(ys):
    """(numerators, den): the polynomial through (x, ys[x]), x = 0, 1, ...,
    has coefficients numerators[i] / den, lowest first (ys integers)."""
    W, den = inverse_vandermonde(len(ys))
    return [sum(w * y for w, y in zip(row, ys)) for row in W], den


def rational_sqrt(x) -> Fraction | None:
    """Exact square root of a rational, or None if x is not a square."""
    x = _frac(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def squarefree_part(n: int) -> tuple[int, int]:
    """Write n = s^2 * q with q squarefree; returns (q, s).  n != 0."""
    if n == 0:
        raise ValueError("squarefree part of zero")
    sign = -1 if n < 0 else 1
    s = 1
    q = 1
    for p, e in sympy.factorint(abs(n)).items():
        s *= p ** (e // 2)
        if e % 2:
            q *= p
    return sign * q, s
