"""Quadratic forms as symmetric rational Gram matrices.

Convention: F(x) = x^T A x with A symmetric, so the off-diagonal entry is
half the cross coefficient.  Characteristic 0, so dividing by 2 is safe;
integrality is recovered only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    _frac,
    mat_mul,
    mat_transpose,
    matrix_rank,
    rank_and_kernel,
)


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


def _freeze(rows):
    return tuple(tuple(_frac(x) for x in row) for row in rows)


@dataclass(frozen=True)
class QuadraticForm:
    gram: tuple  # symmetric (dim x dim) tuple of tuples of Fraction

    def __post_init__(self):
        g = _freeze(self.gram)
        n = len(g)
        if n < 1:
            raise ValueError("need at least one variable")
        for row in g:
            if len(row) != n:
                raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return len(self.gram)

    @classmethod
    def from_coeffs(cls, dim, coeffs):
        """Build from {(i, j): c} with c the coefficient of x_i x_j, i <= j."""
        g = [[Fraction(0)] * dim for _ in range(dim)]
        for (i, j), c in coeffs.items():
            c = _frac(c)
            if i == j:
                g[i][i] += c
            else:
                g[i][j] += c / 2
                g[j][i] += c / 2
        return cls(g)

    @classmethod
    def diagonal(cls, entries):
        n = len(entries)
        return cls([[_frac(entries[i]) if i == j else Fraction(0)
                     for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, dim):
        return cls([[Fraction(0)] * dim for _ in range(dim)])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.gram for x in row)

    def scale(self, c) -> "QuadraticForm":
        c = _frac(c)
        return QuadraticForm([[c * x for x in row] for row in self.gram])

    def add(self, other) -> "QuadraticForm":
        if other.dim != self.dim:
            raise DimensionMismatch("forms live in different dimensions")
        return QuadraticForm([[a + b for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.gram, other.gram)])

    def evaluate(self, vec) -> Fraction:
        v = [_frac(x) for x in vec]
        if len(v) != self.dim:
            raise DimensionMismatch("vector length does not match form")
        acc = Fraction(0)
        for i, row in enumerate(self.gram):
            if v[i]:
                acc += v[i] * sum(row[j] * v[j] for j in range(self.dim))
        return acc

    def gradient(self, vec):
        v = [_frac(x) for x in vec]
        if len(v) != self.dim:
            raise DimensionMismatch("vector length does not match form")
        return [2 * sum(row[j] * v[j] for j in range(self.dim))
                for row in self.gram]

    def integer_rep(self):
        """Return the primitive integer model (scale, diag, cross): scale is
        a positive Fraction with scale * F = sum diag[i] x_i^2 +
        sum_{i<j} cross[(i,j)] x_i x_j, and the integer coefficients have
        gcd 1."""
        dens = [self.gram[i][i].denominator for i in range(self.dim)]
        dens += [(2 * self.gram[i][j]).denominator
                 for i in range(self.dim) for j in range(i + 1, self.dim)]
        den = math.lcm(*dens)
        diag = [int(self.gram[i][i] * den) for i in range(self.dim)]
        cross = {(i, j): int(2 * self.gram[i][j] * den)
                 for i in range(self.dim) for j in range(i + 1, self.dim)}
        g = math.gcd(*diag, *cross.values()) or 1
        return (Fraction(den, g), [d // g for d in diag],
                {k: c // g for k, c in cross.items()})


def integer_rep_value(diag, cross, x) -> int:
    """Value at the integer vector x of the model (diag, cross) returned by
    QuadraticForm.integer_rep()."""
    acc = 0
    for i, d in enumerate(diag):
        if x[i]:
            acc += d * x[i] * x[i]
    for (i, j), c in cross.items():
        if c and x[i] and x[j]:
            acc += c * x[i] * x[j]
    return acc


def integer_rep_gradient(diag, cross, x):
    """Gradient at the integer vector x of the model (diag, cross)."""
    g = [2 * d * v for d, v in zip(diag, x)]
    for (i, j), c in cross.items():
        g[i] += c * x[j]
        g[j] += c * x[i]
    return g


@dataclass(frozen=True)
class LinearSubspace:
    ambient_dim: int
    basis: tuple  # columns are independent vectors; stored as tuple of columns

    def __post_init__(self):
        cols = tuple(tuple(_frac(x) for x in col) for col in self.basis)
        for col in cols:
            if len(col) != self.ambient_dim:
                raise DimensionMismatch("basis vector length != ambient dim")
        if cols and matrix_rank([list(r) for r in zip(*cols)]) != len(cols):
            raise ValueError("basis columns are linearly dependent")
        object.__setattr__(self, "basis", cols)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self):
        """Basis as an (ambient_dim x dim) matrix, columns = basis vectors."""
        return [[col[i] for col in self.basis] for i in range(self.ambient_dim)]

    @classmethod
    def span(cls, ambient_dim, vectors):
        return cls(ambient_dim, tuple(tuple(v) for v in vectors))

    @classmethod
    def standard(cls, ambient_dim, indices):
        return cls(ambient_dim, tuple(
            tuple(Fraction(int(i == k)) for i in range(ambient_dim))
            for k in indices))


@dataclass(frozen=True)
class ProjectivePoint:
    coords: tuple  # primitive integer vector, first nonzero entry positive

    def __post_init__(self):
        v = [_frac(x) for x in self.coords]
        if all(x == 0 for x in v):
            raise ValueError("projective point cannot be zero")
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        first = next(x for x in ints if x != 0)
        if first < 0:
            g = -g
        object.__setattr__(self, "coords", tuple(x // g for x in ints))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)


def form_rank(F: QuadraticForm) -> int:
    return matrix_rank(self_gram(F))


def self_gram(F: QuadraticForm):
    return [list(row) for row in F.gram]


def restrict_form(F: QuadraticForm, S: LinearSubspace) -> QuadraticForm:
    if S.ambient_dim != F.dim:
        raise DimensionMismatch(
            f"subspace ambient dim {S.ambient_dim} != form dim {F.dim}")
    B = S.matrix()
    Bt = mat_transpose(B)
    return QuadraticForm(mat_mul(mat_mul(Bt, self_gram(F)), B))


def change_coordinates(F: QuadraticForm, M) -> QuadraticForm:
    M = [list(r) for r in M]
    if len(M) != F.dim or any(len(r) != F.dim for r in M):
        raise DimensionMismatch("matrix size does not match form")
    if matrix_rank([r[:] for r in M]) != F.dim:
        raise SingularMatrix("coordinate change must be invertible")
    Mt = mat_transpose(M)
    return QuadraticForm(mat_mul(mat_mul(Mt, self_gram(F)), M))


def radical_subspace(F: QuadraticForm) -> LinearSubspace:
    """Kernel of the Gram matrix, as a subspace of Q^dim."""
    _, vecs = rank_and_kernel(self_gram(F))
    return LinearSubspace.span(F.dim, vecs)


def extend_to_basis(cols, ambient_dim):
    """Complete independent columns to a basis with standard vectors.

    Deterministic: tries e_0, e_1, ... in order.  Returns the full list of
    columns (the input columns first).
    """
    chosen = [list(c) for c in cols]
    for k in range(ambient_dim):
        if len(chosen) == ambient_dim:
            break
        cand = [Fraction(int(i == k)) for i in range(ambient_dim)]
        trial = chosen + [cand]
        if matrix_rank([list(r) for r in zip(*trial)]) == len(trial):
            chosen.append(cand)
    if len(chosen) != ambient_dim:
        raise ValueError("could not complete to a basis")
    return chosen


def signature(F: QuadraticForm):
    """Exact signature (n_plus, n_minus, n_zero) via rational diagonalization."""
    diag, _ = diagonalize(F)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, F.dim - pos - neg


def diagonalize(F: QuadraticForm):
    """Congruence diagonalization over Q.

    Returns (diag, M) with M invertible and F(M y) = sum diag[i] y_i^2;
    zero entries of diag correspond to the radical.
    """
    n = F.dim
    A = [[x for x in row] for row in self_gram(F)]
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def col_op(dst, src, c):
        # column_dst += c * column_src  on both A (congruence) and M
        for i in range(n):
            A[i][dst] += c * A[i][src]
        for j in range(n):
            A[dst][j] += c * A[src][j]
        for i in range(n):
            M[i][dst] += c * M[i][src]

    def col_swap(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for c in range(n):
            A[i][c], A[j][c] = A[j][c], A[i][c]
        for r in range(n):
            M[r][i], M[r][j] = M[r][j], M[r][i]

    for k in range(n):
        if A[k][k] == 0:
            # find a usable diagonal entry or create one from a cross term
            piv = next((i for i in range(k + 1, n) if A[i][i] != 0), None)
            if piv is not None:
                col_swap(k, piv)
            else:
                pair = next(((i, j) for i in range(k, n)
                             for j in range(i + 1, n) if A[i][j] != 0), None)
                if pair is None:
                    break
                i, j = pair
                col_op(i, j, Fraction(1))
                if i != k:
                    col_swap(k, i)
        if A[k][k] == 0:
            continue
        for j in range(k + 1, n):
            if A[k][j] != 0:
                col_op(j, k, -A[k][j] / A[k][k])
    return [A[i][i] for i in range(n)], M
