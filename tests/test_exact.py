import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadpencil.exact import (
    NonInvertible,
    Poly,
    QuotientField,
    det_int,
    factor_poly,
    integer_interpolation,
    interpolate,
    is_irreducible,
    matrix_rank,
    mat_inverse,
    mat_mul,
    poly_xgcd,
    rank_and_kernel,
    rational_sqrt,
    squarefree_part,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(Poly)


class TestPoly:
    def test_degree_conventions(self):
        assert Poly([]).degree == -1
        assert Poly([0, 0]).degree == -1
        assert Poly([3]).degree == 0
        assert Poly([1, 0, 2]).degree == 2

    @given(small_polys, small_polys)
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            return
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(small_polys, small_polys)
    def test_xgcd_bezout(self, a, b):
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        if not g.is_zero():
            assert a % g == Poly([]) and b % g == Poly([])

    def test_primitive_integer(self):
        scale, q = Poly([Fraction(1, 2), Fraction(-3, 4)]).primitive_integer()
        assert q.coeffs == (Fraction(-2), Fraction(3))
        assert Poly([scale * c for c in (Fraction(1, 2), Fraction(-3, 4))]) == q


class TestFactorization:
    def test_quintic_oracle(self):
        # frozen oracle: t^5 + t + 1 = (t^2 + t + 1)(t^3 - t^2 + 1),
        # verified by multiplying out by hand
        fac = factor_poly(Poly([1, 1, 0, 0, 0, 1]))
        assert [f.coeffs for f, _ in fac.factors] == [
            (1, 1, 1), (1, 0, -1, 1)]
        assert all(e == 1 for _, e in fac.factors)

    @given(small_polys, small_polys)
    @settings(max_examples=50)
    def test_expand_round_trip(self, a, b):
        p = a * b
        if p.is_zero():
            return
        assert factor_poly(p).expand() == p

    def test_irreducibility(self):
        assert is_irreducible(Poly([1, 0, 1]))          # t^2 + 1
        assert is_irreducible(Poly([-2, 0, 1]))         # t^2 - 2
        assert not is_irreducible(Poly([-1, 0, 1]))     # (t-1)(t+1)
        assert is_irreducible(Poly([1, 1, 0, 0, 0, 0, 1]))

    def test_multiplicities(self):
        p = Poly([1, 1]) * Poly([1, 1]) * Poly([2, 0, 1])
        fac = factor_poly(p)
        assert [(f.coeffs, e) for f, e in fac.factors] == [
            ((1, 1), 2), ((2, 0, 1), 1)]


class TestQuotientField:
    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            QuotientField(Poly([-1, 0, 1]))

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=2))
    def test_inverse_in_gaussian_field(self, coeffs):
        K = QuotientField(Poly([1, 0, 1]))
        e = K.reduce(Poly(coeffs))
        if K.is_zero(e):
            with pytest.raises(NonInvertible):
                K.inv(e)
            return
        assert K.mul(e, K.inv(e)) == K.one

    def test_conjugation_involution(self):
        K = QuotientField(Poly([3, -1, 1]))  # t^2 - t + 3
        e = K.reduce(Poly([2, 5]))
        assert K.conjugate(K.conjugate(e)) == e
        # norm and trace are rational
        assert K.mul(e, K.conjugate(e)).degree <= 0
        assert K.add(e, K.conjugate(e)).degree <= 0


class TestLinearAlgebra:
    @given(st.integers(1, 4), st.integers(0, 10**6))
    def test_det_int_vs_fraction_elimination(self, n, seed):
        rng = random.Random(seed)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # oracle: cofactor expansion
        def cof(rows):
            if len(rows) == 1:
                return rows[0][0]
            return sum((-1) ** j * rows[0][j]
                       * cof([r[:j] + r[j + 1:] for r in rows[1:]])
                       for j in range(len(rows)))
        assert det_int(M) == cof(M)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
    def test_kernel_annihilates(self, nr, nc, seed):
        rng = random.Random(seed)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(nc)]
                for _ in range(nr)]
        rank, ker = rank_and_kernel([r[:] for r in rows])
        assert rank == matrix_rank([r[:] for r in rows])
        assert len(ker) == nc - rank
        for v in ker:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0

    def test_rank_over_quotient_field(self):
        K = QuotientField(Poly([1, 0, 1]))
        t = K.reduce(Poly([0, 1]))
        # rows (1, t), (t, -1): second = t * first, rank 1
        rows = [[K.one, t], [t, K.from_rational(-1)]]
        assert matrix_rank(rows, K) == 1

    def test_mat_inverse(self):
        M = [[1, 2], [3, 5]]
        Minv = mat_inverse(M)
        assert mat_mul(M, Minv) == [[1, 0], [0, 1]]

    @given(st.integers(2, 5), st.integers(0, 10**6))
    def test_interpolation_round_trip(self, npts, seed):
        rng = random.Random(seed)
        ys = [Fraction(rng.randint(-20, 20), rng.randint(1, 5))
              for _ in range(npts)]
        p = interpolate(list(range(npts)), ys)
        assert p.degree < npts
        for x, y in zip(range(npts), ys):
            assert p.evaluate(x) == y

    @pytest.mark.parametrize("k", range(2, 11))
    def test_integer_interpolation_matches_newton(self, k):
        rng = random.Random(k)
        for _ in range(5):
            ys = [rng.randint(-10**6, 10**6) for _ in range(k)]
            nums, den = integer_interpolation(ys)
            assert len(nums) == k
            assert (Poly([Fraction(c, den) for c in nums])
                    == interpolate(list(range(k)), ys))


class TestNumberHelpers:
    @given(st.fractions(min_value=0, max_value=1000, max_denominator=100))
    def test_rational_sqrt_of_square(self, x):
        assert rational_sqrt(x * x) == abs(x)

    def test_rational_sqrt_nonsquare(self):
        assert rational_sqrt(2) is None
        assert rational_sqrt(Fraction(-4)) is None
        assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)

    @given(st.integers(-10**6, 10**6).filter(lambda n: n != 0))
    def test_squarefree_part(self, n):
        q, s = squarefree_part(n)
        assert s * s * q == n
        for d in range(2, 40):
            assert q % (d * d) != 0
