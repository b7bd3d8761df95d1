import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadpencil.exact import Poly, echelon, rank_and_kernel
from quadpencil.forms import QuadraticForm, form_rank
from quadpencil.pencil import (
    CensusReport,
    IdenticallyZeroDiscriminant,
    Pencil,
    WrongDimension,
    condition_E_check,
    discriminant,
    low_rank_census,
    member_matrix,
    multiplicity_bound_check,
    pencil_det_poly,
    smoothness_test,
)

from .support import build_conjugate_weil_instance, random_pencil_forms


def _det_by_cofactor(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = Poly([])
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_by_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


class TestDetPoly:
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_against_symbolic_cofactor(self, seed, dim):
        rng = random.Random(seed)
        F, G = random_pencil_forms(rng, dim, 5)
        rows = [[Poly([F.gram[i][j], G.gram[i][j]]) for j in range(dim)]
                for i in range(dim)]
        assert pencil_det_poly(F, G) == _det_by_cofactor(rows)

    def test_proportional_rejected(self):
        F = QuadraticForm.diagonal([1, 2, 3])
        with pytest.raises(ValueError):
            Pencil(F, F.scale(Fraction(-5, 7)))

    def test_dimension_mismatch(self):
        with pytest.raises(WrongDimension):
            Pencil(QuadraticForm.diagonal([1, 1]),
                   QuadraticForm.diagonal([1, 1, 1]))


class TestDiscriminant:
    def test_identically_zero(self):
        # common kernel vector e4: both Gram matrices kill it... here F has
        # a zero last diagonal entry and G is supported on x3 only
        F = QuadraticForm.diagonal([1, 1, -3, 1, 0])
        G = QuadraticForm.from_coeffs(5, {(3, 3): 1})
        with pytest.raises(IdenticallyZeroDiscriminant):
            discriminant(Pencil(F, G))

    def test_mu_multiplicity_bookkeeping(self):
        # rank(G) = 1 in 3 variables: deg P = 1, mu-multiplicity 2
        F = QuadraticForm.diagonal([1, 1, 1])
        G = QuadraticForm.from_coeffs(3, {(2, 2): 1})
        d = discriminant(Pencil(F, G))
        assert d.P.degree == 1
        assert d.mu_multiplicity == 2
        assert d.mu_record().rank == 1

    def test_rank_records_over_extension(self):
        # P = det(diag(1,1,1) + lam*diag(1,-1,2)) = (1+lam)(1-lam)(1+2lam):
        # all roots rational, each member rank 2
        F = QuadraticForm.diagonal([1, 1, 1])
        G = QuadraticForm.diagonal([1, -1, 2])
        d = discriminant(Pencil(F, G))
        lams = sorted(r.rational_lambda() for r in d.factor_records())
        assert lams == [-1, Fraction(-1, 2), 1]
        assert all(r.rank == 2 for r in d.factor_records())

    def test_quadratic_factor_record(self):
        # hyperbolic block [[1, lam], [lam, -1]] has det -(1 + lam^2):
        # singular member defined over Q[t]/(t^2+1), rank drops by 1 there
        F = QuadraticForm([[1, 0], [0, -1]])
        G = QuadraticForm([[0, 1], [1, 0]])
        d = discriminant(Pencil(F, G))
        recs = d.factor_records()
        assert len(recs) == 1
        assert recs[0].factor.coeffs == (1, 0, 1)
        assert recs[0].rank == 1
        assert len(recs[0].radical) == 1

    @given(st.integers(0, 10**6), st.sampled_from([4, 5, 6]))
    def test_multiplicity_bound_random(self, seed, dim):
        rng = random.Random(seed)
        F, G = random_pencil_forms(rng, dim, 5)
        try:
            d = discriminant(Pencil(F, G))
        except IdenticallyZeroDiscriminant:
            return
        assert multiplicity_bound_check(d, dim - 1)


class TestAdjugateKernel:
    """Simple factors take their record from an adjugate column; the
    echelon over Q[t]/(m) is the oracle."""

    @pytest.mark.parametrize("height", [3, 9])
    @pytest.mark.parametrize("dim", range(3, 10))
    def test_simple_factors_match_echelon(self, dim, height):
        rng = random.Random(100 * dim + height)
        checked = 0
        for _ in range(2):
            F, G = random_pencil_forms(rng, dim, height)
            try:
                d = discriminant(Pencil(F, G))
            except IdenticallyZeroDiscriminant:
                continue
            for r in d.factor_records():
                if r.factor.degree < 2 or r.multiplicity != 1:
                    continue
                fld = r.fld
                N = member_matrix(F, G, fld)
                rank, ker = rank_and_kernel(N, fld)
                assert r.rank == rank == dim - 1
                # the radical is unscaled: equal to the echelon vector up to
                # a nonzero scalar, its entry in the echelon's free column
                # (where the echelon vector has 1)
                (radical,), (vec,) = r.radical, ker
                _, pivots = echelon(N, fld)
                (free,) = set(range(dim)) - set(pivots)
                scalar = radical[free]
                assert not fld.is_zero(scalar)
                assert radical == tuple(fld.mul(scalar, x) for x in vec)
                checked += 1
        assert checked >= 1

    def test_repeated_factor_keeps_echelon(self):
        # conjugate-Weil P^6: the quadratic factor has multiplicity 3 and
        # its members have rank 4, three below full
        F0, G0, _, _ = build_conjugate_weil_instance(seed=0)
        d = discriminant(Pencil(F0, G0))
        rec = [r for r in d.factor_records() if r.factor.degree == 2]
        assert len(rec) == 1 and rec[0].multiplicity == 3
        assert rec[0].rank == 4 and len(rec[0].radical) == 3


class TestCensus:
    def test_conjugate_pair_block_example(self):
        # three hyperbolic blocks give P = -(1+lam^2)^3 (up to sign) plus a
        # constant 1x1 block; the t^2+1 member has rank 4 and counts 2
        g = [[Fraction(0)] * 7 for _ in range(7)]
        for k in range(3):
            g[2 * k][2 * k] = Fraction(1)
            g[2 * k + 1][2 * k + 1] = Fraction(-1)
        g[6][6] = Fraction(1)
        F = QuadraticForm(g)
        h = [[Fraction(0)] * 7 for _ in range(7)]
        for k in range(3):
            h[2 * k][2 * k + 1] = Fraction(1)
            h[2 * k + 1][2 * k] = Fraction(1)
        G = QuadraticForm(h)
        d = discriminant(Pencil(F, G))
        rep = low_rank_census(d, 6)
        # rank(G) = 6 > 4, so the mu member is excluded; s = 2 from the pair
        assert form_rank(G) == 6
        assert [m.kind for m in rep.members] == ["conjugate-pair"]
        pair = rep.members[0]
        assert pair.rank == 4 and pair.count == 2
        assert rep.s == 2 and rep.inequality_ok

    @given(st.integers(0, 10**6), st.sampled_from([6, 7]))
    def test_inequality_for_full_rank_f(self, seed, dim_minus):
        dim = dim_minus + 1
        rng = random.Random(seed)
        while True:
            F, G = random_pencil_forms(rng, dim, 5)
            if form_rank(F) == dim:
                break
        try:
            d = discriminant(Pencil(F, G))
        except IdenticallyZeroDiscriminant:
            return
        rep = low_rank_census(d, dim - 1)
        assert isinstance(rep, CensusReport)
        assert rep.inequality_ok

    def test_s_equals_two_inequality_boundary(self):
        # at n = 7, s = 2 gives 2 * (1 - 4/8) = 1 <= 1: allowed exactly
        assert 2 * (1 - Fraction(4, 8)) <= 1
        assert not (3 * (1 - Fraction(4, 8)) <= 1)


class TestConditionE:
    def test_rational_pair(self):
        F = QuadraticForm.diagonal([1, 1, 1, 1, 1])
        G = QuadraticForm.diagonal([0, 0, 0, 1, 2])
        d = discriminant(Pencil(F, G))
        rep = condition_E_check(d)
        assert rep.holds
        assert rep.witness[0] in ("rational", "mu-rational")

    def test_quadratic_pair(self):
        g = [[Fraction(0)] * 5 for _ in range(5)]
        for k in range(3):
            g[k][k] = Fraction(1)
        g[3][3], g[4][4] = Fraction(1), Fraction(-1)
        F = QuadraticForm(g)
        h = [[Fraction(0)] * 5 for _ in range(5)]
        h[3][4] = h[4][3] = Fraction(1)
        G = QuadraticForm(h)
        d = discriminant(Pencil(F, G))
        rep = condition_E_check(d)
        assert rep.holds and rep.witness[0] == "quadratic"
        assert rep.witness[1].coeffs == (1, 0, 1)

    def test_fails_without_low_rank_pair(self):
        # only singular member has rank 3 (double root), no rank-4 pair
        F = QuadraticForm.diagonal([1, 1, 1, 1, 1])
        G = QuadraticForm.diagonal([1, 1, 0, 0, 0])
        d = discriminant(Pencil(F, G))
        assert not condition_E_check(d).holds

    def test_wrong_dimension(self):
        F = QuadraticForm.diagonal([1, 1, 1])
        G = QuadraticForm.diagonal([1, 2, 3])
        with pytest.raises(WrongDimension):
            condition_E_check(discriminant(Pencil(F, G)))


class TestSmoothness:
    def test_squarefree_is_smooth(self):
        F = QuadraticForm.diagonal([1, 1, 1, 1, 1])
        G = QuadraticForm.diagonal([0, 1, 2, 3, 4])
        assert smoothness_test(Pencil(F, G))

    def test_repeated_factor_is_singular(self):
        F = QuadraticForm.diagonal([1, 1, 1, 1, 1])
        G = QuadraticForm.diagonal([1, 1, 2, 3, 4])
        assert not smoothness_test(Pencil(F, G))

    def test_mu_multiplicity_two_is_singular(self):
        # rank(G) = 3 in 5 variables: mu-multiplicity 2
        F = QuadraticForm.diagonal([1, 1, 1, 1, 1])
        G = QuadraticForm.diagonal([0, 0, 2, 3, 4])
        assert not smoothness_test(Pencil(F, G))
