import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quadpencil.forms import QuadraticForm
from quadpencil.localsolve import (
    NotLocallySolvable,
    Place,
    conic_bad_places,
    conic_local_report,
    conic_rational_point,
    hilbert_symbol,
    is_square_local,
    legendre,
    modp_counts,
    padic_lift_obstruction,
    quadric_isotropy,
    reduce_ternary,
)

from .support import (
    brute_conic_search,
    first_empty_level,
    hilbert_oracle,
    hilbert_oracle_real,
    random_symmetric,
)

nonzero_small = st.integers(-30, 30).filter(lambda n: n != 0)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


class TestLegendre:
    @given(st.integers(1, 200), st.sampled_from([3, 5, 7, 11, 13, 17]))
    def test_matches_square_enumeration(self, a, p):
        squares = {x * x % p for x in range(1, p)}
        expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
        assert legendre(a, p) == expected


class TestHilbertSymbol:
    def test_frozen_values(self):
        two = Place.prime(2)
        three = Place.prime(3)
        assert hilbert_symbol(-1, -1, two) == -1
        assert hilbert_symbol(-1, -1, Place.real()) == -1
        assert hilbert_symbol(2, 3, three) == -1  # 2 is not a square mod 3
        assert hilbert_symbol(-1, 3, three) == -1
        assert hilbert_symbol(5, -1, two) == 1    # 5*1 - 2^2 = 1^2
        assert hilbert_symbol(2, 2, two) == 1     # 2*1 + 2*1 = 2^2

    @given(nonzero_small, nonzero_small, small_primes)
    @settings(max_examples=40)
    def test_against_lifting_oracle(self, a, b, p):
        verdict = hilbert_oracle(a, b, p)
        if verdict is None:
            return
        assert hilbert_symbol(a, b, Place.prime(p)) == (1 if verdict else -1)

    @given(nonzero_small, nonzero_small)
    def test_real_place(self, a, b):
        assert (hilbert_symbol(a, b, Place.real()) == 1) == \
            hilbert_oracle_real(a, b)

    @given(nonzero_small, nonzero_small, nonzero_small, small_primes)
    @settings(max_examples=40)
    def test_bimultiplicativity(self, a, b, c, p):
        v = Place.prime(p)
        assert hilbert_symbol(a * b, c, v) == \
            hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)

    @given(nonzero_small, nonzero_small)
    def test_product_formula(self, a, b):
        places = [Place.real()] + [
            Place.prime(p) for p in sorted(
                set(_primes(a)) | set(_primes(b)) | {2})]
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1

    @given(nonzero_small, small_primes)
    def test_square_argument_trivial(self, a, p):
        assert hilbert_symbol(a, 1, Place.prime(p)) == 1
        assert hilbert_symbol(a * a, -7, Place.prime(p)) == 1


def _primes(n):
    import sympy
    return sympy.primefactors(abs(n))


class TestIsSquareLocal:
    @given(nonzero_small, small_primes)
    def test_against_brute_force(self, a, p):
        # x is a square in Q_p iff x * y^2 is an integer square for some
        # small y that clears valuations -- use the symbol (x, x) trick:
        # x is a square at v iff (x, c)_v = 1 for all c; spot-check with
        # direct residue enumeration instead
        v = Place.prime(p)
        val = 0
        num = abs(a)
        while num % p == 0:
            num //= p
            val += 1
        unit = num * (1 if a > 0 else -1)
        if val % 2:
            assert not is_square_local(a, v)
        elif p == 2:
            assert is_square_local(a, v) == (unit % 8 == 1)
        else:
            assert is_square_local(a, v) == \
                (pow(unit % p, (p - 1) // 2, p) == 1)

    def test_real(self):
        assert is_square_local(Fraction(9, 4), Place.real())
        assert not is_square_local(-1, Place.real())


class TestTernaryReduction:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_transcript_identity(self, seed):
        rng = random.Random(seed)
        while True:
            F = random_symmetric(rng, 3, 8)
            try:
                t = reduce_ternary(F)
                break
            except ValueError:
                continue
        # squarefree pairwise-coprime coefficients
        for x in (t.a, t.b, t.c):
            assert x != 0
            for d in range(2, 20):
                assert x % (d * d) != 0
        assert math.gcd(t.a, t.b) == math.gcd(t.a, t.c) == \
            math.gcd(t.b, t.c) == 1
        # original(transform @ y) = scale * diag(y) for random y
        y = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        x = [sum(Fraction(t.transform[i][j]) * y[j] for j in range(3))
             for i in range(3)]
        diag_val = t.a * y[0] ** 2 + t.b * y[1] ** 2 + t.c * y[2] ** 2
        assert F.evaluate(x) == t.scale * diag_val

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            reduce_ternary(QuadraticForm.diagonal([1, -1, 0]))


class TestConicVerdicts:
    def test_one_one_minus_three(self):
        # x^2 + y^2 - 3 z^2: insolvable exactly at 2 and 3
        t = reduce_ternary(QuadraticForm.diagonal([1, 1, -3]))
        rep = conic_local_report(t)
        assert not rep.globally_solvable
        assert rep.failing_places() == ("2", "3")
        with pytest.raises(NotLocallySolvable):
            conic_rational_point(t, rep)

    def test_bad_places_include_two_and_divisors(self):
        t = reduce_ternary(QuadraticForm.diagonal([1, 5, -21]))
        labels = [v.label() for v in conic_bad_places(t)]
        assert labels == ["oo", "2", "3", "5", "7"]

    @given(st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_verdict_matches_brute_search(self, seed):
        rng = random.Random(seed)
        a = rng.choice([1, 2, 3, 5, -1, -2, -3, -5])
        b = rng.choice([1, 2, 3, 5, 7, -1, -2, -3, -5, -7])
        c = rng.choice([-1, -2, -3, -5, -6, -7, 1, 2])
        F = QuadraticForm.diagonal([a, b, c])
        try:
            t = reduce_ternary(F)
        except ValueError:
            return
        found = brute_conic_search(t.a, t.b, t.c)
        rep = conic_local_report(t)
        if rep.globally_solvable:
            # Legendre: locally solvable everywhere => a point within the
            # Holzer bounds exists
            assert found is not None
            pt, sol = conic_rational_point(t, rep)
            assert t.original.evaluate(pt.coords) == 0
        else:
            assert found is None

    def test_large_box_conic_solved(self):
        # x^2 - y^2 + p z^2 is solvable everywhere ((1,1,0) is a point);
        # its Holzer box is ~sqrt(p) wide, and descent needs no box
        t = reduce_ternary(QuadraticForm.diagonal([1, -1, 999983]))
        rep = conic_local_report(t)
        assert rep.globally_solvable
        pt, sol = conic_rational_point(t, rep)
        assert t.a * sol[0] ** 2 + t.b * sol[1] ** 2 + t.c * sol[2] ** 2 == 0
        assert t.original.evaluate(pt.coords) == 0


# (signs of a, b, c), up to an overall sign: the three ways to split them
SIGN_PATTERNS = [(1, 1, -1), (1, -1, 1), (-1, 1, 1)]


def _solvable_conic(rng, height, signs, c_unit):
    """First seeded a x^2 + b y^2 + c z^2 with |a|, |b| primes near height
    and |c| a prime near height (or 1 when c_unit) that is solvable."""
    while True:
        mags = [sympy.nextprime(rng.randint(height // 2, height))
                for _ in range(3)]
        if c_unit:
            mags[2] = 1
        if len(set(mags)) < 3:
            continue
        coeffs = [s * m for s, m in zip(signs, mags)]
        t = reduce_ternary(QuadraticForm.diagonal(coeffs))
        if (t.a, t.b, t.c) == tuple(coeffs) and \
                conic_local_report(t).globally_solvable:
            return t


class TestLegendreDescent:
    @pytest.mark.parametrize("height", [10**3, 10**6, 10**12])
    @pytest.mark.parametrize("signs", SIGN_PATTERNS)
    @pytest.mark.parametrize("c_unit", [False, True])
    def test_seeded_conics(self, height, signs, c_unit):
        rng = random.Random(f"{height} {signs} {c_unit}")
        t = _solvable_conic(rng, height, signs, c_unit)
        pt, sol = conic_rational_point(t, conic_local_report(t))
        assert any(sol) and math.gcd(*sol) == 1
        assert t.a * sol[0] ** 2 + t.b * sol[1] ** 2 + t.c * sol[2] ** 2 == 0
        assert t.original.evaluate(pt.coords) == 0


class TestQuadricIsotropy:
    def test_rank_five_always_isotropic_padically(self):
        F = QuadraticForm.diagonal([1, 2, 3, 4, 5])
        for p in (2, 3, 5, 7):
            assert quadric_isotropy(F, Place.prime(p))
        assert not quadric_isotropy(F, Place.real())

    def test_binary(self):
        # x^2 - 2 y^2 isotropic at v iff 2 is a square there
        F = QuadraticForm.diagonal([1, -2])
        assert quadric_isotropy(F, Place.real())
        assert quadric_isotropy(F, Place.prime(7))   # 3^2 = 2 mod 7
        assert not quadric_isotropy(F, Place.prime(3))
        assert not quadric_isotropy(F, Place.prime(2))

    @given(st.lists(nonzero_small, min_size=3, max_size=4), small_primes)
    @settings(max_examples=40)
    def test_against_lifting_search(self, diag, p):
        F = QuadraticForm.diagonal(diag)
        # duplicate F in both slots: the lifting then certifies emptiness of
        # the single quadric F = 0 over Q_p
        depth = padic_lift_obstruction(F, F, p, max_depth=4,
                                       class_budget=5000)
        # depth is not None => certified no Q_p zero => isotropy must be False
        if depth is not None:
            assert not quadric_isotropy(F, Place.prime(p))

    def test_degenerate_is_isotropic(self):
        assert quadric_isotropy(QuadraticForm.diagonal([1, 1, 0]),
                                Place.real())


class TestModpCounts:
    def test_known_conic_counts(self):
        # {x^2+y^2+z^2 = 0 = xw} in P^3 mod 3: the conic x^2+y^2+z^2 mod 3
        # has q+1 = 4 points (all with x != 0, so xw = 0 forces w = 0) and
        # the stacked Jacobian has rank 2 at each
        F = QuadraticForm.from_coeffs(4, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        G = QuadraticForm.from_coeffs(4, {(0, 3): 1})
        # one extra singular point (0:0:0:1) where both gradients degenerate
        total, smooth, sample = modp_counts(F, G, 3)
        assert (total, smooth) == (5, 4)
        assert sample is not None

    def test_smooth_less_than_total_with_bad_reduction(self):
        # mod 3, F = 3x^2 + ... has every gradient ... just check totals add up
        F = QuadraticForm.diagonal([1, 1, -3, 1, 1])
        G = QuadraticForm.diagonal([0, 0, 0, 1, 1])
        total, smooth, _ = modp_counts(F, G, 3)
        assert smooth == 0
        assert total > 0  # singular points exist but none are smooth


def _odd_cross_coeffs(rng, dim):
    """Integer coefficients {(i, j): c}: diagonal in [-3, 3], every cross
    coefficient odd."""
    return {(i, j): rng.randint(-3, 3) if i == j
            else rng.choice((-3, -1, 1, 3))
            for i in range(dim) for j in range(i, dim)}


class TestIntegerModel:
    """modp_counts and padic_lift_obstruction read one primitive integer
    model, so the content of a form changes nothing."""

    @pytest.mark.parametrize("seed", range(6))
    def test_modp_counts_ignore_content(self, seed):
        rng = random.Random(seed)
        F = QuadraticForm.from_coeffs(5, _odd_cross_coeffs(rng, 5))
        G = QuadraticForm.from_coeffs(5, _odd_cross_coeffs(rng, 5))
        assert modp_counts(F.scale(3), G, 3) == modp_counts(F, G, 3)
        assert modp_counts(F, G.scale(2), 2) == modp_counts(F, G, 2)

    def test_modp_counts_skip_denominator(self):
        F = QuadraticForm.diagonal([1, 1, -3, 1, 1])
        G = QuadraticForm.diagonal([0, 0, 0, 1, 1])
        with pytest.raises(ValueError):
            modp_counts(F.scale(Fraction(1, 3)), G, 3)

    # (dim, p, deepest level): p^k-enumeration stays small
    @pytest.mark.parametrize("dim,p,max_k",
                             [(3, 2, 4), (3, 3, 4), (4, 2, 4), (4, 3, 3)])
    def test_depth_matches_brute_enumeration(self, dim, p, max_k):
        rng = random.Random(f"{dim} {p}")
        depths = []
        for _ in range(30):
            f, g = _odd_cross_coeffs(rng, dim), _odd_cross_coeffs(rng, dim)
            depth = padic_lift_obstruction(
                QuadraticForm.from_coeffs(dim, f),
                QuadraticForm.from_coeffs(dim, g), p,
                max_depth=max_k, class_budget=10**6)
            assert depth == first_empty_level(f, g, dim, p, max_k), (f, g)
            depths.append(depth)
        assert any(d is not None for d in depths)

    def test_roadmap_two_adic_example(self):
        # the conic fails at 2 and 5; X has no primitive solution mod 2^4,
        # though it has some mod 2^3
        F = QuadraticForm([[20, 0, 0, -2, 2], [0, 28, 0, -6, 2],
                           [0, 0, -34, 5, -5], [-2, -6, 5, 10, -1],
                           [2, 2, -5, -1, 10]])
        G = QuadraticForm([[0, 0, 0, 3, 8], [0, 0, 0, 4, -4],
                           [0, 0, 0, 7, -2], [3, 4, 7, -14, 9],
                           [8, -4, -2, 9, 12]])
        assert padic_lift_obstruction(F, G, 2) == 4


class TestPadicLifting:
    def test_certified_empty_example(self):
        # G = 0 over Q_3 forces x3 = x4 = 0 (as -1 is not a square mod 3),
        # then x0^2 + x1^2 = 3 x2^2 is 3-adically insolvable
        F = QuadraticForm.diagonal([1, 1, -3, 1, 1])
        G = QuadraticForm.diagonal([0, 0, 0, 1, 1])
        depth = padic_lift_obstruction(F, G, 3)
        assert depth is not None and depth >= 2

    def test_solvable_instance_is_inconclusive(self):
        # (1 : 1 : ... ) with x0^2 = x1^2 etc: plant an obvious zero
        F = QuadraticForm.diagonal([1, -1, 1, -1])
        G = QuadraticForm.from_coeffs(4, {(0, 1): 1, (2, 3): -1})
        assert padic_lift_obstruction(F, G, 3, max_depth=3) is None

    @given(small_primes, st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_never_certifies_when_point_exists(self, p, seed):
        rng = random.Random(seed)
        # forms vanishing at e0 by construction
        g = [[Fraction(rng.randint(-4, 4)) for _ in range(4)]
             for _ in range(4)]
        for i in range(4):
            for j in range(i):
                g[i][j] = g[j][i]
        g[0][0] = Fraction(0)
        h = [[Fraction(rng.randint(-4, 4)) for _ in range(4)]
             for _ in range(4)]
        for i in range(4):
            for j in range(i):
                h[i][j] = h[j][i]
        h[0][0] = Fraction(0)
        # kill the linear terms in x0 so that e0 is actually on both
        for j in range(1, 4):
            g[0][j] = g[j][0] = Fraction(0)
            h[0][j] = h[j][0] = Fraction(0)
        F = QuadraticForm(g)
        G = QuadraticForm(h)
        if F.is_zero() or G.is_zero():
            return
        assert padic_lift_obstruction(F, G, p, max_depth=3,
                                      class_budget=3000) is None
