import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import quadpencil.descent as descent
from quadpencil.exact import Poly, QuotientField, real_root_intervals
from quadpencil.forms import (
    LinearSubspace,
    ProjectivePoint,
    QuadraticForm,
    restrict_form,
)
from quadpencil.localsolve import conic_local_report, reduce_ternary
from quadpencil.normalize import (
    hypothesis_report,
    normalize_pencil,
    verify_conic_plane,
)
from quadpencil.pencil import pencil_det_poly
from quadpencil.descent import (
    DegenerateFiber,
    HyperplaneCandidate,
    PointNotOnX,
    definite_member,
    direct_point_search,
    enumerate_hyperplanes,
    enumerate_p1,
    field_sqrt,
    find_rational_point,
    generate_planted_instance,
    primitive_vectors,
    real_sample_points,
    replay_obstruction,
    replay_trace,
    residual_conic_fiber,
    restricted_discriminant,
    transversality_check,
    v0_membership,
    weil_point_transfer,
    weil_quadric_point,
    weil_reconstruct,
    weil_restriction_split,
)

from .support import (
    brute_definite_scan,
    build_conjugate_weil_instance,
    eager_primitive_vectors,
    far_definite_instance,
    plane_radical_instance,
    sylvester_definite,
)

CONIC = QuadraticForm.diagonal([1, 1, -3])


class TestEnumeration:
    def test_prefix_order(self):
        got = [v for _, v in zip(range(6), primitive_vectors(3, 3))]
        assert got == [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                       (1, 1, 0), (1, -1, 0), (1, 0, 1)]

    def test_height_one_counts(self):
        # sign-canonical primitive vectors of height 1: (3^k - 1)/2
        assert sum(1 for v in primitive_vectors(3, 1)) == 13
        assert sum(1 for v in primitive_vectors(4, 1)) == 40

    def test_no_duplicates_and_primitive(self):
        seen = set()
        for v in primitive_vectors(3, 3):
            assert v not in seen
            seen.add(v)
            assert math.gcd(*(abs(x) for x in v)) == 1
            assert next(x for x in v if x) > 0
            # no rescaled duplicates either
            assert tuple(-x for x in v) not in seen

    @pytest.mark.parametrize("length, bound", [
        (1, 6), (2, 8), (3, 5), (4, 3), (5, 2), (6, 2), (7, 1)])
    def test_order_matches_eager_oracle(self, length, bound):
        assert (list(primitive_vectors(length, bound))
                == eager_primitive_vectors(length, bound))

    def test_first_vectors_are_lazy(self):
        # an eager enumerator would build all 3^14 height-1 tuples first
        start = time.perf_counter()
        first = list(itertools.islice(primitive_vectors(14, 50), 100))
        assert time.perf_counter() - start < 1
        assert first[:2] == [(1,) + (0,) * 13, (0, 1) + (0,) * 12]
        assert len(first) == 100

    def test_heights_nondecreasing(self):
        hs = [max(abs(x) for x in v) for v in primitive_vectors(2, 4)]
        assert hs == sorted(hs)

    def test_hyperplanes_contain_plane(self):
        H = next(enumerate_hyperplanes(5, 1))
        S = H.cone_basis(6)
        # e0, e1, e2 are in the cone basis
        M = S.matrix()
        for k in range(3):
            col = [M[i][k] for i in range(6)]
            assert col == [Fraction(int(i == k)) for i in range(6)]
        assert S.dim == 5

    def test_dimension_guard(self):
        H = HyperplaneCandidate(alphas=(1, 0))
        with pytest.raises(ValueError):
            H.linear_form(7)


def _planted(n, seed, coord=3, **kw):
    dim = n + 1
    rng = random.Random(seed)
    while True:
        pt = [rng.randint(-coord, coord) for _ in range(dim)]
        if any(pt[3:]):
            break
    return generate_planted_instance(n, CONIC, pt, seed=seed, **kw), pt


class TestV0Membership:
    def test_certificate_shape(self):
        (F0, G0, plane), _ = _planted(5, 3)
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        rep = hypothesis_report(sys)
        accepted = rejected = 0
        for H in enumerate_hyperplanes(5, 2):
            cert = v0_membership(sys, rep.disc, H)
            if cert.accepted:
                accepted += 1
                assert cert.rank_f_restricted == 5
                assert cert.rank_g_restricted >= 3
                assert cert.radical_hits == ()
                assert cert.rejected_clause is None
            else:
                rejected += 1
                assert cert.rejected_clause in (
                    "non-tangency", "singular-point-avoidance",
                    "restricted-G-rank")
            if accepted >= 3 and rejected >= 0:
                break
        assert accepted >= 1

    def test_radical_vector_on_plane_is_skipped(self):
        # G has rank 5 and radical e0, which lies on every hyperplane
        # through the plane; checking it would reject every H
        F0, G0, plane = plane_radical_instance()
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        rep = hypothesis_report(sys)
        mu = rep.disc.mu_record()
        assert mu.rank == 5
        assert mu.radical == ((1, 0, 0, 0, 0, 0),)
        for H in itertools.islice(enumerate_hyperplanes(5, 50), 24):
            cert = v0_membership(sys, rep.disc, H)
            assert cert.accepted, cert.rejected_clause


class TestTransversality:
    F = QuadraticForm.from_coeffs(6, {(0, 0): 1, (1, 1): -1})
    G = QuadraticForm.from_coeffs(6, {(2, 2): 1, (3, 3): -1})

    def test_transversal(self):
        P = ProjectivePoint((1, 1, 1, 1, 0, 0))
        H = HyperplaneCandidate(alphas=(1, 0, 0))
        assert transversality_check(self.F, self.G, H, P)

    def test_degenerate_gradient(self):
        # G's gradient vanishes at this point: rank cannot reach 3
        P = ProjectivePoint((1, 1, 0, 0, 1, 0))
        H = HyperplaneCandidate(alphas=(1, 0, 0))
        assert not transversality_check(self.F, self.G, H, P)

    def test_off_x_rejected(self):
        P = ProjectivePoint((1, 0, 0, 0, 0, 0))
        H = HyperplaneCandidate(alphas=(1, 0, 0))
        with pytest.raises(PointNotOnX):
            transversality_check(self.F, self.G, H, P)


class TestResidualFiber:
    def test_worked_example(self):
        # F = x0^2 + x1^2 - x2^2 + x3^2, G = x0 x3 in P^4
        F = QuadraticForm.from_coeffs(
            5, {(0, 0): 1, (1, 1): 1, (2, 2): -1, (3, 3): 1})
        G = QuadraticForm.from_coeffs(5, {(0, 3): 1})
        fiber = residual_conic_fiber((F, G), (0, 1))
        # M_G proportional to x0; residual conic x1^2 - x2^2 + x3^2
        diag = [fiber.residual_form.gram[i][i] for i in range(3)]
        assert sorted(diag) == [-1, 1, 1]
        assert fiber.residual_form.gram[0][1] == 0
        with pytest.raises(DegenerateFiber):
            residual_conic_fiber((F, G), (1, 0))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_fiber_soundness(self, seed):
        # every point of the embedded fiber plane satisfies G = 0 and F
        # pulls back to the residual form
        rng = random.Random(seed)
        (F0, G0, plane), _ = _planted(4, rng.randint(0, 10**6))
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        for t in enumerate_p1(2):
            try:
                fiber = residual_conic_fiber(sys, t)
            except DegenerateFiber:
                continue
            y = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
            M = fiber.embedding.matrix()
            x = [sum(M[i][j] * y[j] for j in range(3)) for i in range(5)]
            assert sys.G.evaluate(x) == 0
            assert sys.F.evaluate(x) == fiber.residual_form.evaluate(y)
            break


class TestRestrictedDiscriminant:
    def test_quintic_gate_flag(self):
        (F0, G0, plane), _ = _planted(5, 5)
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        rep = hypothesis_report(sys)
        for H in enumerate_hyperplanes(5, 2):
            cert = v0_membership(sys, rep.disc, H)
            if not cert.accepted:
                continue
            child_rep, irq = restricted_discriminant(cert.child)
            assert irq in (True, False)
            # the restricted pencil lives in 5 variables
            assert child_rep.disc.dim == 5
            break


class TestFieldSqrt:
    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_sqrt_of_square(self, a, b, seed):
        rng = random.Random(seed)
        mods = [Poly([1, 0, 1]), Poly([-2, 0, 1]), Poly([3, -1, 1])]
        fld = QuotientField(mods[seed % 3])
        z = fld.reduce(Poly([a, b]))
        alpha = fld.mul(z, z)
        r = field_sqrt(alpha, fld)
        assert r is not None
        assert fld.reduce(r * r) == alpha

    def test_nonsquare(self):
        fld = QuotientField(Poly([1, 0, 1]))  # Q(i)
        # 2 + 0i: norm 4 is a square but 2 is not a square in Q(i)
        assert field_sqrt(Poly([2]), fld) is None
        # -1 = i^2 is a square
        r = field_sqrt(Poly([-1]), fld)
        assert r is not None and fld.reduce(r * r) == fld.from_rational(-1)


class TestWeilSplit:
    def test_split_inverts_construction(self):
        F0, G0, plane, data = build_conjugate_weil_instance(seed=2)
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        rep = hypothesis_report(sys)
        assert rep.route == "s2-conjugate-weil"
        w = weil_restriction_split(sys, rep.census)
        F1, G1 = weil_reconstruct(w)
        assert F1.gram == sys.F.gram
        assert G1.gram == sys.G.gram

    def test_point_transfer_lands_on_x(self):
        F0, G0, plane, data = build_conjugate_weil_instance(seed=2)
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        rep = hypothesis_report(sys)
        w = weil_restriction_split(sys, rep.census)
        q = weil_quadric_point(w, bound=6)
        assert q is not None
        pt = weil_point_transfer(w, q)
        assert sys.F.evaluate(pt.coords) == 0
        assert sys.G.evaluate(pt.coords) == 0


class TestGenerator:
    def test_deterministic(self):
        a = generate_planted_instance(5, CONIC, [1, 0, 1, 2, -1, 1], seed=7)
        b = generate_planted_instance(5, CONIC, [1, 0, 1, 2, -1, 1], seed=7)
        assert a[0].gram == b[0].gram and a[1].gram == b[1].gram

    def test_planted_point_and_conic_on_x(self):
        pt = [2, -1, 1, 1, 3, -2]
        F0, G0, plane = generate_planted_instance(5, CONIC, pt, seed=11)
        assert F0.evaluate(pt) == 0 and G0.evaluate(pt) == 0
        assert restrict_form(G0, plane).is_zero()
        assert restrict_form(F0, plane).gram == CONIC.gram

    def test_point_must_leave_plane(self):
        with pytest.raises(ValueError):
            generate_planted_instance(5, CONIC, [1, 1, 1, 0, 0, 0], seed=0)


class TestEndToEnd:
    def test_p5_planted_instance(self):
        (F0, G0, plane), pt = _planted(5, 21)
        out = find_rational_point(F0, G0, plane)
        assert out.status == "point"
        assert F0.evaluate(out.point.coords) == 0
        assert G0.evaluate(out.point.coords) == 0
        assert replay_trace(F0, G0, plane, out.trace)

    def test_p6_planted_instance(self):
        (F0, G0, plane), pt = _planted(6, 22)
        out = find_rational_point(F0, G0, plane)
        assert out.status == "point"
        assert F0.evaluate(out.point.coords) == 0
        assert replay_trace(F0, G0, plane, out.trace)

    def test_weil_route_end_to_end(self):
        F0, G0, plane, _ = build_conjugate_weil_instance(seed=2)
        out = find_rational_point(F0, G0, plane)
        assert out.status == "point"
        assert out.route == "s2-conjugate-weil"
        assert F0.evaluate(out.point.coords) == 0
        assert G0.evaluate(out.point.coords) == 0

    def test_definite_obstruction(self):
        # F0 is positive definite: X(R) is empty, exact real certificate
        F0 = QuadraticForm.diagonal([1, 1, 3, 1, 1])
        G0 = QuadraticForm.diagonal([0, 0, 0, 1, 2])
        plane = LinearSubspace.standard(5, (0, 1, 2))
        out = find_rational_point(F0, G0, plane)
        assert out.status == "obstruction"
        assert out.obstruction["kind"] == "definite-real-member"
        assert replay_obstruction(F0, G0, plane, out.obstruction)

    def test_modp_obstruction(self):
        # over Q_3, G0 = 0 forces x3 = x4 = 0, then x0^2 + x1^2 = 3 x2^2
        # has no 3-adic solution; certified by bounded lifting
        F0 = QuadraticForm.diagonal([1, 1, -3, 1, 1])
        G0 = QuadraticForm.diagonal([0, 0, 0, 1, 1])
        plane = LinearSubspace.standard(5, (0, 1, 2))
        out = find_rational_point(F0, G0, plane)
        assert out.status == "obstruction"
        assert out.obstruction["kind"] == "empty-smooth-mod-p"
        assert out.obstruction["p"] == 3
        assert replay_obstruction(F0, G0, plane, out.obstruction)

    def test_obstruction_never_claimed_with_planted_point(self):
        for seed in (31, 32, 33):
            (F0, G0, plane), pt = _planted(5, seed)
            out = find_rational_point(F0, G0, plane)
            assert out.status != "obstruction"


def _poly_from_roots(roots, extra=(1,)):
    """The product of (t - r) over roots, times the polynomial extra."""
    p = Poly(list(extra))
    for r in roots:
        p = p * Poly([-Fraction(r), 1])
    return p


def _real_roots_between(P, lo, hi):
    """Distinct real roots of P in the open interval (lo, hi), by sympy's
    root counting; lo and hi are not roots, None is unbounded."""
    t = sympy.Symbol("t")
    sq = sympy.Poly(list(reversed(P.coeffs)), t, domain="QQ").sqf_part()
    return sq.count_roots(None if lo is None else sympy.Rational(lo),
                          None if hi is None else sympy.Rational(hi))


class TestRealPlace:
    @pytest.mark.parametrize("P, dim, expected", [
        # no real root: one interval
        (Poly([1, 0, 1]), 5, ["0"]),
        (Poly([1, 0, 1]), 2, ["0"]),
        # deg P < dim: infinity is a root and splits the outer interval
        (_poly_from_roots([1, 3]), 3, ["0", "2", "4"]),
        (_poly_from_roots([1, 3]), 2, ["0", "2"]),
        # rational roots are degenerate isolating intervals
        (_poly_from_roots([0, 1]), 3, ["1/2", "-1", "2"]),
        (_poly_from_roots([Fraction(1, 3), Fraction(2, 3)]), 3,
         ["0", "1/2", "1"]),
        # irrational roots +-sqrt(2)
        (Poly([-2, 0, 1]), 3, ["0", "2", "-2"]),
        (Poly([-2, 0, 1]), 2, ["0", "2"]),
        # sympy's interval around 11/26 ends at the rational root 1/3
        (_poly_from_roots([Fraction(1, 3), Fraction(11, 26),
                           Fraction(15, 26), Fraction(5, 8)]), 6,
         ["0", "59/156", "1/2", "125/208", "1"]),
        # the rational root 1/7 lies in sympy's interval of sqrt(2)/10
        (Poly([-2, 0, 100]) * Poly([-1, 7]), 3, None),
    ])
    def test_branch_cases(self, P, dim, expected):
        points = real_sample_points(P, dim)
        if expected is not None:
            assert [str(x) for x in points] == expected
        self._check_one_per_interval(P, dim, points)

    @staticmethod
    def _check_one_per_interval(P, dim, points):
        assert all(P.evaluate(x) != 0 for x in points)
        keys = [(abs(x), x < 0) for x in points]
        assert keys == sorted(keys)
        xs = sorted(points)
        inf_root = int(P.degree < dim)
        total = _real_roots_between(P, None, None) + inf_root
        assert len(xs) == max(total, 1)
        for lo, hi in zip(xs, xs[1:]):
            assert _real_roots_between(P, lo, hi) == 1
        if len(xs) > 1:
            wrap = (_real_roots_between(P, None, xs[0]) + inf_root
                    + _real_roots_between(P, xs[-1], None))
            assert wrap == 1
        # within its interval, no integer has a smaller (|k|, k < 0)
        for x in points:
            for k in range(-math.ceil(abs(x)), math.ceil(abs(x)) + 1):
                if (abs(k), k < 0) >= (abs(x), x < 0) or P.evaluate(k) == 0:
                    continue
                assert _real_roots_between(P, min(k, x), max(k, x)) > 0

    @pytest.mark.parametrize("seed", range(40))
    def test_sample_points_differential(self, seed):
        rng = random.Random(seed)
        roots = {Fraction(rng.randint(-40, 40), rng.randint(1, 5))
                 for _ in range(rng.randint(0, 3))}
        extra = Poly([1])
        for _ in range(rng.randint(0, 2)):
            extra = extra * Poly([rng.randint(-30, 30), rng.randint(-9, 9),
                                  rng.randint(1, 4)])
        extra = extra * rng.choice((1, -1, 3))
        P = _poly_from_roots(sorted(roots), extra.coeffs)
        if rng.random() < 0.3:
            P = P * _poly_from_roots(sorted(roots)[:1])  # a double root
        dim = P.degree + rng.choice((0, 0, 1, 2))
        points = real_sample_points(P, dim)
        self._check_one_per_interval(P, dim, points)
        for a, b in real_root_intervals(P):
            assert a == b or not any(
                a < k < b for k in range(math.floor(a), math.ceil(b) + 1))

    @pytest.mark.parametrize("lam0", [-37, Fraction(-5, 3), Fraction(1, 2),
                                      9, 250])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_far_definite_member_certified(self, lam0, n):
        for seed in range(4):
            F0, G0, plane = far_definite_instance(
                random.Random(1000 * n + seed), n, lam0)
            out = find_rational_point(F0, G0, plane)
            assert out.status == "obstruction"
            assert out.obstruction["kind"] == "definite-real-member"
            assert replay_obstruction(F0, G0, plane, out.obstruction)

    @pytest.mark.parametrize("seed", range(48))
    def test_brute_scan_oracle(self, seed):
        # whenever a brute signature scan over p/q, |p| <= 30, q <= 4, finds
        # a definite member, so does the decision; every member the
        # decision reports is definite by Sylvester's criterion
        rng = random.Random(seed)
        if seed % 8 == 7:
            (F0, G0, plane), _ = _planted(rng.choice((4, 5)), seed)
        else:
            F0, G0, plane = far_definite_instance(
                rng, rng.choice((4, 5, 6)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 4)), noise=2)
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        conic_real = dict(conic_local_report(
            reduce_ternary(sys.conic_form)).verdicts)["oo"]
        found = definite_member(sys, pencil_det_poly(sys.F, sys.G),
                                conic_real)
        brute = brute_definite_scan(sys.F, sys.G)
        if brute is not None:
            assert found is not None
        if found is not None:
            lam = Fraction(found["lambda"])
            assert sylvester_definite(sys.F.add(sys.G.scale(lam)).gram)
        if conic_real:
            assert brute is None and found is None

    def test_planted_instances_compute_no_signature(self, monkeypatch):
        calls = []
        real_signature = descent.signature

        def counting(F):
            calls.append(F.dim)
            return real_signature(F)

        monkeypatch.setattr(descent, "signature", counting)
        for n, seed in ((4, 91), (5, 21), (6, 22)):
            (F0, G0, plane), _ = _planted(n, seed)
            assert find_rational_point(F0, G0, plane).status == "point"
        assert calls == []
        F1 = QuadraticForm.diagonal([1, 1, 3, 1, 1])
        G1 = QuadraticForm.diagonal([0, 0, 0, 1, 2])
        plane = LinearSubspace.standard(5, (0, 1, 2))
        out = find_rational_point(F1, G1, plane)
        assert out.obstruction == {"kind": "definite-real-member",
                                   "lambda": "0", "signature": [5, 0]}
        assert calls == [5]


class TestP4Fibers:
    @pytest.mark.parametrize("seed", range(91, 97))
    def test_point_comes_from_a_fiber(self, seed):
        (F0, G0, plane), _ = _planted(4, seed)
        out = find_rational_point(F0, G0, plane)
        assert out.status == "point"
        assert out.trace["method"] == "fiber"
        assert replay_trace(F0, G0, plane, out.trace)

    def test_exhaustion_names_its_budget(self):
        # planted-n4-h20-s921297046 of the fibers benchmark workload: every
        # fiber up to fibers_max is locally insolvable
        (F0, G0, plane), _ = _planted(4, 921297046, coord=15,
                                      coefficient_height=20)
        out = find_rational_point(F0, G0, plane)
        assert out.status == "exhausted"
        assert out.notes == ("fiber search exhausted: fibers_max=96 reached, "
                             "96 fibers locally insolvable",)
        tried = [e for e in out.trace["fibers"] if "skip" not in e]
        assert len(tried) == 96 and not any(e["solvable"] for e in tried)
        out = find_rational_point(F0, G0, plane,
                                  descent.SearchConfig(height_bound=1))
        assert out.notes == ("fiber search exhausted: height_bound=1 "
                             f"reached, {len(out.trace['fibers'])} fibers "
                             "locally insolvable",)


@pytest.fixture(scope="module")
def p6_search():
    (F0, G0, plane), _ = _planted(6, 22)
    out = find_rational_point(F0, G0, plane)
    assert out.status == "point"
    return F0, G0, plane, out.trace


class TestReplayDescent:
    @pytest.mark.parametrize("key, alter", [
        ("rank_g_restricted", lambda v: v + 1),
        ("irreducible_quintic", lambda v: not v),
        ("child_route", lambda v: v + "-altered"),
    ])
    def test_altered_level_rejected(self, p6_search, key, alter):
        F0, G0, plane, trace = p6_search
        hops = [i for i, lv in enumerate(trace["levels"]) if "hyperplane" in lv]
        assert len(hops) == 2  # P^6 -> P^5 -> P^4
        for i in hops:
            levels = [dict(lv) for lv in trace["levels"]]
            levels[i][key] = alter(levels[i][key])
            assert not replay_trace(F0, G0, plane, dict(trace, levels=levels))
        assert replay_trace(F0, G0, plane, trace)


class TestDirectSearch:
    def test_finds_small_point(self):
        F = QuadraticForm.from_coeffs(4, {(0, 0): 1, (1, 1): -1})
        G = QuadraticForm.from_coeffs(4, {(2, 2): 1, (3, 3): -1})
        pt = direct_point_search(F, G, 2)
        assert pt is not None
        assert F.evaluate(pt.coords) == 0 and G.evaluate(pt.coords) == 0

    def test_returns_none_when_empty(self):
        F = QuadraticForm.diagonal([1, 1, 1])
        G = QuadraticForm.diagonal([1, 2, 3])
        assert direct_point_search(F, G, 3) is None
