import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadpencil.exact import Poly, QuotientField
from quadpencil.forms import (
    LinearSubspace,
    ProjectivePoint,
    QuadraticForm,
    restrict_form,
)
from quadpencil.normalize import (
    hypothesis_report,
    normalize_pencil,
    verify_conic_plane,
)
from quadpencil.descent import (
    DegenerateFiber,
    HyperplaneCandidate,
    PointNotOnX,
    direct_point_search,
    enumerate_hyperplanes,
    enumerate_p1,
    field_sqrt,
    find_rational_point,
    generate_planted_instance,
    primitive_vectors,
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

from .support import build_conjugate_weil_instance

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


def _planted(n, seed, **kw):
    dim = n + 1
    rng = random.Random(seed)
    while True:
        pt = [rng.randint(-3, 3) for _ in range(dim)]
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


class TestP4Fibers:
    @pytest.mark.parametrize("seed", range(91, 97))
    def test_point_comes_from_a_fiber(self, seed):
        (F0, G0, plane), _ = _planted(4, seed)
        out = find_rational_point(F0, G0, plane)
        assert out.status == "point"
        assert out.trace["method"] == "fiber"
        assert replay_trace(F0, G0, plane, out.trace)


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
