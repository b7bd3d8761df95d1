import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadpencil.forms import (
    LinearSubspace,
    QuadraticForm,
    form_rank,
    restrict_form,
)
import quadpencil.exact as exact
from quadpencil.descent import generate_planted_instance
from quadpencil.exact import matrix_rank
from quadpencil.normalize import (
    DiscriminantZero,
    NormalizedSystem,
    NotAConic,
    NotSmoothConic,
    PlaneContained,
    ROUTES,
    hypothesis_report,
    normalize_pencil,
    singular_line,
    verify_conic_plane,
)

CONIC = QuadraticForm.diagonal([1, 1, -3])
PLANE5 = LinearSubspace.standard(6, (0, 1, 2))


def _conic_instance(seed, dim, conic=CONIC):
    """F0 = q + sum_{i>=3} x_i L_i, G0 = sum_{i>=3} x_i M_i on the standard
    plane; always a valid conic configuration."""
    rng = random.Random(seed)
    f = [[Fraction(0)] * dim for _ in range(dim)]
    g = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(3):
        for j in range(3):
            f[i][j] = conic.gram[i][j]
    for i in range(3, dim):
        for j in range(dim):
            cf = Fraction(rng.randint(-4, 4), 2)
            cg = Fraction(rng.randint(-4, 4), 2)
            f[i][j] += cf
            f[j][i] += cf
            g[i][j] += cg
            g[j][i] += cg
    return QuadraticForm(f), QuadraticForm(g)


class TestVerifyConicPlane:
    def test_valid_configuration(self):
        F0, G0 = _conic_instance(1, 6)
        cfg = verify_conic_plane(F0, G0, PLANE5)
        # G0 vanishes on the plane, so q is F0's restriction (the conic)
        assert cfg.conic_form.gram == restrict_form(F0, PLANE5).gram
        assert form_rank(cfg.conic_form) == 3
        assert (cfg.f_scalar, cfg.g_scalar) == (1, 0)

    def test_plane_contained(self):
        F0 = QuadraticForm.from_coeffs(6, {(3, 3): 1})
        G0 = QuadraticForm.from_coeffs(6, {(4, 4): 1})
        with pytest.raises(PlaneContained):
            verify_conic_plane(F0, G0, PLANE5)

    def test_not_a_conic(self):
        # restrictions rank 3 but not proportional
        F0 = QuadraticForm.diagonal([1, 1, 1, 1, 1, 1])
        G0 = QuadraticForm.diagonal([1, 2, 3, 0, 0, 0])
        with pytest.raises(NotAConic):
            verify_conic_plane(F0, G0, PLANE5)

    def test_degenerate_conic(self):
        F0 = QuadraticForm.diagonal([1, 1, 0, 1, 1, 1])
        G0 = QuadraticForm.from_coeffs(6, {(3, 4): 1})
        with pytest.raises(NotSmoothConic):
            verify_conic_plane(F0, G0, PLANE5)

    def test_skew_plane(self):
        # same instance expressed in a sheared basis: the plane spanned by
        # e0, e1, e2 + e5 must verify after the inverse shear of the forms
        F0, G0 = _conic_instance(7, 6)
        S = [[Fraction(1 if i == j else 0) for j in range(6)]
             for i in range(6)]
        S[5][2] = Fraction(-1)  # x = S y maps the skew plane to standard
        from quadpencil.forms import change_coordinates
        F1 = change_coordinates(F0, S)
        G1 = change_coordinates(G0, S)
        basis = []
        for k in (0, 1, 2):
            v = [Fraction(0)] * 6
            v[k] = Fraction(1)
            if k == 2:
                v[5] = Fraction(1)
            basis.append(tuple(v))
        plane = LinearSubspace(6, tuple(basis))
        cfg = verify_conic_plane(F1, G1, plane)
        assert form_rank(cfg.conic_form) == 3


class TestNormalizePencil:
    @given(st.integers(0, 10**6), st.sampled_from([5, 6, 7]))
    @settings(max_examples=25)
    def test_normal_form_properties(self, seed, dim):
        F0, G0 = _conic_instance(seed, dim)
        plane = LinearSubspace.standard(dim, (0, 1, 2))
        cfg = verify_conic_plane(F0, G0, plane)
        try:
            sys = normalize_pencil(F0, G0, cfg)
        except DiscriminantZero:
            return
        std = LinearSubspace.standard(dim, (0, 1, 2))
        # G vanishes on the plane, F restricts to a rank-3 conic
        assert restrict_form(sys.G, std).is_zero()
        assert form_rank(restrict_form(sys.F, std)) == 3
        # pencil_change transports (F0, G0) to (F, G) exactly
        (fa, fb), (ga, gb) = sys.pencil_change
        from quadpencil.forms import change_coordinates
        M = [list(r) for r in sys.coordinate_change]
        F0n = change_coordinates(F0, M)
        G0n = change_coordinates(G0, M)
        assert F0n.scale(fa).add(G0n.scale(fb)).gram == sys.F.gram
        assert F0n.scale(ga).add(G0n.scale(gb)).gram == sys.G.gram

    def test_discriminant_zero_raised(self):
        # G0 = 0 on the plane and proportional to a form sharing F0's kernel
        F0 = QuadraticForm.diagonal([1, 1, -3, 1, 0])
        G0 = QuadraticForm.from_coeffs(5, {(3, 3): 1})
        plane = LinearSubspace.standard(5, (0, 1, 2))
        cfg = verify_conic_plane(F0, G0, plane)
        with pytest.raises(DiscriminantZero):
            normalize_pencil(F0, G0, cfg)


def _check_ranks(sys, rep):
    """The report's ranks against independent eliminations."""
    stacked = [list(r) for r in sys.F.gram] + [list(r) for r in sys.G.gram]
    assert rep.rank_f == form_rank(sys.F)
    assert rep.rank_g == form_rank(sys.G)
    assert rep.non_conical == (matrix_rank(stacked) == sys.dim)


class TestHypothesisReport:
    @given(st.integers(0, 10**6), st.sampled_from([4, 5, 6, 7]))
    @settings(max_examples=25)
    def test_route_in_vocabulary(self, seed, dim_minus):
        dim = dim_minus + 1
        F0, G0 = _conic_instance(seed, dim)
        plane = LinearSubspace.standard(dim, (0, 1, 2))
        cfg = verify_conic_plane(F0, G0, plane)
        try:
            sys = normalize_pencil(F0, G0, cfg)
            rep = hypothesis_report(sys)
        except (DiscriminantZero, ValueError, ArithmeticError):
            return
        assert rep.route in ROUTES
        _check_ranks(sys, rep)

    def test_route_invariance_under_renormalization(self):
        # pencil-basis and coordinate changes fixing the plane must not
        # change the computed route
        F0, G0 = _conic_instance(11, 6)
        plane = LinearSubspace.standard(6, (0, 1, 2))
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        base_route = hypothesis_report(sys).route
        rng = random.Random(99)
        tried = 0
        from quadpencil.forms import change_coordinates
        while tried < 20:
            # random unimodular change fixing the plane (block triangular)
            M = [[Fraction(1 if i == j else 0) for j in range(6)]
                 for i in range(6)]
            for i in range(3):
                for j in range(3, 6):
                    M[i][j] = Fraction(rng.randint(-2, 2))
            for i in range(3, 6):
                for j in range(i + 1, 6):
                    M[i][j] = Fraction(rng.randint(-1, 1))
            # mix the pencil: F0' = F0 + c G0
            c = Fraction(rng.randint(-3, 3))
            F1 = change_coordinates(F0.add(G0.scale(c)), M)
            G1 = change_coordinates(G0, M)
            try:
                cfg = verify_conic_plane(F1, G1, plane)
                sys1 = normalize_pencil(F1, G1, cfg)
                rep1 = hypothesis_report(sys1)
            except (ValueError, ArithmeticError):
                continue
            tried += 1
            assert rep1.route == base_route

    def test_cone_degenerates_before_classification(self):
        # shared kernel vector e5 forces det(F + lambda G) = 0 identically
        F0 = QuadraticForm.diagonal([1, 1, -3, 1, 1, 0])
        G0 = QuadraticForm.from_coeffs(6, {(3, 4): 1})
        plane = LinearSubspace.standard(6, (0, 1, 2))
        with pytest.raises(DiscriminantZero):
            normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))

    def test_low_rank_g_route(self):
        F0 = QuadraticForm.diagonal([1, 1, -3, 1, 1, 1])
        G0 = QuadraticForm.from_coeffs(6, {(3, 4): 1, (3, 3): 2})
        plane = LinearSubspace.standard(6, (0, 1, 2))
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        rep = hypothesis_report(sys)
        assert rep.rank_g <= 3
        assert rep.route == "low-rank-G-elementary"

    def test_singular_line_subcase_note(self):
        # rank-4 G in 6 variables: radical is a line; the note records the
        # subcase
        F0 = QuadraticForm.diagonal([1, 1, -3, 1, 1, 1])
        G0 = QuadraticForm.from_coeffs(6, {(0, 3): 1, (1, 4): 1})
        plane = LinearSubspace.standard(6, (0, 1, 2))
        sys = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        rep = hypothesis_report(sys)
        assert rep.rank_g == 4
        assert rep.route == "rank4-G-singular-line"
        assert any(n.startswith("singular-line-subcase:") for n in rep.notes)


def _system(F, G):
    """F and G, already normal, as a NormalizedSystem."""
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(F.dim))
                     for i in range(F.dim))
    return NormalizedSystem(
        F=F, G=G, coordinate_change=identity,
        pencil_change=((Fraction(1), Fraction(0)),
                       (Fraction(0), Fraction(1))),
        n=F.dim - 1, conic_form=restrict_form(F, LinearSubspace.standard(
            F.dim, (0, 1, 2))))


def _planted_p5():
    F0, G0, plane = generate_planted_instance(
        5, CONIC, [1, 0, 2, 1, -1, 1], seed=4, route="P5-Theorem-2.1")
    return normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))


def _split_p5():
    """Three 2x2 blocks (x_i, x_{i+3}): the first two give the same
    irreducible quadratic factor -t^2 + t + 1 of P, the last the root -1."""
    F = QuadraticForm.diagonal([1, 1, -3, 1, 1, 1])
    G = QuadraticForm.from_coeffs(6, {(0, 3): 2, (1, 4): 2, (3, 3): 1,
                                      (4, 4): 1, (5, 5): 1})
    return _system(F, G)


class TestRanksFromDiscriminant:
    @pytest.mark.parametrize("f_diag,rank_f", [
        ([1, 1, -3, 1, 0], 4),
        ([1, 1, -3, 0, 0], 3),
    ])
    def test_singular_f(self, f_diag, rank_f):
        # F singular: lambda = 0 is a root of P, and rank(F) is that record's
        sys = _system(QuadraticForm.diagonal(f_diag),
                      QuadraticForm.from_coeffs(5, {(0, 3): 1, (1, 4): 1,
                                                    (3, 3): 1, (4, 4): -1}))
        rep = hypothesis_report(sys)
        assert rep.disc.P[0] == 0
        assert rep.rank_f == rank_f
        _check_ranks(sys, rep)

    @pytest.mark.parametrize("build,expected", [(_planted_p5, 1),
                                                (_split_p5, 3)])
    def test_one_elimination_per_record(self, build, expected, monkeypatch):
        # one per rational root, one for G, one per repeated factor of
        # degree >= 2; a simple factor of degree >= 2 takes none
        sys = build()
        calls = []
        echelon = exact.echelon
        monkeypatch.setattr(exact, "echelon",
                            lambda *a: calls.append(1) or echelon(*a))
        rep = hypothesis_report(sys)
        factors = rep.disc.factorization.factors
        assert expected == (
            sum(1 for m, _ in factors if m.degree == 1) + 1
            + sum(1 for m, e in factors if m.degree > 1 and e > 1))
        assert len(calls) == expected
        _check_ranks(sys, rep)


class TestSingularLine:
    LINE = ([0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0])

    @pytest.mark.parametrize("coeffs,subcase", [
        ({(3, 3): 1, (4, 4): -4}, "k-point"),
        ({(4, 4): 1, (3, 4): 2}, "k-point"),
        ({(3, 3): 1, (4, 4): -2}, "conjugate-pair"),
        ({(0, 0): 1}, "line-on-X"),
    ])
    def test_subcase_and_point(self, coeffs, subcase):
        F = QuadraticForm.from_coeffs(6, coeffs)
        got, point = singular_line(F, self.LINE)
        assert got == subcase
        if subcase == "conjugate-pair":
            assert point is None
        else:
            assert any(point) and F.evaluate(point) == 0
            assert point[:3] == [0, 0, 0] and point[5] == 0
