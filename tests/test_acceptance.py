"""Acceptance gate: nine end-to-end criteria with runtime budgets.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the
verdicts are visible in any pytest run.
"""

import random
import time
from fractions import Fraction


from quadpencil.forms import LinearSubspace, QuadraticForm, form_rank
from quadpencil.pencil import (
    IdenticallyZeroDiscriminant,
    Pencil,
    condition_E_check,
    discriminant,
    low_rank_census,
    multiplicity_bound_check,
)
from quadpencil.localsolve import (
    Place,
    conic_local_report,
    conic_rational_point,
    hilbert_symbol,
    reduce_ternary,
)
from quadpencil.normalize import (
    hypothesis_report,
    normalize_pencil,
    verify_conic_plane,
)
from quadpencil.descent import (
    DegenerateFiber,
    enumerate_p1,
    find_rational_point,
    generate_planted_instance,
    replay_obstruction,
    replay_trace,
    residual_conic_fiber,
    weil_point_transfer,
    weil_quadric_point,
    weil_reconstruct,
    weil_restriction_split,
)

from .support import (
    brute_conic_search,
    build_conjugate_weil_instance,
    random_pencil_forms,
)

CONIC = QuadraticForm.diagonal([1, 1, -3])


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _random_discriminant(rng, dim, height=5, full_rank_f=False):
    while True:
        F, G = random_pencil_forms(rng, dim, height)
        if full_rank_f and form_rank(F) != dim:
            continue
        try:
            return F, G, discriminant(Pencil(F, G))
        except IdenticallyZeroDiscriminant:
            continue


def test_01_multiplicity_bound(capsys):
    """500 random pencils, n in 4..8: multiplicity >= (n+1) - rank holds
    for every singular member; budget 2 minutes."""
    t0 = time.monotonic()
    rng = random.Random(10)
    checked = 0
    for dim in (5, 6, 7, 8, 9):
        for _ in range(100):
            F, G, d = _random_discriminant(rng, dim)
            assert multiplicity_bound_check(d, dim - 1), \
                f"bound violated: F={F.gram} G={G.gram}"
            checked += 1
    elapsed = time.monotonic() - t0
    _verdict(capsys, "1 multiplicity-bound",
             checked == 500 and elapsed <= 120,
             f"{checked} pencils in {elapsed:.1f}s")


def test_02_low_rank_census(capsys):
    """200 random pencils with rank(F) = n+1, n in {6, 7}: the census
    inequality s(1 - 4/(n+1)) <= 1 holds; budget 2 minutes."""
    t0 = time.monotonic()
    rng = random.Random(20)
    checked = 0
    for dim in (7, 8):
        for _ in range(100):
            F, G, d = _random_discriminant(rng, dim, full_rank_f=True)
            rep = low_rank_census(d, dim - 1)
            assert rep.inequality_ok, \
                f"census inequality violated: s={rep.s} F={F.gram} G={G.gram}"
            checked += 1
    elapsed = time.monotonic() - t0
    _verdict(capsys, "2 low-rank-census",
             checked == 200 and elapsed <= 120,
             f"{checked} pencils in {elapsed:.1f}s")


def test_03_hilbert_reciprocity(capsys):
    """1000 random pairs (a, b): the product of Hilbert symbols over all
    relevant places is 1; budget 30 seconds."""
    import sympy
    t0 = time.monotonic()
    rng = random.Random(30)
    checked = 0
    for _ in range(1000):
        a = rng.randint(-500, 500) or 1
        b = rng.randint(-500, 500) or -1
        places = [Place.real()] + [
            Place.prime(p) for p in sorted(
                set(sympy.primefactors(abs(a)))
                | set(sympy.primefactors(abs(b))) | {2})]
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, f"reciprocity fails for ({a}, {b})"
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(capsys, "3 hilbert-reciprocity",
             checked == 1000 and elapsed <= 30,
             f"{checked} pairs in {elapsed:.1f}s")


def test_04_ternary_oracle(capsys):
    """200 ternary forms: the local-global verdict agrees with an
    independent exhaustive search within the Holzer bounds; budget 2 min."""
    t0 = time.monotonic()
    rng = random.Random(40)
    checked = 0
    while checked < 200:
        diag = [rng.choice([1, -1]) * rng.randint(1, 10) for _ in range(3)]
        t = reduce_ternary(QuadraticForm.diagonal(diag))
        if abs(t.a * t.b * t.c) > 30000:
            continue
        found = brute_conic_search(t.a, t.b, t.c)
        rep = conic_local_report(t)
        if rep.globally_solvable:
            assert found is not None, \
                f"verdict solvable but no point: {diag} -> {(t.a, t.b, t.c)}"
            pt, _ = conic_rational_point(t, rep)
            assert t.original.evaluate(pt.coords) == 0
        else:
            assert found is None, \
                f"verdict unsolvable but point exists: {(t.a, t.b, t.c)}"
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(capsys, "4 ternary-oracle",
             checked == 200 and elapsed <= 120,
             f"{checked} forms in {elapsed:.1f}s")


def _planted(n, seed):
    rng = random.Random(seed)
    dim = n + 1
    while True:
        pt = [rng.randint(-3, 3) for _ in range(dim)]
        if any(pt[3:]):
            break
    return generate_planted_instance(n, CONIC, pt, seed=seed)


def test_05_end_to_end_planted(capsys):
    """20 planted P^5 and 10 planted P^6 instances: >= 90% yield a verified
    rational point; failures are exhaustion, never a false obstruction;
    budget 10 minutes per instance."""
    t0 = time.monotonic()
    results = {5: [0, 0], 6: [0, 0]}  # n -> [success, total]
    worst = 0.0
    for n, count, base in ((5, 20, 500), (6, 10, 600)):
        for k in range(count):
            F0, G0, plane = _planted(n, base + k)
            ti = time.monotonic()
            out = find_rational_point(F0, G0, plane)
            dt = time.monotonic() - ti
            worst = max(worst, dt)
            assert dt <= 600, f"instance n={n} seed={base + k} took {dt:.0f}s"
            results[n][1] += 1
            if out.status == "point":
                assert F0.evaluate(out.point.coords) == 0
                assert G0.evaluate(out.point.coords) == 0
                results[n][0] += 1
            else:
                assert out.status == "exhausted", \
                    f"false obstruction on planted instance seed={base + k}"
    elapsed = time.monotonic() - t0
    ok = all(s >= 0.9 * t for s, t in results.values())
    _verdict(capsys, "5 end-to-end-planted", ok,
             f"P5 {results[5][0]}/{results[5][1]}, "
             f"P6 {results[6][0]}/{results[6][1]}, "
             f"worst instance {worst:.1f}s, total {elapsed:.1f}s")


def test_06_fiber_soundness(capsys):
    """100 (instance, fiber) pairs: every point of the embedded fiber plane
    satisfies G = 0 and F pulls back to the residual conic -- checked as a
    symbolic identity on a spanning set of evaluations."""
    t0 = time.monotonic()
    rng = random.Random(60)
    pairs = 0
    while pairs < 100:
        F0, G0, plane = _planted(4, rng.randint(0, 10**6))
        sys_ = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        for t in enumerate_p1(3):
            if pairs >= 100:
                break
            try:
                fiber = residual_conic_fiber(sys_, t)
            except DegenerateFiber:
                continue
            M = fiber.embedding.matrix()
            # a quadratic form is determined by values at e_i and e_i + e_j
            samples = [[Fraction(int(i == k)) for i in range(3)]
                       for k in range(3)]
            for i in range(3):
                for j in range(i + 1, 3):
                    v = [Fraction(0)] * 3
                    v[i] = v[j] = Fraction(1)
                    samples.append(v)
            for y in samples:
                x = [sum(M[r][c] * y[c] for c in range(3)) for r in range(5)]
                assert sys_.G.evaluate(x) == 0, f"fiber not inside G=0 at {t}"
                assert sys_.F.evaluate(x) == fiber.residual_form.evaluate(y), \
                    f"residual form mismatch at {t}"
            pairs += 1
    elapsed = time.monotonic() - t0
    _verdict(capsys, "6 fiber-soundness",
             pairs == 100 and elapsed <= 120,
             f"{pairs} pairs in {elapsed:.1f}s")


def test_07_weil_instances(capsys):
    """5 conjugate-pair P^6 instances: the Weil split inverts the
    construction exactly and the transferred point lies on X."""
    t0 = time.monotonic()
    done = 0
    for seed in (1, 2, 3, 4, 5):
        F0, G0, plane, data = build_conjugate_weil_instance(seed=seed)
        sys_ = normalize_pencil(F0, G0, verify_conic_plane(F0, G0, plane))
        rep = hypothesis_report(sys_)
        assert rep.route == "s2-conjugate-weil", \
            f"seed {seed}: route {rep.route}"
        w = weil_restriction_split(sys_, rep.census)
        F1, G1 = weil_reconstruct(w)
        assert F1.gram == sys_.F.gram and G1.gram == sys_.G.gram, \
            f"seed {seed}: split does not invert"
        q = weil_quadric_point(w, bound=8)
        assert q is not None, f"seed {seed}: no quadric point within bound"
        pt = weil_point_transfer(w, q)
        assert sys_.F.evaluate(pt.coords) == 0
        assert sys_.G.evaluate(pt.coords) == 0
        done += 1
    elapsed = time.monotonic() - t0
    _verdict(capsys, "7 weil-split", done == 5,
             f"{done}/5 instances in {elapsed:.1f}s")


def test_08_condition_e_irreducible_quintic(capsys):
    """50 P^4 pencils with irreducible discriminant quintic and
    rank(G) >= 3: condition (E) never holds (no rank-4 member is defined
    over a rational or quadratic parameter)."""
    t0 = time.monotonic()
    rng = random.Random(80)
    checked = 0
    while checked < 50:
        F, G, d = _random_discriminant(rng, 5)
        fac = d.factorization
        irreducible = (d.P.degree == 5 and len(fac.factors) == 1
                       and fac.factors[0][1] == 1)
        if not irreducible or form_rank(G) < 3:
            continue
        rep = condition_E_check(d)
        assert not rep.holds, \
            f"(E) held with an irreducible quintic: F={F.gram} G={G.gram}"
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(capsys, "8 condition-E-irreducible-quintic",
             checked == 50, f"{checked} pencils in {elapsed:.1f}s")


def test_09_obstruction_honesty(capsys):
    """Obstruction certificates replay from scratch; a successful trace
    replays end to end; planted instances are never falsely obstructed."""
    t0 = time.monotonic()
    checks = []
    plane5 = LinearSubspace.standard(5, (0, 1, 2))
    # mod-3 lifting obstruction
    F0 = QuadraticForm.diagonal([1, 1, -3, 1, 1])
    G0 = QuadraticForm.diagonal([0, 0, 0, 1, 1])
    out = find_rational_point(F0, G0, plane5)
    checks.append(out.status == "obstruction"
                  and out.obstruction["kind"] == "empty-smooth-mod-p"
                  and replay_obstruction(F0, G0, plane5, out.obstruction))
    # definite real member obstruction
    F1 = QuadraticForm.diagonal([1, 1, 3, 1, 1])
    G1 = QuadraticForm.diagonal([0, 0, 0, 1, 2])
    out1 = find_rational_point(F1, G1, plane5)
    checks.append(out1.status == "obstruction"
                  and out1.obstruction["kind"] == "definite-real-member"
                  and replay_obstruction(F1, G1, plane5, out1.obstruction))
    # full trace replay of successes across routes
    for n, seed in ((4, 91), (5, 92), (6, 93)):
        F2, G2, plane = _planted(n, seed)
        out2 = find_rational_point(F2, G2, plane)
        checks.append(out2.status == "point"
                      and replay_trace(F2, G2, plane, out2.trace))
    # no false obstruction on solvable instances
    for seed in (94, 95, 96, 97, 98):
        F3, G3, plane = _planted(5, seed)
        out3 = find_rational_point(F3, G3, plane)
        checks.append(out3.status != "obstruction")
    elapsed = time.monotonic() - t0
    _verdict(capsys, "9 obstruction-honesty", all(checks),
             f"{sum(checks)}/{len(checks)} checks in {elapsed:.1f}s")
