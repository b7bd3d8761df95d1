"""Tests of the benchmark itself: the obstructed instances are obstructed
by construction, generation is seeded, and BENCHMARK.json names every
metric the benchmark prints.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import random
from fractions import Fraction

import pytest

import workloads
from workloads import (
    FAR_DEFINITE_LAMBDA,
    definite_construction,
    emit,
    padic_construction,
)


def det(rows):
    """Exact determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in r] for r in rows]
    n, sign, acc = len(m), 1, Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        acc *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sign * acc


def positive_definite(gram):
    return all(det([r[:k] for r in gram[:k]]) > 0
               for k in range(1, len(gram) + 1))


def congruent(c, inst):
    """The emitted forms and plane are the structured ones under V: checked
    on e_i and e_i + e_j, which determine a quadratic form."""
    V, W = [list(r) for r in c.V], [list(r) for r in c.V_inv]
    dim = len(V)

    def apply(M, x):
        return [sum(M[i][j] * x[j] for j in range(dim)) for i in range(dim)]

    assert det(V) in (1, -1)
    units = [[int(i == k) for i in range(dim)] for k in range(dim)]
    probes = units + [[a + b for a, b in zip(units[i], units[j])]
                      for i in range(dim) for j in range(i + 1, dim)]
    for x in probes:
        assert apply(V, apply(W, x)) == x
        for structured, emitted in ((c.F, inst.F), (c.G, inst.G)):
            assert emitted.evaluate(x) == structured.evaluate(apply(V, x))
    for k, col in enumerate(inst.plane.basis):
        assert apply(V, col) == units[k]


SEEDS = range(40)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_padic_family_is_3adically_empty(n):
    for seed in SEEDS:
        c = padic_construction(random.Random(seed), n)
        dim = n + 1
        # the conic on the plane is x0^2 + x1^2 - 3 x2^2 ...
        assert [list(r[:3]) for r in c.F.gram[:3]] == \
            [[1, 0, 0], [0, 1, 0], [0, 0, -3]]
        # ... and G lives on the tail as <u, u> + 3<v, v>, truncated
        tail = list(c.tail_diagonal)
        assert c.G.gram == tuple(
            tuple(Fraction(tail[i - 3]) if i == j and i >= 3 else 0
                  for j in range(dim)) for i in range(dim))
        u = tail[0]
        assert tail[:2] == [u, u] and u % 3
        if len(tail) > 2:
            v = tail[2] // 3
            assert tail[2:] == [3 * v] * (len(tail) - 2) and v % 3
        # residue forms <u,u> and <v,v> are anisotropic mod 3 (Springer)
        for w in (u,) + ((tail[2] // 3,) if len(tail) > 2 else ()):
            assert all((w * (a * a + b * b)) % 3
                       for a in range(3) for b in range(3) if a or b)
        congruent(c, emit(c, "padic"))


def test_padic_family_stops_at_a_tail_of_four():
    with pytest.raises(ValueError):
        padic_construction(random.Random(0), 7)


@pytest.mark.parametrize("lam0", [0, FAR_DEFINITE_LAMBDA])
def test_definite_families_have_a_definite_member(lam0):
    for seed in SEEDS:
        c = definite_construction(random.Random(seed), 5, lam0)
        member = [[f + lam0 * g for f, g in zip(rf, rg)]
                  for rf, rg in zip(c.F.gram, c.G.gram)]
        assert positive_definite(member)
        assert [list(r[:3]) for r in c.F.gram[:3]] == \
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert all(c.G.gram[i][j] == 0
                   for i in range(6) for j in range(6) if min(i, j) < 3)
        if lam0:
            # F + lam G is indefinite for |lam - lam0| >= 1: e3, e4 witness
            P, G = member, c.G.gram
            assert G[3][3] > P[3][3] and G[4][4] < -P[4][4]
        congruent(c, emit(c, "definite"))


def test_generation_is_deterministic_and_seeded():
    a = workloads.fingerprint([next(workloads.rounds("obstruction", 7))])
    b = workloads.fingerprint([next(workloads.rounds("obstruction", 7))])
    c = workloads.fingerprint([next(workloads.rounds("obstruction", 8))])
    assert a == b != c


def test_reported_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run
    from spans import Tracer

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

    class Stub:
        solve_s = done_s = [1.0, 2.0]
        replay_s, report_bytes = [0.5], 10
        status = {"point": 1, "obstruction": 0, "exhausted": 1, "error": 0,
                  "overrun": 0}

    e2e = run.end_to_end(Stub, 1.0, 0.5)
    layer = run.per_layer(Tracer(), Stub, 1.0, 1.0)
    for section, got in (("end_to_end", e2e), ("per_layer", layer)):
        assert {m["name"]: m["unit"] for m in spec[section]} == \
            {name: unit for name, (_, unit) in got.items()}


def test_cut_solve_is_unresolved_not_failed():
    import run

    class Stub:
        status = {"point": 3, "obstruction": 0, "exhausted": 0, "error": 0,
                  "overrun": 1}
        solve_s = [1.0, 1.0, 1.0, 5.0]
        done_s, replay_s = [1.0, 1.0, 1.0], [0.5]

    assert run.failures(Stub) == 0
    assert run.end_to_end(Stub, 1.0, 0.5)["resolved_ratio"][0] == 0.75
    Stub.status["error"] = 1
    assert run.failures(Stub) == 1
