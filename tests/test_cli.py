import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import quadpencil
import quadpencil.descent as descent
import quadpencil.localsolve as localsolve
from quadpencil.cli import (
    InstanceError,
    dump_canonical,
    instance_to_json,
    jsonable,
    load_instance,
    main,
    rat_from_json,
    rat_to_json,
)
from quadpencil.forms import LinearSubspace, ProjectivePoint, QuadraticForm
from quadpencil.pencil import Pencil, smoothness_test

from .support import plane_radical_instance


def write_instance(tmp_path, F, G, plane, meta=None, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance_to_json(F, G, plane, meta)))
    return str(path)


def modp_obstruction_instance(tmp_path):
    F = QuadraticForm.diagonal([1, 1, -3, 1, 1])
    G = QuadraticForm.diagonal([0, 0, 0, 1, 1])
    plane = LinearSubspace.standard(5, (0, 1, 2))
    return write_instance(tmp_path, F, G, plane, name="obstructed.json")


class TestRationalJson:
    def test_round_trip(self):
        for x in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(22, 7)):
            assert rat_from_json(rat_to_json(x)) == x

    def test_integers_stay_integers(self):
        assert rat_to_json(Fraction(4, 2)) == 2
        assert isinstance(rat_to_json(Fraction(4, 2)), int)

    def test_floats_rejected(self):
        with pytest.raises(InstanceError):
            rat_from_json(0.5)
        with pytest.raises(InstanceError):
            rat_from_json(True)
        with pytest.raises(TypeError):
            jsonable({"x": 0.5})

    def test_canonical_output_is_deterministic(self):
        obj = {"b": Fraction(1, 3), "a": [Fraction(2), {"z": 1, "y": 2}]}
        assert dump_canonical(obj) == dump_canonical(obj)
        assert '"a"' in dump_canonical(obj)
        assert dump_canonical(obj).index('"a"') < dump_canonical(obj).index('"b"')


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        F = QuadraticForm.diagonal([1, 1, -3, 1, 1, Fraction(1, 2)])
        G = QuadraticForm.from_coeffs(6, {(3, 4): 1, (5, 5): 2})
        plane = LinearSubspace.standard(6, (0, 1, 2))
        path = write_instance(tmp_path, F, G, plane, meta={"seed": 5})
        F1, G1, plane1, meta = load_instance(path)
        assert F1.gram == F.gram and G1.gram == G.gram
        assert meta == {"seed": 5}

    def test_asymmetric_rejected(self, tmp_path):
        data = {"n": 2, "F": [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                "G": [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
                "plane": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceError) as exc:
            load_instance(str(path))
        assert "(1,0)" in str(exc.value)

    def test_float_entries_rejected(self, tmp_path):
        data = {"n": 2, "F": [[1.0, 0, 0], [0, 1, 0], [0, 0, 1]],
                "G": [[0, 0, 0], [0, 1, 0], [0, 0, 2]],
                "plane": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceError):
            load_instance(str(path))

    def test_missing_file(self):
        with pytest.raises(InstanceError):
            load_instance("/nonexistent/instance.json")


class TestCliExitCodes:
    def test_gen_then_find_point(self, tmp_path, capsys):
        inst = str(tmp_path / "p5.json")
        assert main(["gen", "--n", "5", "--seed", "4", "--out", inst]) == 0
        rep = str(tmp_path / "report.json")
        code = main(["find-point", inst, "--out", rep])
        assert code == 0
        report = json.loads(open(rep).read())
        assert report["status"] == "point"
        # the reported point satisfies both forms
        F, G, plane, meta = load_instance(inst)
        pt = report["point"]
        assert F.evaluate(pt) == 0 and G.evaluate(pt) == 0
        # determinism: timings differ, nothing else
        rep2 = str(tmp_path / "report2.json")
        assert main(["find-point", inst, "--out", rep2]) == 0
        r1 = json.loads(open(rep).read())
        r2 = json.loads(open(rep2).read())
        r1.pop("timings")
        r2.pop("timings")
        assert r1 == r2

    def test_obstruction_exits_one(self, tmp_path):
        inst = modp_obstruction_instance(tmp_path)
        rep = str(tmp_path / "r.json")
        assert main(["find-point", inst, "--out", rep]) == 1
        report = json.loads(open(rep).read())
        assert report["status"] == "obstruction"
        assert report["obstruction"]["kind"] == "empty-smooth-mod-p"

    def test_analyze_classify_local_check(self, tmp_path):
        inst = str(tmp_path / "p5.json")
        assert main(["gen", "--n", "5", "--seed", "9", "--out", inst]) == 0
        for cmd in ("analyze", "classify", "local-check"):
            rep = str(tmp_path / f"{cmd}.json")
            assert main([cmd, inst, "--out", rep]) == 0
            data = json.loads(open(rep).read())
            assert data["command"] == cmd

    def test_local_check_reports_the_real_place(self, tmp_path):
        # acceptance test 9's definite pencil: F itself is definite
        F1 = QuadraticForm.diagonal([1, 1, 3, 1, 1])
        G1 = QuadraticForm.diagonal([0, 0, 0, 1, 2])
        definite = write_instance(tmp_path, F1, G1,
                                  LinearSubspace.standard(5, (0, 1, 2)))
        planted = str(tmp_path / "p5.json")
        assert main(["gen", "--n", "5", "--seed", "9", "--out", planted]) == 0
        expected = [{"conic_real": False,
                     "definite_member": {"lambda": "0", "signature": [5, 0]}},
                    {"conic_real": True, "definite_member": None}]
        for inst, real in zip((definite, planted), expected):
            rep = tmp_path / "r.json"
            assert main(["local-check", inst, "--out", str(rep)]) == 0
            assert json.loads(rep.read_text())["real"] == real

    @pytest.mark.parametrize("f_diag, factor", [([1, 1, 1, 1, 1], 2),
                                                ([1, 1, 1, 1, -101], -3)])
    def test_proportional_forms_rejected(self, tmp_path, capsys, f_diag,
                                         factor):
        # find-point rejects G = factor * F as analyze does, whether X(R)
        # is empty (definite F) or not (no point of height <= 4 either)
        F = QuadraticForm.diagonal(f_diag)
        inst = write_instance(tmp_path, F, F.scale(factor),
                              LinearSubspace.standard(5, (0, 1, 2)))
        assert main(["find-point", inst]) == 3
        assert "F and G must not be proportional" in capsys.readouterr().err

    def test_large_plane_conic_is_solved(self, tmp_path):
        # the plane conic p x^2 + q y^2 - r z^2 with primes near 10^6 is
        # solvable; a search over its Holzer box would walk ~10^12 cells
        p, q, r = 1000003, 1000037, 1000081
        F = QuadraticForm.diagonal([p, q, -r, 1, 1])
        G = QuadraticForm.diagonal([0, 0, 0, 1, -1])
        plane = LinearSubspace.standard(5, (0, 1, 2))
        inst = write_instance(tmp_path, F, G, plane)
        rep = tmp_path / "r.json"
        _cli_in_subprocess("find-point", inst, "--out", str(rep))
        report = json.loads(rep.read_text())
        assert report["trace"]["method"] == "conic"
        _assert_replays(F, G, plane, report)

    def test_large_n_descent_finds_point(self, tmp_path):
        # a planted P^16 instance descends through 12 levels
        inst = str(tmp_path / "n16.json")
        rep = tmp_path / "r.json"
        _cli_in_subprocess("gen", "--n", "16", "--seed", "0", "--out", inst)
        _cli_in_subprocess("find-point", inst, "--out", str(rep))
        F, G, plane, _ = load_instance(inst)
        _assert_replays(F, G, plane, json.loads(rep.read_text()))

    def test_radical_vector_on_plane_finds_point(self, tmp_path):
        F, G, plane = plane_radical_instance()
        inst = write_instance(tmp_path, F, G, plane)
        rep = tmp_path / "r.json"
        # without the skip, V0 rejects every hyperplane and the search
        # walks all of them for minutes
        _cli_in_subprocess("find-point", inst, "--out", str(rep))
        _assert_replays(F, G, plane, json.loads(rep.read_text()))

    def test_invalid_input_exits_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad)]) == 3
        assert main(["no-such-command"]) == 3
        assert main(["find-point", str(bad), "--bogus-flag"]) == 3
        assert main(["analyze", "/does/not/exist.json"]) == 3

    def test_prime_budget_only_where_used(self, tmp_path):
        # only local-check and find-point count points mod p
        inst = modp_obstruction_instance(tmp_path)
        for command in ("analyze", "classify"):
            assert main([command, inst, "--prime-budget", "5"]) == 3
        assert main(["gen", "--n", "5", "--prime-budget", "5"]) == 3
        out = str(tmp_path / "r.json")
        assert main(["local-check", inst, "--prime-budget", "5",
                     "--out", out]) == 0
        assert json.load(open(out))["mod_p"]["3"] == "skipped (budget)"

    def test_gen_deterministic(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(["gen", "--n", "5", "--seed", "12", "--out", a]) == 0
        assert main(["gen", "--n", "5", "--seed", "12", "--out", b]) == 0
        assert open(a).read() == open(b).read()

    def test_gen_find_point_round_trip_rate(self, tmp_path):
        # 100 seeded P^5 instances: gen must succeed and find-point must
        # return a point for at least 95 of them
        wins = 0
        for seed in range(100):
            inst = str(tmp_path / f"i{seed}.json")
            if main(["gen", "--n", "5", "--seed", str(seed),
                     "--out", inst]) != 0:
                continue
            rep = str(tmp_path / f"r{seed}.json")
            code = main(["find-point", inst, "--out", rep])
            assert code in (0, 2), f"seed {seed}: unexpected exit {code}"
            if code == 0:
                F, G, _, _ = load_instance(inst)
                pt = json.loads(open(rep).read())["point"]
                assert F.evaluate(pt) == 0 and G.evaluate(pt) == 0
                wins += 1
        assert wins >= 95, f"only {wins}/100 round trips produced a point"

    def test_reports_contain_no_floats(self, tmp_path):
        inst = str(tmp_path / "p5.json")
        assert main(["gen", "--n", "5", "--seed", "3", "--out", inst]) == 0
        rep = str(tmp_path / "r.json")
        assert main(["classify", inst, "--out", rep]) == 0

        def no_floats(x):
            if isinstance(x, float):
                return False
            if isinstance(x, dict):
                return all(no_floats(v) for v in x.values())
            if isinstance(x, list):
                return all(no_floats(v) for v in x)
            return True

        assert no_floats(json.loads(open(rep).read()))


class TestAnalyzeSmooth:
    # the TestSmoothness pencils of test_pencil.py: smooth, a repeated
    # factor, mu-multiplicity two
    @pytest.mark.parametrize("g_diag", [[0, 1, 2, 3, 4], [1, 1, 2, 3, 4],
                                        [0, 0, 2, 3, 4]])
    def test_smooth_matches_smoothness_test(self, tmp_path, g_diag):
        F = QuadraticForm.diagonal([1, 1, 1, 1, 1])
        G = QuadraticForm.diagonal(g_diag)
        inst = write_instance(tmp_path, F, G,
                              LinearSubspace.standard(5, (0, 1, 2)))
        rep = tmp_path / "r.json"
        assert main(["analyze", inst, "--out", str(rep)]) == 0
        assert (json.loads(rep.read_text())["smooth"]
                == smoothness_test(Pencil(F, G)))


# Run under python -O, so no assert statement can be what catches the
# fault: det_int is patched so that only the (dim-1)-minors, the adjugate
# cofactors, come out off by one.
_BROKEN_COFACTORS = """
import sys

import quadpencil.pencil as pencil
from quadpencil.cli import DEFAULT_CONIC, main
from quadpencil.descent import generate_planted_instance
from quadpencil.exact import InternalError
from quadpencil.forms import QuadraticForm

det_int = pencil.det_int
pencil.det_int = lambda rows: det_int(rows) + (len(rows) == 5)
code = main(["analyze", sys.argv[1]])
try:
    generate_planted_instance(5, QuadraticForm(DEFAULT_CONIC),
                              [1, 0, 1, 2, -1, 1], seed=7)
    outcome = "returned"
except InternalError:
    outcome = "internal-error"
except Exception as exc:
    outcome = type(exc).__name__
print(sys.flags.optimize, code, outcome)
"""


# Run under python -O: a local report that calls every conic solvable.
_LYING_REPORT = """
import dataclasses
import sys

import quadpencil.descent as descent
import quadpencil.localsolve as localsolve
from quadpencil.cli import main

honest = localsolve.conic_local_report


def lying(t):
    return dataclasses.replace(honest(t), globally_solvable=True)


localsolve.conic_local_report = descent.conic_local_report = lying
print(sys.flags.optimize, main(["find-point", sys.argv[1]]))
"""


def _cli_in_subprocess(*args):
    """Run the CLI with a 30 s timeout and expect exit 0."""
    proc = subprocess.run([sys.executable, "-m", "quadpencil.cli", *args],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=30)
    assert proc.returncode == 0, proc.stderr


def _assert_replays(F, G, plane, report):
    assert report["status"] == "point"
    trace = {**report["trace"],
             "point": [rat_from_json(x) for x in report["point"]]}
    assert descent.replay_trace(F, G, plane, trace)


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(quadpencil.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


class TestInternalErrors:
    def test_failed_certificate_exits_four(self, tmp_path):
        inst = str(tmp_path / "p5.json")
        assert main(["gen", "--n", "5", "--seed", "9", "--out", inst]) == 0
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_COFACTORS, inst],
            capture_output=True, text=True, env=_src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        # analyze exits 4 with a one-line message; the generator raises
        # InternalError at once instead of retrying past it
        assert proc.stdout.split() == ["1", "4", "internal-error"]
        assert "internal error: " in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_wrong_point_exits_four(self, tmp_path, monkeypatch, capsys):
        # the conic x0^2 + x1^2 = x2^2 has rational points; a search that
        # returns one off the conic must fail the final check, not exit 1
        inst = write_instance(
            tmp_path, QuadraticForm.diagonal([1, 1, -1, 1, 1]),
            QuadraticForm.diagonal([0, 0, 0, 1, -1]),
            LinearSubspace.standard(5, (0, 1, 2)))
        monkeypatch.setattr(
            descent, "conic_rational_point",
            lambda *a: (ProjectivePoint((1, 1, 1)), (1, 1, 1)))
        assert main(["find-point", inst]) == 4
        err = capsys.readouterr().err
        assert "internal error: candidate point fails" in err

    def test_holzer_exhaustion_exits_four(self, tmp_path, monkeypatch,
                                          capsys):
        # a local report that wrongly calls x^2 + y^2 - 3 z^2 solvable
        # sends the Lagrange descent after a point that does not exist
        inst = str(tmp_path / "p5.json")
        assert main(["gen", "--n", "5", "--seed", "9", "--out", inst]) == 0
        honest = localsolve.conic_local_report

        def lying(t):
            return dataclasses.replace(honest(t), globally_solvable=True)

        monkeypatch.setattr(localsolve, "conic_local_report", lying)
        monkeypatch.setattr(descent, "conic_local_report", lying)
        assert main(["find-point", inst]) == 4
        assert "internal error: Lagrange descent failed" in \
            capsys.readouterr().err

    def test_lying_report_exits_four_under_optimize(self, tmp_path):
        # sympy's descent checks with assert statements, which
        # python -O strips: the lying report must still end in exit 4
        inst = str(tmp_path / "p5.json")
        assert main(["gen", "--n", "5", "--seed", "9", "--out", inst]) == 0
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _LYING_REPORT, inst],
            capture_output=True, text=True, env=_src_env(), timeout=300)
        assert proc.stdout.split() == ["1", "4"], proc.stderr
        assert "internal error: " in proc.stderr
        assert "Traceback" not in proc.stderr
