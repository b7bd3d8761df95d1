#!/usr/bin/env python3
"""quadpencil benchmark: verdict latency, throughput and resolved share.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Load is a closed loop: one client, one instance at a time, in this single
process.  The seed builds a fixed pool of instances in rounds of a fixed
mix (see workloads.py); the run solves whole rounds, cycling through the
pool, until the next round would overrun ``--seconds``, and at least as
many instances as the workload's tail percentile needs to leave ten
solves beyond it.  Every verdict is checked independently: a point is
evaluated on the original forms with this file's own exact evaluator and
its trace replayed; an obstruction is replayed.  A wrong verdict, a failed
replay, an obstruction on a planted instance or a point on an obstructed
one aborts the run with exit status 1.  A solve that raises counts as
failed and unresolved.  "exhausted" counts as unresolved but not failed,
since it is an honest verdict.  So does a solve cut at SOLVE_LIMIT_S: the
search has no global budget yet, and about one planted P^5-P^7 instance in
a hundred walks the whole hyperplane space for minutes; the limit is the
budget the program lacks; the cut shows in resolved_ratio, and the
detail line counts it under "overrun".

``--trace 0`` prints the end-to-end metrics.  setup_s is the time from
process start to the end of the imports plus the round count times the
median time to build one round (each round is one set-up of the same
recipe).  ``--trace 1`` ignores ``--seconds``: it solves each round of the
first half of the pool (the same work for every run of a seed) once
untraced and once traced, and prints the per-layer metrics from spans recorded around
calls into each quadpencil module, the tracing overhead, and a digest of
the canonical find-point reports without their timings.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("descent", "fibers", "obstruction")
SOLVE_LIMIT_S = 5


class WrongVerdict(Exception):
    pass


class SolveOverrun(BaseException):
    """Raised inside a solve that runs past SOLVE_LIMIT_S; a BaseException
    so that no handler in the prover swallows it."""


def _overrun(signum, frame):
    raise SolveOverrun()


def load_program():
    """Import quadpencil from this checkout's src/ and the workloads."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import quadpencil
    if Path(quadpencil.__file__).resolve().parent != src / "quadpencil":
        raise ImportError(f"quadpencil not found under {src}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# independent verdict check


def quad_value(gram, x):
    """x^T A x in exact rationals."""
    x = [Fraction(v) for v in x]
    return sum(Fraction(a) * x[i] * x[j]
               for i, row in enumerate(gram) for j, a in enumerate(row))


def check_point(inst, point):
    if inst.family != "planted":
        raise WrongVerdict(f"{inst.label}: point on an obstructed instance")
    coords = list(point.coords)
    if not any(coords) or len(coords) != inst.F.dim:
        raise WrongVerdict(f"{inst.label}: malformed point {coords}")
    vf, vg = quad_value(inst.F.gram, coords), quad_value(inst.G.gram, coords)
    if vf or vg:
        raise WrongVerdict(f"{inst.label}: point {coords} gives F={vf} G={vg}")


# ---------------------------------------------------------------------------
# one instance


class Run:
    def __init__(self, quadpencil_modules):
        self.descent, self.cli = quadpencil_modules
        self.solve_s = []      # every solve, failed ones too
        self.done_s = []       # solves that returned a verdict
        self.replay_s = []
        self.status = {"point": 0, "obstruction": 0, "exhausted": 0,
                       "error": 0, "overrun": 0}
        self.report_hash = hashlib.sha256()
        self.report_bytes = 0

    def find_point_report(self, inst, out):
        """The find-point report of the CLI, without its timings."""
        cfg = self.descent.SearchConfig()
        report = {"command": "find-point", "instance": inst.label,
                  "flags": {"height_bound": cfg.height_bound,
                            "prime_budget": cfg.prime_budget},
                  "status": out.status, "route": out.route,
                  "notes": list(out.notes)}
        if out.report is not None:
            report["hypothesis"] = self.cli.report_json(out.report)
        if out.trace is not None:
            report["trace"] = out.trace
        if out.point is not None:
            report["point"] = list(out.point.coords)
        if out.obstruction is not None:
            report["obstruction"] = out.obstruction
        return report

    def instance(self, inst, tracer=None):
        d = self.descent
        if tracer is not None:
            tracer.phase = "solve"
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SOLVE_LIMIT_S)
        try:
            out = d.find_rational_point(inst.F, inst.G, inst.plane)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except (Exception, SolveOverrun) as exc:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.solve_s.append(time.perf_counter() - t0)
            kind = "overrun" if isinstance(exc, SolveOverrun) else "error"
            self.status[kind] += 1
            print(f"# {inst.label}: {kind}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return
        self.solve_s.append(time.perf_counter() - t0)
        self.done_s.append(self.solve_s[-1])
        if out.status not in ("point", "obstruction", "exhausted"):
            raise WrongVerdict(f"{inst.label}: unknown status {out.status}")
        self.status[out.status] += 1
        if tracer is not None:
            tracer.phase = "replay"
        if out.status == "point":
            check_point(inst, out.point)
            t0 = time.perf_counter()
            ok = self._replay(d.replay_trace, inst, out.trace)
            self.replay_s.append(time.perf_counter() - t0)
        elif out.status == "obstruction":
            if inst.family != "obstructed":
                raise WrongVerdict(f"{inst.label}: obstruction on a planted "
                                   f"instance: {out.obstruction}")
            t0 = time.perf_counter()
            ok = self._replay(d.replay_obstruction, inst, out.obstruction)
            self.replay_s.append(time.perf_counter() - t0)
        else:
            ok = True
        if not ok:
            raise WrongVerdict(f"{inst.label}: {out.status} does not replay")
        if tracer is not None:
            tracer.phase = "report"
        text = self.cli.dump_canonical(self.find_point_report(inst, out))
        self.report_bytes += len(text.encode())
        self.report_hash.update(text.encode())

    @staticmethod
    def _replay(fn, inst, certificate):
        try:
            return fn(inst.F, inst.G, inst.plane, certificate) is True
        except Exception as exc:
            print(f"# {inst.label}: replay raised {type(exc).__name__}: "
                  f"{exc}", file=sys.stderr)
            return False

    def round(self, rnd, tracer=None):
        for inst in rnd:
            self.instance(inst, tracer)

    def timed(self, pool, seconds, least):
        """Whole rounds, cycling through the pool, until the next round
        would overrun ``seconds`` and at least ``least`` solves are done."""
        t0 = time.perf_counter()
        done = 0
        for rnd in itertools.cycle(pool):
            for inst in rnd:
                self.instance(inst)
            done += 1
            elapsed = time.perf_counter() - t0
            if (elapsed * (done + 1) / done > seconds
                    and len(self.solve_s) >= least):
                return done


# ---------------------------------------------------------------------------
# metrics


def min_samples(p):
    """Fewest solves that leave at least ten beyond percentile p."""
    n = 10
    while n - math.ceil(p * n) < 10:
        n += 1
    return n


def percentile(samples, p):
    """Nearest-rank percentile."""
    xs = sorted(samples)
    return xs[math.ceil(p * len(xs)) - 1]


def end_to_end(run, setup_s, tail_p):
    solves = run.solve_s
    resolved = run.status["point"] + run.status["obstruction"]
    metrics = {
        "solve_s.p50": (statistics.median(solves), "s"),
        "solve_s.tail": (percentile(solves, tail_p), "s"),
        "instances_per_s": (ips(run), "1/s"),
        "replay_s.p50": (statistics.median(run.replay_s), "s"),
        "resolved_ratio": (resolved / len(solves), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics


def failures(run):
    return run.status["error"]


def ips(run):
    """Instances completed (a verdict returned) per second of their solve
    time; failed and cut solves show in resolved_ratio."""
    return len(run.done_s) / sum(run.done_s)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, run, traced_ips, untraced_ips):
    c, s, k = tracer.calls, tracer.self_s, tracer.counts
    fiber_calls = k["descent.residual_conic_fiber.calls.solve"]
    volume_skips = k["localsolve.conic_rational_point.raised."
                     "SearchVolumeExceeded"]
    metrics = {
        "pencil.discriminant.calls": (c["pencil.discriminant"], "count"),
        "pencil.discriminant.s": (s["pencil.discriminant"], "s"),
        "pencil.discriminant.unique_ratio": (
            _ratio(k["pencil.discriminant.unique"], c["pencil.discriminant"]),
            "ratio"),
        "pencil.pencil_det_poly.s": (s["pencil.pencil_det_poly"], "s"),
        "exact.factor_poly.s": (s["exact.factor_poly"], "s"),
        "exact.rank_and_kernel.s": (s["exact.rank_and_kernel"], "s"),
        "normalize.normalize_pencil.s": (s["normalize.normalize_pencil"], "s"),
        "normalize.hypothesis_report.calls": (
            c["normalize.hypothesis_report"], "count"),
        "normalize.hypothesis_report.s": (
            s["normalize.hypothesis_report"], "s"),
        "descent.hyperplanes.drawn": (k["descent.hyperplanes.drawn"], "count"),
        "descent.v0_membership.calls": (c["descent.v0_membership"], "count"),
        "descent.v0.accept_ratio": (
            _ratio(k["descent.v0_membership.accepted"],
                   c["descent.v0_membership"]), "ratio"),
        "descent.restricted_discriminant.s": (
            s["descent.restricted_discriminant"], "s"),
        "descent.direct_point_search.calls": (
            c["descent.direct_point_search"], "count"),
        "descent.direct_point_search.s": (
            s["descent.direct_point_search"], "s"),
        "descent.direct_point_search.hit_ratio": (
            _ratio(k["descent.direct_point_search.hits"],
                   c["descent.direct_point_search"]), "ratio"),
        "descent.residual_conic_fiber.calls": (
            c["descent.residual_conic_fiber"], "count"),
        "descent.residual_conic_fiber.s": (
            s["descent.residual_conic_fiber"], "s"),
        "descent.fibers.per_point": (
            _ratio(fiber_calls, run.status["point"]), "count"),
        "localsolve.reduce_ternary.s": (s["localsolve.reduce_ternary"], "s"),
        "localsolve.conic_local_report.s": (
            s["localsolve.conic_local_report"], "s"),
        "localsolve.conic_rational_point.s": (
            s["localsolve.conic_rational_point"], "s"),
        "localsolve.conic_rational_point.volume_skip_ratio": (
            _ratio(volume_skips, c["localsolve.conic_rational_point"]),
            "ratio"),
        "descent.weil.s": (s["descent.weil"], "s"),
        "localsolve.modp_counts.s": (s["localsolve.modp_counts"], "s"),
        "localsolve.padic_lift_obstruction.calls": (
            c["localsolve.padic_lift_obstruction"], "count"),
        "localsolve.padic_lift_obstruction.s": (
            s["localsolve.padic_lift_obstruction"], "s"),
        "localsolve.padic_lift_obstruction.certified_ratio": (
            _ratio(k["localsolve.padic_lift_obstruction.certified"],
                   c["localsolve.padic_lift_obstruction"]), "ratio"),
        "forms.signature.s": (s["forms.signature"], "s"),
        "forms.restrict_form.calls": (c["forms.restrict_form"], "count"),
        "forms.restrict_form.s": (s["forms.restrict_form"], "s"),
        "forms.form_rank.s": (s["forms.form_rank"], "s"),
        "cli.dump_canonical.s": (s["cli.dump_canonical"], "s"),
        "cli.report_bytes": (run.report_bytes, "bytes"),
        "instances_per_s.traced": (traced_ips, "1/s"),
        "instances_per_s.untraced": (untraced_ips, "1/s"),
        "trace.overhead_ratio": (_ratio(untraced_ips, traced_ips), "ratio"),
    }
    return metrics


# ---------------------------------------------------------------------------
# running a workload


def set_up(workloads, name, seed):
    """Build the pool round by round.  Returns (pool, fingerprint, build
    time), the build time being the round count times the median round
    build time: each round is one set-up of the same recipe."""
    pool, times = [], []
    gen = workloads.rounds(name, seed)
    while True:
        t0 = time.perf_counter()
        rnd = next(gen, None)
        if rnd is None:
            break
        times.append(time.perf_counter() - t0)
        pool.append(rnd)
    digest = workloads.fingerprint(pool)
    again = workloads.fingerprint([next(workloads.rounds(name, seed))])
    if again != workloads.fingerprint(pool[:1]):
        raise WrongVerdict("the same seed generated different inputs")
    return pool, digest, len(times) * statistics.median(times)


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def run_workload(args):
    try:
        workloads = load_program()
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    import quadpencil.cli
    import quadpencil.descent
    from spans import Tracer
    import_s = time.perf_counter() - T_START

    pool, digest, gen_s = set_up(workloads, args.workload, args.seed)
    setup_s = import_s + gen_s
    baseline = json.loads((HERE / "baseline.json").read_text())
    pinned = baseline["fingerprints"][args.workload].get(str(args.seed))
    if pinned is not None and pinned != digest:
        print(f"input fingerprint {digest} differs from the pinned {pinned}: "
              f"the generator changed the {args.workload} workload",
              file=sys.stderr)
        return 3

    modules = (quadpencil.descent, quadpencil.cli)
    run = Run(modules)
    detail = {"workload": args.workload, "seed": args.seed,
              "instances": sum(map(len, pool)), "fingerprint": digest}
    if args.trace:
        # each round untraced and traced, in alternating order, so that
        # warm-up and drift of the machine fall on both sides
        untraced, tracer = Run(modules), Tracer()
        for i, rnd in enumerate(pool[:(len(pool) + 1) // 2]):
            for traced in ((False, True), (True, False))[i % 2]:
                if not traced:
                    untraced.round(rnd)
                    continue
                tracer.install()
                try:
                    run.round(rnd, tracer)
                finally:
                    tracer.uninstall()
        metrics = per_layer(tracer, run, ips(run), ips(untraced))
        attempted = len(run.solve_s) + len(untraced.solve_s)
        failed = failures(run) + failures(untraced)
        detail["report_digest"] = untraced.report_hash.hexdigest()
    else:
        tail_p = workloads.WORKLOADS[args.workload].tail
        detail["rounds"] = run.timed(pool, args.seconds, min_samples(tail_p))
        metrics = end_to_end(run, setup_s, tail_p)
        detail.update(tail_percentile=tail_p, solves=len(run.solve_s))
        attempted, failed = len(run.solve_s), failures(run)
    detail["verdicts"] = run.status
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:52s} {value:14.6f} {unit}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(result_line(True, attempted, failed, metrics))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            metrics[f"{name}.{k}"] = (v["value"], v["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _overrun)
    try:
        return run_workload(args)
    except WrongVerdict as exc:
        print(f"WRONG VERDICT: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
