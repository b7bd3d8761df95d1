"""Command-line interface: instance files in, canonical JSON reports out.

Subcommands: analyze, classify, local-check, find-point, gen.  Exit codes:
0 success / point found, 1 certified local obstruction, 2 bounds exhausted,
3 invalid input, 4 internal error (a failed internal check).  Reports are
canonical JSON (sorted keys, integers and "p/q" strings, no floats); timing
fields are the only non-reproducible part.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .descent import (
    RetriesExhausted,
    SearchConfig,
    definite_member,
    find_rational_point,
    generate_planted_instance,
)
from .exact import InternalError, Poly, _frac
from .forms import LinearSubspace, ProjectivePoint, QuadraticForm
from .localsolve import BudgetExceeded, conic_local_report, modp_counts, \
    reduce_ternary
from .normalize import hypothesis_report, normalize_pencil, verify_conic_plane
from .pencil import (
    IdenticallyZeroDiscriminant,
    Pencil,
    condition_E_check,
    discriminant,
    multiplicity_bound_check,
    pencil_det_poly,
)


class InstanceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact-rational JSON helpers


def rat_to_json(x):
    x = _frac(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def rat_from_json(v):
    if isinstance(v, bool) or isinstance(v, float):
        raise InstanceError(f"entry {v!r} is not an exact rational")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"bad rational {v!r}: {exc}") from exc
    raise InstanceError(f"entry {v!r} is not an exact rational")


def jsonable(obj):
    """Recursively convert to canonical JSON values; Fractions become
    integers or 'p/q' strings, never floats."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, float):
        raise TypeError("floats are banned from reports")
    if isinstance(obj, Fraction) or isinstance(obj, int):
        return rat_to_json(obj)
    if isinstance(obj, Poly):
        return [rat_to_json(c) for c in obj.coeffs]
    if isinstance(obj, ProjectivePoint):
        return [int(c) for c in obj.coords]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_canonical(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# instance files


def matrix_from_json(rows, dim, name):
    if not isinstance(rows, list) or len(rows) != dim:
        raise InstanceError(f"{name}: expected {dim} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InstanceError(f"{name} row {i}: expected {dim} entries")
        out.append([rat_from_json(x) for x in row])
    for i in range(dim):
        for j in range(i):
            if out[i][j] != out[j][i]:
                raise InstanceError(
                    f"{name} is not symmetric at ({i},{j})")
    return out


def load_instance(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read instance {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("instance file must be a JSON object")
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError):
        raise InstanceError("field 'n' must be an integer")
    if n < 2:
        raise InstanceError(f"n = {n} is too small")
    dim = n + 1
    F = QuadraticForm(matrix_from_json(data.get("F"), dim, "F"))
    G = QuadraticForm(matrix_from_json(data.get("G"), dim, "G"))
    plane_rows = data.get("plane")
    if not isinstance(plane_rows, list) or len(plane_rows) != 3:
        raise InstanceError("field 'plane' must list 3 basis vectors")
    cols = []
    for k, vec in enumerate(plane_rows):
        if not isinstance(vec, list) or len(vec) != dim:
            raise InstanceError(f"plane vector {k}: expected {dim} entries")
        cols.append([rat_from_json(x) for x in vec])
    try:
        plane = LinearSubspace.span(dim, cols)
    except ValueError as exc:
        raise InstanceError(f"plane basis: {exc}") from exc
    meta = {k: data[k] for k in ("planted_point", "route", "seed")
            if k in data}
    return F, G, plane, meta


def instance_to_json(F, G, plane, meta=None):
    data = {
        "n": F.dim - 1,
        "F": [[rat_to_json(x) for x in row] for row in F.gram],
        "G": [[rat_to_json(x) for x in row] for row in G.gram],
        "plane": [[rat_to_json(x) for x in col] for col in plane.basis],
    }
    if meta:
        data.update(meta)
    return data


# ---------------------------------------------------------------------------
# report fragments


def poly_json(p: Poly):
    return [rat_to_json(c) for c in p.coeffs]


def record_json(rec):
    rad = []
    for vec in rec.radical:
        rad.append([rat_to_json(x) if rec.fld is None else poly_json(x)
                    for x in vec])
    return {
        "kind": rec.kind,
        "factor": None if rec.factor is None else poly_json(rec.factor),
        "degree": rec.degree,
        "multiplicity": rec.multiplicity,
        "rank": rec.rank,
        "radical": rad,
    }


def discriminant_json(d):
    return {
        "P": poly_json(d.P),
        "unit": rat_to_json(d.factorization.unit),
        "factors": [{"poly": poly_json(f), "multiplicity": e}
                    for f, e in d.factorization.factors],
        "mu_multiplicity": d.mu_multiplicity,
        "records": [record_json(r) for r in d.records],
    }


def census_json(c):
    return {
        "s": c.s,
        "inequality_ok": c.inequality_ok,
        "members": [{"kind": m.kind, "rank": m.rank,
                     "lambda": None if m.lam is None else rat_to_json(m.lam),
                     "factor": None if m.factor is None else poly_json(m.factor),
                     "count": m.count} for m in c.members],
    }


def report_json(rep):
    return {
        "n": rep.n,
        "route": rep.route,
        "non_conical": rep.non_conical,
        "rank_f": rep.rank_f,
        "rank_g": rep.rank_g,
        "min_member_rank": rep.min_member_rank,
        "hypothesis_failures": list(rep.hypothesis_failures),
        "notes": list(rep.notes),
        "census": census_json(rep.census),
    }


def _emit(report, out_path):
    text = dump_canonical(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args):
    F, G, plane, _ = load_instance(args.instance)
    t0 = time.monotonic()
    pencil = Pencil(F, G)
    report = {"command": "analyze", "instance": args.instance}
    try:
        d = discriminant(pencil)
        report["discriminant"] = discriminant_json(d)
        report["multiplicity_bound_ok"] = multiplicity_bound_check(d, F.dim - 1)
        report["smooth"] = d.smooth
    except IdenticallyZeroDiscriminant:
        report["discriminant"] = None
        report["note"] = "det(F + lambda G) = 0 identically"
        report["smooth"] = False
    report["timings"] = {"seconds": f"{time.monotonic() - t0:.3f}"}
    _emit(report, args.out)
    return 0


def cmd_classify(args):
    F, G, plane, _ = load_instance(args.instance)
    t0 = time.monotonic()
    cfg = verify_conic_plane(F, G, plane)
    sys_ = normalize_pencil(F, G, cfg)
    rep = hypothesis_report(sys_)
    report = {"command": "classify", "instance": args.instance,
              "hypothesis": report_json(rep),
              "discriminant": discriminant_json(rep.disc)}
    if rep.n == 4:
        e = condition_E_check(rep.disc)
        report["condition_E"] = {
            "holds": e.holds,
            "witness": None if e.witness is None else jsonable(list(e.witness)),
            "notes": list(e.notes)}
    report["timings"] = {"seconds": f"{time.monotonic() - t0:.3f}"}
    _emit(report, args.out)
    return 0


def cmd_local_check(args):
    F, G, plane, _ = load_instance(args.instance)
    t0 = time.monotonic()
    cfg = verify_conic_plane(F, G, plane)
    sys_ = normalize_pencil(F, G, cfg)
    ternary = reduce_ternary(sys_.conic_form)
    lrep = conic_local_report(ternary)
    report = {"command": "local-check", "instance": args.instance,
              "conic": {"reduced": [ternary.a, ternary.b, ternary.c],
                        "verdicts": [[pl, ok] for pl, ok in lrep.verdicts],
                        "globally_solvable": lrep.globally_solvable}}
    conic_real = dict(lrep.verdicts)["oo"]
    report["real"] = {
        "conic_real": conic_real,
        "definite_member": definite_member(
            sys_, pencil_det_poly(sys_.F, sys_.G), conic_real)}
    modp = {}
    for p in (2, 3):
        if p ** sys_.dim > args.prime_budget:
            modp[str(p)] = "skipped (budget)"
            continue
        try:
            total, smooth, sample = modp_counts(sys_.F, sys_.G, p,
                                                args.prime_budget)
            modp[str(p)] = {"total": total, "smooth": smooth,
                            "sample": None if sample is None else list(sample)}
        except (ValueError, BudgetExceeded) as exc:
            modp[str(p)] = f"skipped ({exc})"
    report["mod_p"] = modp
    report["timings"] = {"seconds": f"{time.monotonic() - t0:.3f}"}
    _emit(report, args.out)
    return 0


def cmd_find_point(args):
    F, G, plane, _ = load_instance(args.instance)
    t0 = time.monotonic()
    config = SearchConfig(
        height_bound=args.height_bound,
        prime_budget=args.prime_budget,
        direct_height=min(SearchConfig.direct_height, args.height_bound))
    outcome = find_rational_point(F, G, plane, config)
    report = {"command": "find-point", "instance": args.instance,
              "flags": {"height_bound": args.height_bound,
                        "prime_budget": args.prime_budget},
              "status": outcome.status,
              "route": outcome.route,
              "notes": list(outcome.notes)}
    if outcome.report is not None:
        report["hypothesis"] = report_json(outcome.report)
    if outcome.trace is not None:
        report["trace"] = outcome.trace
    if outcome.point is not None:
        report["point"] = list(outcome.point.coords)
    if outcome.obstruction is not None:
        report["obstruction"] = outcome.obstruction
    report["timings"] = {"seconds": f"{time.monotonic() - t0:.3f}"}
    _emit(report, args.out)
    return {"point": 0, "obstruction": 1, "exhausted": 2}[outcome.status]


DEFAULT_CONIC = ((1, 0, 0), (0, 1, 0), (0, 0, -3))


def cmd_gen(args):
    conic = QuadraticForm(DEFAULT_CONIC)
    dim = args.n + 1
    rng = random.Random(args.seed)
    point = [rng.randint(-3, 3) for _ in range(dim)]
    if all(x == 0 for x in point[3:]):
        point[3] = 1
    F, G, plane = generate_planted_instance(
        args.n, conic, point, coefficient_height=args.coefficient_height,
        seed=args.seed, route=args.route)
    data = instance_to_json(F, G, plane,
                            meta={"planted_point": list(ProjectivePoint(
                                      tuple(point)).coords),
                                  "seed": args.seed})
    if args.route:
        data["route"] = args.route
    _emit(data, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # unknown flags and malformed values are invalid input: exit 3
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def build_parser():
    parser = _Parser(prog="quadpencil",
                     description="pencils of quadrics over Q: analysis and "
                                 "rational point search",
                     epilog="exit codes: 0 success or point found, 1 certified "
                            "local obstruction, 2 search bounds exhausted, "
                            "3 invalid input, 4 internal error")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("instance", help="instance JSON file")
        p.add_argument("--out", default=None, help="report path (default stdout)")

    p = sub.add_parser("analyze", help="discriminant, ranks, smoothness")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="hypothesis report, census, routes")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("local-check", help="conic and small-prime reports")
    common(p)
    p.add_argument("--prime-budget", type=int,
                   default=SearchConfig.prime_budget)
    p.set_defaults(func=cmd_local_check)

    p = sub.add_parser("find-point", help="full descent point search")
    common(p)
    p.add_argument("--prime-budget", type=int,
                   default=SearchConfig.prime_budget)
    p.add_argument("--height-bound", type=int, default=50)
    p.set_defaults(func=cmd_find_point)

    p = sub.add_parser("gen", help="write a planted instance file")
    common(p, instance=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--route", default=None)
    p.add_argument("--coefficient-height", type=int, default=9)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        return args.func(args)
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    except (InstanceError, ValueError, ArithmeticError,
            RetriesExhausted) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
