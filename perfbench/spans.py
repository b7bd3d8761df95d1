"""Spans around calls into quadpencil's public functions, for traced runs.

``Tracer.install`` rebinds each traced function, in every quadpencil module
that holds it, to a wrapper that records a span; ``uninstall`` restores the
originals.  Spans nest on a stack: a span's self time is its duration minus
the time covered by the spans it caused.  Spans are aggregated as they
close (calls, self seconds, exceptions by type), so memory stays flat.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

MODULES = ("exact", "forms", "pencil", "normalize", "localsolve", "descent",
           "cli")

# (module, function) -> span name.  The three Weil steps share one span.
TRACED = {
    ("exact", "factor_poly"): "exact.factor_poly",
    ("exact", "rank_and_kernel"): "exact.rank_and_kernel",
    ("forms", "restrict_form"): "forms.restrict_form",
    ("forms", "form_rank"): "forms.form_rank",
    ("forms", "signature"): "forms.signature",
    ("pencil", "discriminant"): "pencil.discriminant",
    ("pencil", "pencil_det_poly"): "pencil.pencil_det_poly",
    ("normalize", "normalize_pencil"): "normalize.normalize_pencil",
    ("normalize", "hypothesis_report"): "normalize.hypothesis_report",
    ("localsolve", "reduce_ternary"): "localsolve.reduce_ternary",
    ("localsolve", "conic_local_report"): "localsolve.conic_local_report",
    ("localsolve", "conic_rational_point"): "localsolve.conic_rational_point",
    ("localsolve", "modp_counts"): "localsolve.modp_counts",
    ("localsolve", "padic_lift_obstruction"):
        "localsolve.padic_lift_obstruction",
    ("descent", "v0_membership"): "descent.v0_membership",
    ("descent", "restricted_discriminant"): "descent.restricted_discriminant",
    ("descent", "direct_point_search"): "descent.direct_point_search",
    ("descent", "residual_conic_fiber"): "descent.residual_conic_fiber",
    ("descent", "weil_restriction_split"): "descent.weil",
    ("descent", "weil_quadric_point"): "descent.weil",
    ("descent", "weil_point_transfer"): "descent.weil",
    ("cli", "dump_canonical"): "cli.dump_canonical",
}

# generator functions: count the items drawn, record no span
COUNTED = {("descent", "enumerate_hyperplanes"): "descent.hyperplanes.drawn"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()        # outcome counters, by name
        self.phase = "solve"           # 'solve', 'replay' or 'report'
        self._child_s = []             # child time of each open span
        self._saved = []               # (module, attr, original)
        self._seen_pencils = set()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                dur = time.perf_counter() - t0
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dur
                self.calls[name] += 1
                self.counts[f"{name}.calls.{self.phase}"] += 1
                self.self_s[name] += dur - child
            self._observe(name, args, result)
            return result
        return traced

    def _count_items(self, name, fn):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[name] += 1
                yield item
        return counted

    def _observe(self, name, args, result):
        if name == "pencil.discriminant":
            key = (args[0].F.gram, args[0].G.gram)
            if key not in self._seen_pencils:
                self._seen_pencils.add(key)
                self.counts["pencil.discriminant.unique"] += 1
        elif name == "descent.v0_membership" and result.accepted:
            self.counts["descent.v0_membership.accepted"] += 1
        elif name == "descent.direct_point_search" and result is not None:
            self.counts["descent.direct_point_search.hits"] += 1
        elif (name == "localsolve.padic_lift_obstruction"
              and result is not None):
            self.counts["localsolve.padic_lift_obstruction.certified"] += 1

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"quadpencil.{m}") for m in MODULES}
        mods["__init__"] = importlib.import_module("quadpencil")
        wrappers = {}
        for (home, attr), name in TRACED.items():
            fn = getattr(mods[home], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for (home, attr), name in COUNTED.items():
            fn = getattr(mods[home], attr)
            wrappers[id(fn)] = (fn, self._count_items(name, fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
