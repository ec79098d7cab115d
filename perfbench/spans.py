"""Per-layer spans, recorded from outside ltavg by wrapping its public functions.

`Tracer.install()` replaces each target function with a wrapper in every
loaded ltavg module that binds it, so `from ... import` copies such as
`experiments.trace_matrix` or `experiments.hurwitz_H` are traced where they
are used.  Methods are replaced on their class.  Each call records one span
(name, start, end, parent index); spans stay in memory until `layers()` and
`dump()` read them after the run.  A span's self time is its duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# (module, attribute) of every traced function; a dotted attribute is a method
TARGETS = (
    ("ltavg.ltconstant", "constant_sum"),
    ("ltavg.ltconstant", "constant_product"),
    ("ltavg.ltconstant", "pi_half"),
    ("ltavg.primes", "phi_sieve"),
    ("ltavg.primes", "spf_sieve"),
    ("ltavg.primes", "sieve_primes"),
    ("ltavg.classnumber", "hurwitz_H"),
    ("ltavg.classnumber", "class_number_h"),
    ("ltavg.classnumber", "L1_formula"),
    ("ltavg.curves", "trace_matrix"),
    ("ltavg.curves", "trace_grid"),
    ("ltavg.curves", "isogeny_mass_oracle"),
    ("ltavg.numberfield", "parse_field"),
    ("ltavg.numberfield", "GaloisFieldSpec.split_primes"),
    ("ltavg.numberfield", "GaloisFieldSpec.roots_mod"),
    ("ltavg.gfpoly", "x_pow_p_mod"),
    ("ltavg.gfpoly", "roots"),
)

# every metric the traced run reports, in BENCHMARK.json order; a layer that
# does not run on a workload reads 0
LAYER_METRICS = (
    ("ltconstant.constant_sum.s", "s", "lower"),
    ("ltconstant.engine_mb", "MB", "lower"),
    ("ltconstant.constant_product.s", "s", "lower"),
    ("ltconstant.pi_half.s", "s", "lower"),
    ("ltconstant.pi_half.calls", "count", "lower"),
    ("primes.phi_sieve.s", "s", "lower"),
    ("primes.spf_sieve.s", "s", "lower"),
    ("primes.sieve_primes.s", "s", "lower"),
    ("classnumber.hurwitz_H.self_s", "s", "lower"),
    ("classnumber.hurwitz_H.calls", "count", "lower"),
    ("classnumber.hurwitz_H.memo_hits", "count", "higher"),
    ("classnumber.class_number_h.s", "s", "lower"),
    ("classnumber.class_number_h.calls", "count", "lower"),
    ("classnumber.L1_formula.self_s", "s", "lower"),
    ("classnumber.L1_formula.calls", "count", "lower"),
    ("classnumber.memo_entries", "count", "lower"),
    ("curves.trace_matrix.s", "s", "lower"),
    ("curves.trace_matrix.calls", "count", "lower"),
    ("curves.trace_matrix.cells", "count", "lower"),
    ("curves.trace_matrix.hit_ratio", "ratio", "higher"),
    ("curves.trace_grid.self_s", "s", "lower"),
    ("curves.isogeny_mass_oracle.self_s", "s", "lower"),
    ("curves.char_table_mb", "MB", "lower"),
    ("curves.trace_grid_mb", "MB", "lower"),
    ("numberfield.parse_field.s", "s", "lower"),
    ("numberfield.split_primes.s", "s", "lower"),
    ("numberfield.split_primes.calls", "count", "lower"),
    ("numberfield.roots_mod.s", "s", "lower"),
    ("numberfield.roots_mod.calls", "count", "lower"),
    ("gfpoly.x_pow_p_mod.s", "s", "lower"),
    ("gfpoly.roots.s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.primes", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

MB = 2.0**20


def _nbytes(obj) -> int:
    """Bytes held by the numpy arrays reachable from a memo value."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(v) for v in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(v) for v in vars(obj).values())
    return 0


class Tracer:
    def __init__(self, hit_trace: int):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.hit_trace = hit_trace
        self.cells = 0
        self.hits = 0
        self.map_items = 0

    # -- span recording --------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a root span (used for the runner calls)."""
        return self.span(name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ltavg" or n.startswith("ltavg.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[mod_name]
            layer = mod_name.split(".", 1)[1]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.span(f"{layer}.{meth}", getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self.span(f"{layer}.{attr}", orig)
            if attr == "trace_matrix":
                # counted outside the span, so the kernel time stays clean
                wrapped = self._counted_trace_matrix(wrapped)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        experiments = sys.modules["ltavg.experiments"]
        orig_map = experiments._map_primes

        def counted_map(name, items, workers, **config):
            self.map_items += len(items)
            return orig_map(name, items, workers, **config)

        experiments._map_primes = counted_map

    def _counted_trace_matrix(self, fn):
        def counted(p, a_values, b_values):
            traces, nonsingular = fn(p, a_values, b_values)
            self.cells += traces.size * int(p)
            self.hits += int(((traces == self.hit_trace) & nonsingular).sum())
            return traces, nonsingular

        return counted

    # -- read-out -----------------------------------------------------------

    def _totals(self):
        inclusive: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        nested: set[int] = set()
        for i, (name, start, end, parent) in enumerate(self.spans):
            # a span inside another span of the same name is already counted
            # in that span's inclusive time
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    nested.add(i)
                    break
                p = self.spans[p][3]
            if i not in nested:
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
        return inclusive, self_time, calls

    def layers(self, memo_before: dict) -> dict[str, float]:
        inclusive, self_time, calls = self._totals()
        ltconstant = sys.modules["ltavg.ltconstant"]
        classnumber = sys.modules["ltavg.classnumber"]
        curves = sys.modules["ltavg.curves"]
        # trace.overhead_ratio compares two children, so the parent sets it
        out = {name: 0.0 for name, _, _ in LAYER_METRICS if name != "trace.overhead_ratio"}
        for name in inclusive:
            if name.startswith("experiments."):
                out["experiments.self_s"] += self_time[name]
        for name in ("constant_sum", "constant_product", "pi_half"):
            out[f"ltconstant.{name}.s"] = inclusive.get(f"ltconstant.{name}", 0.0)
        out["ltconstant.pi_half.calls"] = calls.get("ltconstant.pi_half", 0)
        for name in ("phi_sieve", "spf_sieve", "sieve_primes"):
            out[f"primes.{name}.s"] = inclusive.get(f"primes.{name}", 0.0)
        for name in ("hurwitz_H", "L1_formula"):
            out[f"classnumber.{name}.self_s"] = self_time.get(f"classnumber.{name}", 0.0)
            out[f"classnumber.{name}.calls"] = calls.get(f"classnumber.{name}", 0)
        out["classnumber.class_number_h.s"] = inclusive.get("classnumber.class_number_h", 0.0)
        out["classnumber.class_number_h.calls"] = calls.get("classnumber.class_number_h", 0)
        growth = len(classnumber._hurwitz_memo) - memo_before["hurwitz"]
        out["classnumber.hurwitz_H.memo_hits"] = calls.get("classnumber.hurwitz_H", 0) - growth
        out["classnumber.memo_entries"] = len(classnumber._h_memo) + len(classnumber._hurwitz_memo)
        out["curves.trace_matrix.s"] = inclusive.get("curves.trace_matrix", 0.0)
        out["curves.trace_matrix.calls"] = calls.get("curves.trace_matrix", 0)
        out["curves.trace_matrix.cells"] = self.cells
        out["curves.trace_matrix.hit_ratio"] = self.hits / self.cells if self.cells else 0.0
        for name in ("trace_grid", "isogeny_mass_oracle"):
            out[f"curves.{name}.self_s"] = self_time.get(f"curves.{name}", 0.0)
        out["ltconstant.engine_mb"] = _nbytes(ltconstant._engines) / MB
        out["curves.char_table_mb"] = _nbytes(curves._char_tables) / MB
        out["curves.trace_grid_mb"] = _nbytes(curves._trace_grids) / MB
        out["numberfield.parse_field.s"] = inclusive.get("numberfield.parse_field", 0.0)
        for name in ("split_primes", "roots_mod"):
            out[f"numberfield.{name}.s"] = inclusive.get(f"numberfield.{name}", 0.0)
            out[f"numberfield.{name}.calls"] = calls.get(f"numberfield.{name}", 0)
        out["gfpoly.x_pow_p_mod.s"] = inclusive.get("gfpoly.x_pow_p_mod", 0.0)
        out["gfpoly.roots.s"] = inclusive.get("gfpoly.roots", 0.0)
        out["experiments.primes"] = self.map_items
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
