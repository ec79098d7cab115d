"""One operation round in a fresh process: set up, run the runner calls, write the bodies.

Usage: python3 perfbench/child.py SPEC_JSON OUT_JSON

SPEC_JSON holds the workload name, its inputs and whether to trace.  The child
times `import ltavg` plus `parse_field` (setup_s) and the sum of its runner
calls (compute_s), then writes those times, the report bodies and, when
traced, the per-layer numbers to OUT_JSON.  Only the standard library is
imported before the setup clock starts.
"""

import json
import sys
import time


def _calls(ltavg, field, spec):
    """(runner name, thunk) for each runner call of the workload, in order.

    Each call passes the arguments its CLI subcommand would, with workers=1.
    """
    E = ltavg.experiments
    args = spec["inputs"]
    name = spec["workload"]
    if name == "series":
        return [("constant_report", lambda: E.constant_report(
            field, args["r"], method="both", k_max=args["k_max"], n_max=args["n_max"],
            l_max=args["l_max"], workers=1))]
    if name in ("classsum", "field"):
        cps = tuple(args["checkpoints"])
        calls = [("hurwitz_sum_report", lambda: E.hurwitz_sum_report(
            field, args["r"], args["x"], checkpoints=cps, workers=1))]
        if name == "classsum":
            calls.append(("a1_report", lambda: E.a1_report(
                field, args["r"], args["x"], checkpoints=cps, workers=1)))
        return calls
    if name == "box":
        box = E.CurveBox(**args["box"])
        return [("box_average", lambda: E.box_average(
            field, box, args["r"], 1, args["x"], checkpoints=tuple(args["checkpoints"]), workers=1))]
    if name == "deuring":
        return [("deuring_check", lambda: E.deuring_check(args["p_max"]))]
    raise ValueError(f"unknown workload {name!r}")


def main(spec_path: str, out_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    traced = spec["trace"]
    t0 = time.perf_counter()
    import ltavg

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer(hit_trace=spec["inputs"].get("r", 1))
        tracer.install()
    field = ltavg.parse_field(spec["inputs"]["field"])
    setup_s = time.perf_counter() - t0

    memo_before = {"hurwitz": len(ltavg.classnumber._hurwitz_memo)}
    bodies, call_s = [], []
    for runner, thunk in _calls(ltavg, field, spec):
        t = time.perf_counter()
        report = tracer.call(f"experiments.{runner}", thunk) if tracer else thunk()
        call_s.append(time.perf_counter() - t)
        bodies.append(report.body())
    out = {"setup_s": setup_s, "compute_s": sum(call_s), "call_s": call_s, "bodies": bodies}
    if tracer:
        out["layers"] = tracer.layers(memo_before)
        tracer.dump(spec["spans_path"])
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
