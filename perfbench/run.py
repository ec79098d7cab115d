"""Benchmark for ltavg: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root.  Each operation round runs in a fresh,
single-threaded child process (perfbench/child.py), one child at a time, in a
closed loop until S seconds have passed.  After each child exits, its report
bodies are checked here against computations made apart from ltavg
(perfbench/reference.py).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the full record of the run,
with the machine context, goes to perfbench/out/.

--trace 0 reports the end-to-end medians over the children.  --trace 1
alternates untraced and traced children and reports the per-layer numbers
(medians over the traced children) and the tracing overhead.
--selfcheck runs every workload at small sizes, traced and untraced, and
checks that a perturbed body fails its check.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import reference as ref
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("series", "classsum", "box", "deuring", "field")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("compute_s", "s"), ("peak_rss_mb", "MB"))
RUN_LIMIT_S = 170.0  # a run, children included, ends within this


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, quick: bool = False) -> dict:
    """Inputs of one workload; the same seed gives the same inputs.

    The seed moves nothing that changes the amount of work: an extra
    checkpoint, the box centre (for p > 31 each box side has 31 distinct
    residues wherever it sits) and the primes whose single counts are read.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series":
        if quick:
            return {"field": "Q", "r": 1, "k_max": 40, "n_max": 300, "l_max": 10_000}
        return {"field": "Q", "r": 1, "k_max": 200, "n_max": 2000, "l_max": 100_000}
    if workload in ("classsum", "field"):
        x = 3000 if quick else 20_000
        fixed = [1000] if quick else [1000, 10_000]
        extra = rng.randint(fixed[-1] + 1, x - 1)
        name = "Q" if workload == "classsum" else "Q_zeta5"
        return {"field": name, "r": 1, "x": x, "checkpoints": sorted(fixed + [extra])}
    if workload == "box":
        x = 1500 if quick else 2500
        n_single = 2 if quick else 8
        singles = sorted(rng.sample([p for p in ref.primes_up_to(x) if p > 1000], n_single))
        cps = sorted({1000, *singles, *(q - 1 for q in singles)})
        centre = [rng.choice((-1, 1)) * rng.randint(1000, 1_000_000) for _ in range(2)]
        box = {"a1": [centre[0]], "b1": [15], "a2": [centre[1]], "b2": [15]}
        return {"field": "Q", "r": 1, "x": x, "box": box, "checkpoints": cps, "single_primes": singles}
    if workload == "deuring":
        return {"field": "Q", "p_max": 60 if quick else 300}
    raise ValueError(f"unknown workload {workload!r}")


def make_checker(workload: str, inputs: dict):
    """Reference data for the inputs and a function from bodies to per-operation errors."""
    if workload == "series":
        return lambda bodies: [ref.check_series(bodies[0], inputs["l_max"])]
    if workload in ("classsum", "field"):
        n_K = 1 if inputs["field"] == "Q" else 4
        data = ref.ClassSumReference(inputs["field"], n_K, inputs["r"], inputs["x"], inputs["checkpoints"])
        if workload == "field":
            return lambda bodies: [ref.check_hurwitz(bodies[0], data)]
        return lambda bodies: [ref.check_hurwitz(bodies[0], data), ref.check_a1(bodies[1], data)]
    if workload == "box":
        data = ref.BoxReference(inputs["box"], inputs["r"], 1000, inputs["single_primes"])
        return lambda bodies: [ref.check_box(bodies[0], data)]
    if workload == "deuring":
        return lambda bodies: [ref.check_deuring(bodies[0], inputs["p_max"])]
    raise ValueError(f"unknown workload {workload!r}")


OPS_PER_ROUND = {"series": 1, "classsum": 2, "box": 1, "deuring": 1, "field": 1}


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LT_AVG_CACHE_DIR", None)  # the disk spill would serve an earlier run's values
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(workload: str, inputs: dict, traced: bool, deadline: float) -> dict:
    """Spawn one child, wait for it alone, and return its timings and bodies.

    wall_s runs from just before the spawn to the reaping of the child;
    peak_rss_mb is that child's ru_maxrss from wait4.
    """
    tag = f"{os.getpid()}-{workload}"
    spec_path, out_path = OUT / f"spec-{tag}.json", OUT / f"child-{tag}.json"
    spec = {"workload": workload, "inputs": inputs, "trace": traced,
            "spans_path": str(OUT / f"{workload}-spans.json")}
    spec_path.write_text(json.dumps(spec))
    out_path.unlink(missing_ok=True)
    err_path = OUT / f"child-{tag}.err"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(out_path)],
            env=child_env(), cwd=str(ROOT), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}
    if proc.returncode == 0 and out_path.exists():
        result.update(json.loads(out_path.read_text()))
    else:
        result["stderr"] = err_path.read_text()[-2000:]
    for path in (spec_path, out_path, err_path):
        path.unlink(missing_ok=True)
    return result


def check_child(result: dict, checker, ops: int) -> list[list[str]]:
    if "bodies" not in result:
        return [[f"child exited with {result['exit']}: {result.get('stderr', '')}"]] * ops
    try:
        return checker(result["bodies"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [[f"malformed body: {exc!r}"]] * ops


# ---------------------------------------------------------------------------
# one measured run


def context() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **versions,
        "src_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    inputs = make_inputs(workload, seed)
    checker = make_checker(workload, inputs)
    ops = OPS_PER_ROUND[workload]
    children, errors = [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        for trace_child in ((False, True) if traced else (False,)):
            res = run_child(workload, inputs, trace_child, deadline)
            res["traced"] = trace_child
            per_op = check_child(res, checker, ops)
            attempted += ops
            bad = [e for e in per_op if e]
            failed += len(bad)
            errors.extend(msg for e in bad for msg in e)
            res.pop("bodies", None)
            children.append(res)
        if time.perf_counter() - loop_start >= seconds:
            break
    plain = [c for c in children if not c["traced"] and "compute_s" in c]
    metrics = {}
    if traced:
        layered = [c for c in children if c["traced"] and "layers" in c]
        for name, unit, _ in LAYER_METRICS:
            if name == "trace.overhead_ratio":
                value = _median(layered, "compute_s") / _median(plain, "compute_s") if layered and plain else math.nan
            else:
                value = statistics.median(c["layers"][name] for c in layered) if layered else math.nan
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": _median(plain, name) if plain else math.nan, "unit": unit}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "inputs": inputs, "context": context(), "children": children, "errors": errors[:50],
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def _median(children, key) -> float:
    return statistics.median(c[key] for c in children)


# ---------------------------------------------------------------------------
# self-check


def _perturb(workload: str, bodies: list) -> list:
    """A copy of the bodies with one wrong number in each."""
    bodies = copy.deepcopy(bodies)
    for body in bodies:
        if workload == "series":
            body["constant"]["product"]["value"] *= 1 + 1e-9
        elif workload == "box":
            row = next(r for r in body["rows"] if r["x"] > 1000 and r["x"] % 2 == 1)
            row["empirical"] += 1 / 961
        elif workload == "deuring":
            body["rows"][-1]["theoretical"] = math.nextafter(body["rows"][-1]["theoretical"], math.inf)
        elif body["kind"] == "a1-average":
            body["rows"][-1]["empirical"] *= 1 + 1e-6
        else:
            body["rows"][-1]["empirical"] = math.nextafter(body["rows"][-1]["empirical"], math.inf)
    return bodies


def selfcheck() -> int:
    problems = []
    for workload in WORKLOADS:
        t = time.perf_counter()
        inputs = make_inputs(workload, 0, quick=True)
        checker = make_checker(workload, inputs)
        deadline = time.perf_counter() + 120
        for traced in (False, True):
            res = run_child(workload, inputs, traced, deadline)
            per_op = check_child(res, checker, OPS_PER_ROUND[workload])
            if any(per_op):
                problems.append(f"{workload} (traced={traced}): {per_op}")
            if traced:
                missing = [n for n, _, _ in LAYER_METRICS if n != "trace.overhead_ratio" and n not in res.get("layers", {})]
                if missing:
                    problems.append(f"{workload}: traced run lacks {missing}")
        if "bodies" in res and not all(checker(_perturb(workload, res["bodies"]))):
            problems.append(f"{workload}: a perturbed body passed its check")
        print(f"selfcheck {workload}: {time.perf_counter() - t:.1f} s", file=sys.stderr)
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"selfcheck": "failed" if problems else "passed", "problems": len(problems)}))
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ltavg" / "__init__.py").is_file():
        print(f"ltavg sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for msg in record["errors"]:
        print(msg, file=sys.stderr)
    print(json.dumps({"context": record["context"]}), file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
