"""Batch command-line interface.

Every subcommand prints its primary value to stdout or writes a structured
report (CSV or JSON) with --out; progress notes go to stderr.  Exit codes:
0 on success, 1 on domain errors (bad discriminant, singular curve, ...),
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import experiments
from .classnumber import class_numbers, hurwitz_H, is_valid_discriminant, unit_count_w
from .curves import ReducedCurve, trace_mod_q
from .experiments import CurveBox
from .ltconstant import constant_product
from .numberfield import parse_field
from .report import SCHEMA_VERSION


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _ints(text: str) -> tuple:
    """The integers of a comma- or space-separated list."""
    return tuple(int(t) for t in text.replace(",", " ").split())


def _checkpoints(args) -> tuple:
    values = _ints(args.checkpoints)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    return values


def _write(payload: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
        _progress(f"wrote {out}")
    else:
        sys.stdout.write(payload)


def _report(report, args) -> None:
    """Write an ExperimentReport as --format says, else as the --out suffix says."""
    fmt = args.format or ("csv" if (args.out or "").endswith(".csv") else "json")
    _write(report.to_csv() if fmt == "csv" else report.to_json() + "\n", args.out)


def _value(line, args, **record) -> None:
    """Print a one-line result; with --out also write it as a JSON record (kind: the subcommand, unless given)."""
    print(line)
    if args.out:
        record = {"schema_version": SCHEMA_VERSION, "kind": args.command, **record}
        _write(json.dumps(record, sort_keys=True, indent=2) + "\n", args.out)


def _run_classnum(args):
    if (args.D is None) == (args.table is None):
        _progress("classnum needs exactly one of --D or --table")
        return 2
    if args.D is not None:
        h = hurwitz_H(args.D)
        return _value(f"{h.numerator}/{h.denominator}", args, D=args.D, H_num=h.numerator, H_den=h.denominator)
    dmin, dmax = args.table
    if dmin > dmax:
        _progress("classnum --table needs DMIN <= DMAX")
        return 2
    # both columns come from one hurwitz_values call, which wants ascending n = -d
    n = np.array([-d for d in range(dmax, dmin - 1, -1) if is_valid_discriminant(d)], dtype=np.int64)
    h, H6 = class_numbers(n)
    lines = ["D,h,w,H_num,H_den"]
    for m, hm, h6 in zip(n[::-1].tolist(), h[::-1].tolist(), H6[::-1].tolist()):
        big = Fraction(h6, 6)
        lines.append(f"{-m},{hm},{unit_count_w(-m)},{big.numerator},{big.denominator}")
    _write("\n".join(lines) + "\n", args.out)


def _run_trace(args):
    if args.f == 1:
        curve = ReducedCurve(a=int(args.a), b=int(args.b), p=args.p)
    elif not args.modpoly:
        _progress("--f > 1 needs --modpoly")
        return 2
    else:
        curve = ReducedCurve(a=_ints(args.a), b=_ints(args.b), p=args.p, f=args.f, modulus=_ints(args.modpoly))
    t = trace_mod_q(curve)
    _value(t, args, p=args.p, f=args.f, trace=t)


def _run_constant(args):
    _progress(f"[constant] field={args.field} r={args.r} method={args.method}")
    _report(experiments.constant_report(args.field, args.r, args.method, k_max=args.kmax, n_max=args.nmax,
                                        l_max=args.lmax, workers=args.workers), args)


def _run_hurwitz_sum(args):
    _progress(f"[hurwitz-sum] field={args.field} x={args.x}")
    _report(experiments.hurwitz_sum_report(args.field, args.r, args.x, checkpoints=_checkpoints(args),
                                           workers=args.workers), args)


def _run_a1_average(args):
    _progress(f"[a1-average] field={args.field} x={args.x}")
    _report(experiments.a1_report(args.field, args.r, args.x, checkpoints=_checkpoints(args), workers=args.workers), args)


def _run_box_average(args):
    box = CurveBox.from_string(args.box)
    _progress(f"[box-average] field={args.field} x={args.x}")
    _report(experiments.box_average(args.field, box, args.r, args.f, args.x, checkpoints=_checkpoints(args),
                                    workers=args.workers), args)


def _run_box_variance(args):
    field = parse_field(args.field)
    box = CurveBox.from_string(args.box)
    const = constant_product(field, args.r).value if args.const is None else args.const
    _progress(f"[box-variance] field={args.field} x={args.x} C={const}")
    value = experiments.box_variance(field, box, args.r, args.x, const, workers=args.workers)
    _value(value, args, x=args.x, C=const, variance=value, box=box.describe())


def _run_deuring_check(args):
    _progress(f"[deuring-check] pmax={args.pmax}")
    report = experiments.deuring_check(args.pmax)
    _report(report, args)
    if report.config["mismatches"]:
        _progress(f"{len(report.config['mismatches'])} mismatches found")
        return 1


def _run_theta(args):
    _progress(f"[theta] field={args.field} q={args.q} a={args.a} x={args.x}")
    report = experiments.theta_report(args.field, args.q, args.a, args.x, checkpoints=_checkpoints(args))
    if not report.config["residue_in_group"]:
        _progress(f"note: {args.a} mod {args.q} is not an empirical norm class; expect a near-zero count")
    _report(report, args)


def _run_count_reductions(args):
    pair = (args.a2, args.b2, args.p2)
    if None in pair and pair != (None, None, None):
        _progress("pair counting needs --a2, --b2 and --p2")
        return 2
    field = parse_field(args.field)
    box = CurveBox.from_string(args.box)
    target = ReducedCurve(a=args.a % args.p, b=args.b % args.p, p=args.p)
    record = {"p": args.p, "box": box.describe()}
    if args.p2 is None:
        exact, main = experiments.count_box_reductions(field, box, target, args.p)
    else:
        target2 = ReducedCurve(a=args.a2 % args.p2, b=args.b2 % args.p2, p=args.p2)
        exact, main = experiments.count_box_reductions_pair(field, box, target, args.p, target2, args.p2)
        record.update(kind="count-reductions-pair", p2=args.p2)
    _value(f"exact={exact} main_term={main}", args, exact=exact, main_term=main, **record)


# options that several subcommands share, added by name
_SHARED = {
    "--field": {"default": "Q", "help": "field preset name or JSON spec path"},
    "--r": {"type": int, "required": True, "help": "target trace of Frobenius"},
    "--x": {"type": int, "required": True, "help": "norm bound"},
    "--checkpoints": {"default": "", "help": "comma-separated intermediate x values"},
    "--workers": {"type": int, "default": 1},
    "--box": {"required": True, "help": 'box string "a1=(...);b1=(...);a2=(...);b2=(...)"'},
    # only the subcommands that write an ExperimentReport take a format
    "--format": {"choices": ("csv", "json"), "default": None},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ltavg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, shared=""):
        sub = subs.add_parser(name, help=help)
        sub.set_defaults(run=run)
        for option in shared.split():
            sub.add_argument(option, **_SHARED[option])
        sub.add_argument("--out", default=None, help="write the output to this path")
        return sub

    sub = command("classnum", _run_classnum, "Hurwitz class number H(D)")
    sub.add_argument("--D", type=int, default=None)
    sub.add_argument("--table", nargs=2, type=int, metavar=("DMIN", "DMAX"))

    sub = command("trace", _run_trace, "trace of Frobenius of one reduced curve")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a", required=True, help="integer, or comma-separated coefficients when --f > 1")
    sub.add_argument("--b", required=True)
    sub.add_argument("--f", type=int, default=1)
    sub.add_argument("--modpoly", default=None, help="modulus coefficients c0,c1,...,1 for --f > 1")

    sub = command("constant", _run_constant, "average trace-multiplicity constant", "--field --r --workers --format")
    sub.add_argument("--method", choices=("sum", "product", "both"), default="both")
    sub.add_argument("--kmax", type=int, default=200)
    sub.add_argument("--nmax", type=int, default=5000)
    sub.add_argument("--lmax", type=int, default=100_000)

    prime_sum = "--field --r --x --checkpoints --workers --format"
    command("hurwitz-sum", _run_hurwitz_sum, "class-number-weighted prime sum", prime_sum)
    command("a1-average", _run_a1_average, "weighted average of L-values", prime_sum)
    sub = command("box-average", _run_box_average, "average prime count over a box of models", prime_sum + " --box")
    sub.add_argument("--f", type=int, default=1, help="prime residue degree")

    sub = command("box-variance", _run_box_variance, "mean squared deviation from a fixed multiple of pi_half",
                  "--field --r --x --workers --box")
    sub.add_argument("--const", type=float, default=None, help="comparison constant (default: product method)")

    sub = command("deuring-check", _run_deuring_check, "verify the isogeny-mass identity up to a prime bound", "--format")
    sub.add_argument("--pmax", type=int, required=True)

    sub = command("theta", _run_theta, "log-weighted degree-1 prime count in a residue class",
                  "--field --x --checkpoints --format")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--a", type=int, required=True)

    sub = command("count-reductions", _run_count_reductions, "exact isomorphic-reduction counts in a box", "--field --box")
    sub.add_argument("--a", type=int, required=True, help="target a mod p")
    sub.add_argument("--b", type=int, required=True, help="target b mod p")
    sub.add_argument("--p", type=int, required=True)
    for option in ("--a2", "--b2", "--p2"):
        sub.add_argument(option, type=int, default=None)
    return parser


def dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    started = time.time()
    try:
        return args.run(args) or 0
    except (ValueError, ArithmeticError) as exc:
        _progress(f"error: {exc}")
        return 1
    finally:
        _progress(f"done in {time.time() - started:.2f}s")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
