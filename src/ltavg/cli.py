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

from . import experiments
from .classnumber import class_number_h, hurwitz_H, hurwitz_values, is_valid_discriminant, unit_count_w
from .curves import ReducedCurve, trace_mod_q
from .experiments import CurveBox
from .numberfield import parse_field
from .report import SCHEMA_VERSION


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _parse_checkpoints(text):
    if not text:
        return ()
    items = [t for t in text.replace(",", " ").split() if t]
    values = tuple(int(t) for t in items)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    return values


def _parse_coeffs(text):
    return tuple(int(t) for t in text.replace(",", " ").split() if t)


def _write(payload: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
        _progress(f"wrote {out}")
    else:
        sys.stdout.write(payload)


def _emit_report(report, args) -> None:
    fmt = args.format
    if fmt is None:
        fmt = "csv" if (args.out or "").endswith(".csv") else "json"
    _write(report.to_csv() if fmt == "csv" else report.to_json() + "\n", args.out)


def _emit_dict(data: dict, args) -> None:
    _write(json.dumps(data, sort_keys=True, indent=2) + "\n", args.out)


def _add_common(sub, *, report=True):
    # report: the subcommand writes an ExperimentReport, with checkpoints and a format
    sub.add_argument("--field", default="Q", help="field preset name or JSON spec path")
    sub.add_argument("--r", type=int, required=True, help="target trace of Frobenius")
    sub.add_argument("--x", type=int, required=True, help="norm bound")
    if report:
        sub.add_argument("--checkpoints", default="", help="comma-separated intermediate x values")
        sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--out", default=None, help="write the report to this path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ltavg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classnum", help="Hurwitz class number H(D)")
    sub.add_argument("--D", type=int, default=None)
    sub.add_argument("--table", nargs=2, type=int, metavar=("DMIN", "DMAX"))
    sub.add_argument("--out", default=None)

    sub = subs.add_parser("trace", help="trace of Frobenius of one reduced curve")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a", required=True, help="integer, or comma-separated coefficients when --f > 1")
    sub.add_argument("--b", required=True)
    sub.add_argument("--f", type=int, default=1)
    sub.add_argument("--modpoly", default=None, help="modulus coefficients c0,c1,...,1 for --f > 1")
    sub.add_argument("--out", default=None)

    sub = subs.add_parser("constant", help="average trace-multiplicity constant")
    sub.add_argument("--field", default="Q")
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--method", choices=("sum", "product", "both"), default="both")
    sub.add_argument("--kmax", type=int, default=200)
    sub.add_argument("--nmax", type=int, default=5000)
    sub.add_argument("--lmax", type=int, default=100_000)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default=None)

    sub = subs.add_parser("hurwitz-sum", help="class-number-weighted prime sum")
    _add_common(sub)

    sub = subs.add_parser("a1-average", help="weighted average of L-values")
    _add_common(sub)

    sub = subs.add_parser("box-average", help="average prime count over a box of models")
    _add_common(sub)
    sub.add_argument("--f", type=int, default=1, help="prime residue degree")
    sub.add_argument("--box", required=True, help='box string "a1=(...);b1=(...);a2=(...);b2=(...)"')

    sub = subs.add_parser("box-variance", help="mean squared deviation from a fixed multiple of pi_half")
    _add_common(sub, report=False)
    sub.add_argument("--box", required=True)
    sub.add_argument("--const", type=float, default=None, help="comparison constant (default: product method)")

    sub = subs.add_parser("deuring-check", help="verify the isogeny-mass identity up to a prime bound")
    sub.add_argument("--pmax", type=int, required=True)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default=None)

    sub = subs.add_parser("theta", help="log-weighted degree-1 prime count in a residue class")
    sub.add_argument("--field", default="Q")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--a", type=int, required=True)
    sub.add_argument("--x", type=int, required=True)
    sub.add_argument("--checkpoints", default="")
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default=None)

    sub = subs.add_parser("count-reductions", help="exact isomorphic-reduction counts in a box")
    sub.add_argument("--field", default="Q")
    sub.add_argument("--box", required=True)
    sub.add_argument("--a", type=int, required=True, help="target a mod p")
    sub.add_argument("--b", type=int, required=True, help="target b mod p")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a2", type=int, default=None)
    sub.add_argument("--b2", type=int, default=None)
    sub.add_argument("--p2", type=int, default=None)
    sub.add_argument("--out", default=None)

    return parser


def _run_classnum(args) -> int:
    if (args.D is None) == (args.table is None):
        _progress("classnum needs exactly one of --D or --table")
        return 2
    if args.D is not None:
        h = hurwitz_H(args.D)
        print(f"{h.numerator}/{h.denominator}")
        if args.out:
            _emit_dict({"schema_version": SCHEMA_VERSION, "kind": "classnum", "D": args.D,
                        "H_num": h.numerator, "H_den": h.denominator}, args)
        return 0
    dmin, dmax = args.table
    ds = [d for d in range(dmin, dmax + 1) if is_valid_discriminant(d)]
    # hurwitz_values wants ascending n = -d
    H6 = hurwitz_values([-d for d in reversed(ds)]).tolist()[::-1]
    lines = ["D,h,w,H_num,H_den"]
    for d, h6 in zip(ds, H6):
        big = Fraction(h6, 6)
        lines.append(f"{d},{class_number_h(d)},{unit_count_w(d)},{big.numerator},{big.denominator}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _run_trace(args) -> int:
    if args.f == 1:
        curve = ReducedCurve(a=int(args.a), b=int(args.b), p=args.p)
    else:
        if not args.modpoly:
            _progress("--f > 1 needs --modpoly")
            return 2
        curve = ReducedCurve(a=_parse_coeffs(args.a), b=_parse_coeffs(args.b),
                             p=args.p, f=args.f, modulus=_parse_coeffs(args.modpoly))
    t = trace_mod_q(curve)
    print(t)
    if args.out:
        _emit_dict({"schema_version": SCHEMA_VERSION, "kind": "trace", "p": args.p,
                    "f": args.f, "trace": t}, args)
    return 0


def _run_constant(args) -> int:
    _progress(f"[constant] field={args.field} r={args.r} method={args.method}")
    report = experiments.constant_report(
        args.field, args.r, args.method,
        k_max=args.kmax, n_max=args.nmax, l_max=args.lmax, workers=args.workers,
    )
    _emit_report(report, args)
    return 0


def _run_report_command(args, builder, label) -> int:
    _progress(f"[{label}] field={args.field} x={args.x}")
    checkpoints = _parse_checkpoints(args.checkpoints)
    report = builder(checkpoints)
    _emit_report(report, args)
    return 0


def _run_count_reductions(args) -> int:
    field = parse_field(args.field)
    box = CurveBox.from_string(args.box)
    target = ReducedCurve(a=args.a % args.p, b=args.b % args.p, p=args.p)
    if args.p2 is None:
        exact, main = experiments.count_box_reductions(field, box, target, args.p)
        data = {"kind": "count-reductions", "p": args.p, "exact": exact, "main_term": main}
    else:
        if args.a2 is None or args.b2 is None:
            _progress("pair counting needs --a2, --b2 and --p2")
            return 2
        target2 = ReducedCurve(a=args.a2 % args.p2, b=args.b2 % args.p2, p=args.p2)
        exact, main = experiments.count_box_reductions_pair(field, box, target, args.p, target2, args.p2)
        data = {"kind": "count-reductions-pair", "p": args.p, "p2": args.p2,
                "exact": exact, "main_term": main}
    data["schema_version"] = SCHEMA_VERSION
    data["box"] = box.describe()
    print(f"exact={exact} main_term={main}")
    if args.out:
        _emit_dict(data, args)
    return 0


def dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        if args.command == "classnum":
            return _run_classnum(args)
        if args.command == "trace":
            return _run_trace(args)
        if args.command == "constant":
            return _run_constant(args)
        if args.command == "hurwitz-sum":
            return _run_report_command(
                args,
                lambda cps: experiments.hurwitz_sum_report(args.field, args.r, args.x, checkpoints=cps, workers=args.workers),
                "hurwitz-sum",
            )
        if args.command == "a1-average":
            return _run_report_command(
                args,
                lambda cps: experiments.a1_report(args.field, args.r, args.x, checkpoints=cps, workers=args.workers),
                "a1-average",
            )
        if args.command == "box-average":
            box = CurveBox.from_string(args.box)
            return _run_report_command(
                args,
                lambda cps: experiments.box_average(args.field, box, args.r, args.f, args.x, checkpoints=cps, workers=args.workers),
                "box-average",
            )
        if args.command == "box-variance":
            field = parse_field(args.field)
            box = CurveBox.from_string(args.box)
            const = args.const
            if const is None:
                from .ltconstant import constant_product

                const = constant_product(field, args.r).value
            _progress(f"[box-variance] field={args.field} x={args.x} C={const}")
            value = experiments.box_variance(field, box, args.r, args.x, const, workers=args.workers)
            print(value)
            if args.out:
                _emit_dict({"schema_version": SCHEMA_VERSION, "kind": "box-variance",
                            "x": args.x, "C": const, "variance": value, "box": box.describe()}, args)
            return 0
        if args.command == "deuring-check":
            _progress(f"[deuring-check] pmax={args.pmax}")
            report = experiments.deuring_check(args.pmax)
            _emit_report(report, args)
            if report.config["mismatches"]:
                _progress(f"{len(report.config['mismatches'])} mismatches found")
                return 1
            return 0
        if args.command == "theta":
            _progress(f"[theta] field={args.field} q={args.q} a={args.a} x={args.x}")
            report = experiments.theta_report(
                args.field, args.q, args.a, args.x, checkpoints=_parse_checkpoints(args.checkpoints)
            )
            if not report.config["residue_in_group"]:
                _progress(f"note: {args.a} mod {args.q} is not an empirical norm class; expect a near-zero count")
            _emit_report(report, args)
            return 0
        if args.command == "count-reductions":
            return _run_count_reductions(args)
        parser.error(f"unknown command {args.command}")
    except (ValueError, ArithmeticError) as exc:
        _progress(f"error: {exc}")
        return 1
    finally:
        _progress(f"done in {time.time() - started:.2f}s")
    return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
