"""Command-line surface: exit codes, output formats, file emission."""

import argparse
import json
import subprocess
import sys

import pytest

from _oracles import class_number_forms, hurwitz_from_class_numbers
from ltavg.cli import _build_parser, dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classnum_single_value(capsys):
    code, out, _ = run(capsys, "classnum", "--D", "-3")
    assert code == 0 and out == "1/3\n"
    code, out, _ = run(capsys, "classnum", "--D", "-12")
    assert code == 0 and out == "4/3\n"


def test_classnum_invalid_discriminant(capsys):
    code, _, err = run(capsys, "classnum", "--D", "-5")
    assert code == 1
    assert "error" in err


def test_classnum_table(capsys):
    code, out, _ = run(capsys, "classnum", "--table", "-20", "-3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D,h,w,H_num,H_den"
    got = {line.split(",")[0]: line for line in lines[1:]}
    assert got["-3"] == "-3,1,6,1,3"
    assert got["-16"] == "-16,1,2,3,2"
    # only valid discriminants appear
    assert "-5" not in got and "-6" not in got


def test_classnum_table_matches_class_number_reference(capsys):
    # the range holds -3, -4 and the non-fundamental -12, -16 and -27
    code, out, _ = run(capsys, "classnum", "--table", "-300", "-3")
    assert code == 0
    want = ["D,h,w,H_num,H_den"]
    for d in range(-300, -2):
        if d % 4 in (0, 1):
            H = hurwitz_from_class_numbers(d)
            w = {-3: 6, -4: 4}.get(d, 2)
            want.append(f"{d},{class_number_forms(d)},{w},{H.numerator},{H.denominator}")
    assert out.splitlines() == want


def test_trace_prime_field(capsys):
    code, out, _ = run(capsys, "trace", "--p", "5", "--a", "1", "--b", "1")
    assert code == 0 and out == "-3\n"


def test_trace_extension_field(capsys):
    code, out, _ = run(
        capsys, "trace", "--p", "7", "--a", "1", "--b", "3", "--f", "2",
        "--modpoly", "1,0,1",
    )
    assert code == 0 and out == "-10\n"


def test_trace_singular_model_fails(capsys):
    code, _, err = run(capsys, "trace", "--p", "7", "--a", "0", "--b", "0")
    assert code == 1 and "error" in err


def test_trace_reducible_modpoly_fails(capsys):
    # x^2 + 3 factors mod 7, so it does not define a quadratic extension
    code, _, err = run(
        capsys, "trace", "--p", "7", "--a", "1", "--b", "3", "--f", "2",
        "--modpoly", "3,0,1",
    )
    assert code == 1 and "error" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        dispatch(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["classnum", "--D", "-23", "--format", "csv"],
    ["classnum", "--table", "-12", "-3", "--format", "json"],
    ["box-variance", "--r", "1", "--x", "100", "--box", "a1=(0);b1=(1);a2=(0);b2=(1)", "--format", "csv"],
])
def test_format_rejected_where_output_has_one_form(argv):
    # classnum and box-variance write one fixed form, so --format is a usage error
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2


def test_count_reductions_line(capsys):
    code, out, _ = run(
        capsys, "count-reductions", "--a", "2", "--b", "4", "--p", "11",
        "--box", "a1=(0);b1=(5);a2=(0);b2=(5)",
    )
    assert code == 0
    assert out.startswith("exact=5 main_term=4.13")


@pytest.mark.parametrize("pair", [
    ["--a2", "1", "--b2", "1"],
    ["--a2", "1", "--p2", "13"],
    ["--b2", "1", "--p2", "13"],
    ["--a2", "1"],
    ["--b2", "1"],
    ["--p2", "13"],
])
def test_count_reductions_incomplete_pair_exits_two(capsys, pair):
    # the pair form needs all of --a2, --b2 and --p2; a part of them used to
    # be ignored, printing the single count
    code, out, err = run(
        capsys, "count-reductions", "--a", "2", "--b", "4", "--p", "11", *pair,
        "--box", "a1=(0);b1=(5);a2=(0);b2=(5)",
    )
    assert code == 2 and out == ""
    assert "pair counting needs --a2, --b2 and --p2" in err


def test_classnum_table_descending_range_exits_two(capsys):
    # DMIN > DMAX used to print the header alone and exit 0
    code, out, err = run(capsys, "classnum", "--table", "-3", "-20")
    assert code == 2 and out == ""
    assert "DMIN <= DMAX" in err


@pytest.mark.parametrize("argv, line, record", [
    (["classnum", "--D", "-12"], "4/3",
     {"D": -12, "H_den": 3, "H_num": 4, "kind": "classnum", "schema_version": 1}),
    (["trace", "--p", "5", "--a", "1", "--b", "1"], "-3",
     {"f": 1, "kind": "trace", "p": 5, "schema_version": 1, "trace": -3}),
    (["trace", "--p", "7", "--a", "1,0", "--b", "3", "--f", "2", "--modpoly", "1,0,1"], "-10",
     {"f": 2, "kind": "trace", "p": 7, "schema_version": 1, "trace": -10}),
    (["box-variance", "--r", "1", "--x", "200", "--box", "a1=(0);b1=(2);a2=(0);b2=(2)"], "1.5593211775630111",
     {"C": 0.39160561227939084, "box": "a1=(0);b1=(2);a2=(0);b2=(2)", "kind": "box-variance",
      "schema_version": 1, "variance": 1.5593211775630111, "x": 200}),
    (["count-reductions", "--a", "2", "--b", "4", "--p", "11", "--box", "a1=(0);b1=(5);a2=(0);b2=(5)"],
     "exact=5 main_term=4.132231404958677",
     {"box": "a1=(0);b1=(5);a2=(0);b2=(5)", "exact": 5, "kind": "count-reductions",
      "main_term": 4.132231404958677, "p": 11, "schema_version": 1}),
    (["count-reductions", "--a", "2", "--b", "4", "--p", "11", "--a2", "1", "--b2", "1", "--p2", "13",
      "--box", "a1=(0);b1=(71);a2=(0);b2=(71)"],
     "exact=30 main_term=29.581886644823708",
     {"box": "a1=(0);b1=(71);a2=(0);b2=(71)", "exact": 30, "kind": "count-reductions-pair",
      "main_term": 29.581886644823708, "p": 11, "p2": 13, "schema_version": 1}),
])
def test_one_line_commands_stdout_and_out_record(tmp_path, capsys, argv, line, record):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == line + "\n"
    path = tmp_path / "value.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == line + "\n" and f"wrote {path}" in err
    assert path.read_text() == json.dumps(record, sort_keys=True, indent=2) + "\n"


# every option of every subcommand: (type, default, choices, required, nargs)
_TEXT_OPTIONAL = (None, None, None, False, None)
_FORMAT = (None, None, ("csv", "json"), False, None)
_FIELD = (None, "Q", None, False, None)
_CHECKPOINTS = (None, "", None, False, None)
_WORKERS = (int, 1, None, False, None)
_INT = (int, None, None, True, None)
_INT_OPTIONAL = (int, None, None, False, None)
_TEXT = (None, None, None, True, None)
_PRIME_SUM = {"--field": _FIELD, "--r": _INT, "--x": _INT, "--checkpoints": _CHECKPOINTS,
              "--workers": _WORKERS, "--format": _FORMAT, "--out": _TEXT_OPTIONAL}
SUBCOMMAND_OPTIONS = {
    "classnum": {"--D": _INT_OPTIONAL, "--table": (int, None, None, False, 2), "--out": _TEXT_OPTIONAL},
    "trace": {"--p": _INT, "--a": _TEXT, "--b": _TEXT, "--f": (int, 1, None, False, None),
              "--modpoly": _TEXT_OPTIONAL, "--out": _TEXT_OPTIONAL},
    "constant": {"--field": _FIELD, "--r": _INT, "--method": (None, "both", ("sum", "product", "both"), False, None),
                 "--kmax": (int, 200, None, False, None), "--nmax": (int, 5000, None, False, None),
                 "--lmax": (int, 100_000, None, False, None), "--workers": _WORKERS, "--format": _FORMAT,
                 "--out": _TEXT_OPTIONAL},
    "hurwitz-sum": _PRIME_SUM,
    "a1-average": _PRIME_SUM,
    "box-average": {**_PRIME_SUM, "--f": (int, 1, None, False, None), "--box": _TEXT},
    "box-variance": {"--field": _FIELD, "--r": _INT, "--x": _INT, "--workers": _WORKERS, "--box": _TEXT,
                     "--const": (float, None, None, False, None), "--out": _TEXT_OPTIONAL},
    "deuring-check": {"--pmax": _INT, "--format": _FORMAT, "--out": _TEXT_OPTIONAL},
    "theta": {"--field": _FIELD, "--q": _INT, "--a": _INT, "--x": _INT, "--checkpoints": _CHECKPOINTS,
              "--format": _FORMAT, "--out": _TEXT_OPTIONAL},
    "count-reductions": {"--field": _FIELD, "--box": _TEXT, "--a": _INT, "--b": _INT, "--p": _INT,
                         "--a2": _INT_OPTIONAL, "--b2": _INT_OPTIONAL, "--p2": _INT_OPTIONAL, "--out": _TEXT_OPTIONAL},
}


def test_subcommand_options_unchanged():
    # read from the parser itself, so an option added, lost or retyped shows here
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {
            a.option_strings[0]: (a.type, a.default, a.choices, a.required, a.nargs)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, sub in subs.choices.items()
    }
    assert got == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("primes", [
    ["--p", "9"],
    ["--p", "7", "--a2", "1", "--b2", "1", "--p2", "25"],
    ["--p", "9", "--a2", "1", "--b2", "1", "--p2", "25"],
])
def test_count_reductions_composite_prime_fails(capsys, primes):
    code, out, err = run(
        capsys, "count-reductions", "--a", "1", "--b", "1", *primes,
        "--box", "a1=(0);b1=(5);a2=(0);b2=(5)",
    )
    assert code == 1 and out == "" and "not a prime" in err


@pytest.mark.parametrize("f", ["0", "-1"])
def test_box_average_nonpositive_degree_fails(capsys, f):
    code, _, err = run(
        capsys, "box-average", "--r", "1", "--x", "100", "--f", f,
        "--box", "a1=(0);b1=(2);a2=(0);b2=(2)",
    )
    assert code == 1 and "positive" in err


def test_theta_rejects_non_unit_residue(capsys):
    code, _, err = run(capsys, "theta", "--field", "Q", "--q", "4", "--a", "2",
                       "--x", "100")
    assert code == 1 and "coprime" in err


def test_theta_notes_residue_outside_group(capsys):
    code, out, err = run(capsys, "theta", "--field", "Q_i", "--q", "8", "--a", "3",
                         "--x", "2000")
    assert code == 0
    assert "not an empirical norm class" in err


def test_deuring_check_exit_zero(capsys):
    code, out, _ = run(capsys, "deuring-check", "--pmax", "40", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "x,empirical,theoretical,ratio"


def test_hurwitz_sum_csv(capsys):
    code, out, _ = run(capsys, "hurwitz-sum", "--field", "Q", "--r", "1",
                       "--x", "500", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,empirical,theoretical,ratio"
    assert lines[1].startswith("500,")


def test_constant_json_output(capsys):
    code, out, _ = run(capsys, "constant", "--field", "Q", "--r", "1",
                       "--method", "product", "--lmax", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "constant"
    assert 0 < doc["constant"]["product"]["value"] < 2


def test_out_file_json_and_csv(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    code, out, _ = run(capsys, "deuring-check", "--pmax", "30", "--out", str(jpath))
    assert code == 0
    doc = json.loads(jpath.read_text())
    assert doc["kind"] == "deuring-check"
    cpath = tmp_path / "report.csv"
    code, out, _ = run(capsys, "deuring-check", "--pmax", "30", "--out", str(cpath))
    assert code == 0
    assert cpath.read_text().splitlines()[0] == "x,empirical,theoretical,ratio"


def test_box_average_command(capsys):
    code, out, _ = run(
        capsys, "box-average", "--field", "Q", "--r", "1", "--f", "1",
        "--x", "300", "--box", "a1=(0);b1=(3);a2=(0);b2=(3)", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "x,empirical,theoretical,ratio"


def test_box_average_bad_box_string(capsys):
    code, _, err = run(
        capsys, "box-average", "--field", "Q", "--r", "1", "--f", "1",
        "--x", "300", "--box", "a1=(0)",
    )
    assert code == 1 and "error" in err


def test_workers_flag_does_not_change_stdout(capsys):
    outs = []
    for w in ("1", "2"):
        code, out, _ = run(capsys, "a1-average", "--field", "Q", "--r", "1",
                           "--x", "2000", "--workers", w, "--format", "csv")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ltavg.cli", "classnum", "--D", "-4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/2\n"


def test_ltavg_does_not_load_scipy():
    code = (
        "import sys, ltavg; ltavg.pi_half(10**4); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_parse_field_does_not_load_sympy():
    # the mod-p factor patterns prove every preset irreducible, so sympy's
    # irreducibility test (and its 0.3 s import) is never reached
    code = (
        "import sys; from ltavg.numberfield import PRESETS, parse_field; "
        "[parse_field(name) for name in PRESETS]; "
        "print(sorted(m for m in sys.modules if m.startswith('sympy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
