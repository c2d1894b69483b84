"""End-to-end CLI checks through diffgen.cli.run."""

import json
import os
import sys
import warnings
from decimal import Decimal

import pytest

from diffgen import cli
from diffgen.cli import build_parser, run


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_weights_human(capsys):
    rc, out, err = invoke(capsys, "weights", "--alpha", "3", "--d", "3",
                          "--p", "4", "--r", "3")
    assert rc == 0 and err == ""
    assert out.splitlines() == [
        "-1/8 1 -13/8 0 13/8 -1 1/8",
        "error: -7/120",
    ]


def test_weights_more_errors(capsys):
    rc, out, _ = invoke(capsys, "weights", "--alpha", "3", "--d", "3",
                        "--p", "4", "--r", "3", "--errors", "2")
    assert rc == 0
    assert out.splitlines() == [
        "-1/8 1 -13/8 0 13/8 -1 1/8",
        "error: -7/120",
        "error h^5: 0",
    ]


def test_weights_json(capsys):
    rc, out, _ = invoke(capsys, "weights", "--alpha", "2", "--d", "1",
                        "--p", "3", "--r", "1", "--format", "json")
    assert rc == 0
    record = json.loads(out)
    assert record["alpha"] == "2"
    assert record["d"] == 1
    assert record["p"] == 3
    assert record["lambda"] == "1/2"
    assert record["beta"] == ["23/24", "-7/8", "-1/8", "1/24"]
    assert record["errors"] == {"3": "1/12"}


def test_weights_float_mode(capsys):
    rc, out, _ = invoke(capsys, "weights", "--alpha", "1.6", "--d", "2",
                        "--p", "2", "--r", "1", "--mode", "f64")
    assert rc == 0
    lines = out.splitlines()
    values = [float(v) for v in lines[0].split()]
    assert values == pytest.approx([0.75, -1.25, 0.25, 0.25])
    assert lines[1].startswith("error: ")
    assert float(lines[1].split()[-1]) == pytest.approx(17 / 120)


def test_weights_computation_error(capsys):
    rc, out, err = invoke(capsys, "weights", "--alpha", "0", "--d", "1",
                          "--p", "2", "--r", "0")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


def test_argparse_failures(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["weights", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (("weights", "--alpha", "1/0", "--d", "1", "--p", "2", "--r", "0"), "zero denominator"),
    (("weights", "--alpha", "x1", "--d", "1", "--p", "2", "--r", "0"), "malformed"),
    (("weights", "--alpha", "1", "--d", "0", "--p", "2", "--r", "0"), "positive integer"),
    (("weights", "--alpha", "1", "--d", "1", "--p", "2", "--r", "nan"), "malformed"),
    (("expand", "--alpha", "1/2", "--K", "0"), "positive integer"),
    (("bvp", "--N", "two"), "positive integer"),
    (("fbvp", "--alpha", "1.6", "--N", "8", "--mode", "big", "--digits", "5"), "at least 15 digits"),
    (("bvp", "--N", "4", "--mode", "big", "--digits", "-3"), "at least 15 digits"),
    (("weights", "--alpha", "1", "--d", "1", "--p", "2", "--r", "0", "--digits", "x"),
     "at least 15 digits"),
    (("fbvp", "--alpha", "1.6", "--N", "8", "--r", "-1"), "non-negative integer"),
])
def test_argument_value_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Fraction(" not in err


def test_stencil_left_human(capsys):
    rc, out, _ = invoke(capsys, "stencil", "--kind", "left", "--d", "1", "--p", "3")
    assert rc == 0
    assert out == "(11/6), -3, 3/2, -1/3 | error -1/4\n"


@pytest.mark.parametrize("kind, d, p, r", [("central", "2", "2", "3"), ("left", "1", "1", "1/2")])
def test_stencil_refuses_a_shift_its_kind_fixes(capsys, kind, d, p, r):
    rc, out, err = invoke(capsys, "stencil", "--kind", kind, "--d", d, "--p", p, "--r", r)
    assert rc == 1 and out == ""
    assert f"kind '{kind}' fixes its own shift" in err


def test_stencil_json(capsys):
    rc, out, _ = invoke(capsys, "stencil", "--kind", "staggered", "--d", "2",
                        "--p", "4", "--r", "3/2", "--format", "json")
    assert rc == 0
    record = json.loads(out)
    assert record["alpha"] == 2
    assert record["r"] == "3/2"
    assert record["eval_fraction"] == "1/2"
    assert record["weights"][0] == "3/16"
    assert record["leading_error"] == "341/5760"


def test_stencil_csv(capsys):
    rc, out, _ = invoke(capsys, "stencil", "--kind", "left", "--d", "1",
                        "--p", "1", "--format", "csv")
    assert rc == 0
    assert out == "index,offset,weight\n0,0,1\n1,-1,-1\n"


def test_stencil_shifted_needs_r(capsys):
    rc, _, err = invoke(capsys, "stencil", "--kind", "shifted", "--d", "1", "--p", "3")
    assert rc == 1
    assert "error:" in err


def test_stencil_noncompact(capsys):
    rc, out, _ = invoke(capsys, "stencil", "--kind", "shifted", "--d", "1",
                        "--p", "3", "--r", "1", "--alpha", "2")
    assert rc == 0
    assert out == ("529/576, (-161/96), 101/192, 43/144, -11/192, -1/96, 1/576"
                   " | error 1/12\n")


def test_expand_binomial(capsys):
    rc, out, _ = invoke(capsys, "expand", "--alpha", "2", "--K", "4")
    assert rc == 0
    assert out == "1 -2 1 0\n"


def test_expand_generator(capsys):
    rc, out, _ = invoke(capsys, "expand", "--alpha", "2", "--K", "7",
                        "--d", "1", "--p", "3", "--r", "1")
    assert rc == 0
    assert out == "529/576 -161/96 101/192 43/144 -11/192 -1/96 1/576\n"


def test_expand_integer_power_of_zero_leading_coefficient(capsys):
    rc, out, err = invoke(capsys, "expand", "--alpha", "6", "--K", "8", "--d", "2",
                          "--p", "2", "--r", "6")
    assert rc == 0 and err == ""
    # the base is z(1 - z)^2, so the weights are those of z^3 (1 - z)^6
    assert out == "0 0 0 1 -6 15 -20 15\n"


def test_expand_partial_generator_flags(capsys):
    rc, _, err = invoke(capsys, "expand", "--alpha", "2", "--K", "4", "--d", "1")
    assert rc == 1
    assert "error:" in err


def test_expand_overflow_in_double_precision_exits_1(capsys):
    # the generator diverges (edge ratio 2), so its weights grow like 2^m
    argv = ["expand", "--alpha", "6/5", "--K", "1100", "--d", "2", "--p", "2", "--r", "1"]
    rc, out, err = invoke(capsys, *argv, "--mode", "f64")
    assert rc == 1 and out == ""
    assert err.startswith("error: double-precision weight 1043 of P(z)^0.6 is not finite;")
    assert "--mode big" in err
    rc, out, err = invoke(capsys, *argv, "--mode", "big")
    assert rc == 0 and err == "" and len(out.split()) == 1100


def test_expand_grunwald_overflow_in_double_precision_exits_1(capsys):
    # the binomial weights of (1 - z)^1500.5 leave the double range
    argv = ["expand", "--alpha", "3001/2", "--K", "800"]
    rc, out, err = invoke(capsys, *argv, "--mode", "f64")
    assert rc == 1 and out == ""
    assert err.startswith("error: double-precision weight 271 of (1 - z)^1500.5 is not finite;")
    assert "--mode big" in err
    rc, out, err = invoke(capsys, *argv, "--mode", "big")
    assert rc == 0 and err == "" and len(out.split()) == 800


def test_expand_integer_power_overflow_in_double_precision_exits_1(capsys):
    # the (d, p, r) = (1, 1, 0) generator to the integer power 1100 leaves the
    # double range at weight 388, as its exact 50-digit weights do
    argv = ["expand", "--alpha", "1100", "--K", "1101", "--d", "1", "--p", "1", "--r", "0"]
    rc, out, err = invoke(capsys, *argv, "--mode", "f64")
    assert rc == 1 and out == ""
    assert err.startswith("error: double-precision weight 388 of P(z)^1100.0 is not finite;")
    rc, out, err = invoke(capsys, *argv, "--mode", "big")
    weights = [abs(Decimal(w)) for w in out.split()]
    assert rc == 0 and err == "" and len(weights) == 1101
    assert weights[388] > Decimal(sys.float_info.max) >= max(weights[:388])


def test_table_one(capsys):
    rc, out, _ = invoke(capsys, "table", "--which", "1")
    assert rc == 0
    assert "p=2: 3/2 -2 1/2" in out
    assert "p=6:" in out


def test_table_two(capsys):
    rc, out, _ = invoke(capsys, "table", "--which", "2")
    assert rc == 0
    assert "p=3 lambda=1/2: 23/24 -7/8 -1/8 1/24" in out


def test_table_five(capsys):
    rc, out, _ = invoke(capsys, "table", "--which", "5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1].endswith("(11/6), -3, 3/2, -1/3 | error -1/4")
    assert lines[5].endswith(
        "3/16, 41/48, -67/24, 19/8, -35/48, 5/48 | eval offset 1/2 | error 341/5760")


def test_bvp_central_csv(capsys):
    rc, out, _ = invoke(capsys, "bvp", "--N", "4", "--scheme", "central",
                        "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "N,h,max_error,order"
    assert lines[1] == "4,0.5,1.23815e-03,--"


def test_bvp_both_table(capsys):
    rc, out, _ = invoke(capsys, "bvp", "--Nmax", "8")
    assert rc == 0
    assert "scheme: central" in out
    assert "scheme: unified" in out


def test_bvp_csv_needs_single_scheme(capsys):
    rc, _, err = invoke(capsys, "bvp", "--N", "4", "--format", "csv")
    assert rc == 1
    assert "error:" in err


def test_bvp_rejects_low_precision(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bvp", "--N", "4", "--scheme", "central", "--mode", "big", "--digits", "10"])
    assert exc.value.code == 2
    assert "at least 15 digits" in capsys.readouterr().err


def test_fbvp_accepts_zero_shift_and_minimum_digits(capsys):
    with pytest.warns(RuntimeWarning, match="experimental"):
        rc, out, _ = invoke(capsys, "fbvp", "--alpha", "1.6", "--N", "8", "--r", "0",
                            "--mode", "big", "--digits", "15")
    assert rc == 0
    assert out.splitlines()[1].startswith("8,0.125,")


def test_fbvp_single_grid(capsys):
    rc, out, _ = invoke(capsys, "fbvp", "--alpha", "1.6", "--N", "64")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "N,h,max_error,order"
    n, h, error, order = lines[1].split(",")
    assert (n, h, order) == ("64", "0.015625", "--")
    assert float(error) == pytest.approx(2.8309e-04, rel=5e-2)


def test_fbvp_ill_conditioned_generator_exits_with_hint(capsys):
    with pytest.warns(RuntimeWarning, match="experimental"):
        rc, out, err = invoke(capsys, "fbvp", "--alpha", "1.6", "--p", "3", "--N", "128")
    assert rc == 1 and out == ""
    assert "condition estimate 6.1e+24" in err and "--mode big --digits" in err


def test_bvp_prints_the_solved_grids_before_a_refusal(capsys):
    rc, out, err = invoke(capsys, "bvp", "--Nmax", "64", "--scheme", "unified")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "scheme: unified"
    assert [line.split()[0] for line in lines[2:]] == ["4", "8", "16", "32"]
    assert "condition estimate" in err


def test_fbvp_csv_prints_the_solved_grids_before_a_refusal(capsys):
    with pytest.warns(RuntimeWarning, match="experimental"):
        rc, out, err = invoke(capsys, "fbvp", "--alpha", "1.6", "--p", "3", "--Nmax", "128")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "N,h,max_error,order"
    assert [line.split(",")[0] for line in lines[1:]] == ["8", "16", "32", "64"]
    assert "condition estimate 6.1e+24" in err


def test_fbvp_refuses_shifts_from_two_without_a_table(capsys):
    rc, out, err = invoke(capsys, "fbvp", "--alpha", "1.6", "--r", "2", "--N", "8")
    assert rc == 1 and out == ""
    assert "shift r = 2" in err


@pytest.mark.parametrize("argv, first", [
    (("bvp", "--Nmax", "3"), 4),
    (("fbvp", "--alpha", "1.6", "--Nmax", "4"), 8),
])
def test_study_refuses_an_nmax_below_its_first_grid(capsys, argv, first):
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"error: --Nmax must be at least {first}\n"


def test_fbvp_alpha_out_of_range(capsys):
    rc, _, err = invoke(capsys, "fbvp", "--alpha", "2.5", "--N", "16")
    assert rc == 1
    assert "error:" in err


def test_oracle_subcommand(capsys):
    rc, out, _ = invoke(capsys, "oracle", "--dmax", "2", "--pmax", "3")
    assert rc == 0
    assert out == "ok: closed form matches Cramer on 42 parameter sets\n"


def test_output_is_deterministic(capsys):
    args = ("weights", "--alpha", "7/5", "--d", "2", "--p", "3", "--r", "2")
    first = invoke(capsys, *args)
    second = invoke(capsys, *args)
    assert first == second


def test_parser_is_built_once_and_shared(capsys):
    cli._parser.cache_clear()
    weights = ("weights", "--alpha", "7/5", "--d", "2", "--p", "3", "--r", "2")
    assert invoke(capsys, *weights)[0] == 0
    assert invoke(capsys, "stencil", "--kind", "left", "--d", "1", "--p", "3")[0] == 0
    assert invoke(capsys, "expand", "--alpha", "1/2", "--K", "4")[0] == 0
    with pytest.raises(SystemExit) as exc:
        run(["fbvp", "--alpha", "1.6", "--N", "8", "--r", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    shared = invoke(capsys, *weights)
    assert cli._parser.cache_info().misses == 1
    args = build_parser().parse_args(list(weights))
    fresh = (args.func(args),) + tuple(capsys.readouterr())
    assert shared == fresh


def test_stencil_shift_warning_names_the_caller(capsys):
    # the extrapolation warning is raised three calls deep in the package; it
    # names the first frame outside it, here the helper that calls run
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, _ = invoke(capsys, "stencil", "--kind", "shifted", "--d", "2", "--p", "2",
                            "--r", "7")
    assert rc == 0 and out.startswith("-5, 16, -17, 6")
    [warning] = caught
    assert warning.category is UserWarning
    assert "outside the stencil support [0, 3]" in str(warning.message)
    package = os.path.dirname(cli.__file__) + os.sep
    assert not warning.filename.startswith(package)
    assert warning.filename == __file__
