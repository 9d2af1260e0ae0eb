import argparse
import json
import math
import re
import warnings

import numpy as np
import pytest

import wavewalk as ww
from wavewalk import cli
from wavewalk.cli import main
from wavewalk.ifs import cell_grid

from conftest import SIXTHS, TENTHS


def gpath(name: str) -> str:
    return str(ww.gallery_path(name))


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_validate_haar_ok(tmp_path):
    code, doc = run_json(["validate", gpath("haar")], tmp_path)
    assert code == 0
    assert doc["meta"]["tool"] == "wavewalk"
    assert doc["meta"]["filter_label"] == "haar"
    assert all(doc["report"]["verdicts"].values())


def test_validate_highpass_verdict_exit(tmp_path):
    code, doc = run_json(["validate", gpath("highpass_haar")], tmp_path)
    assert code == 2
    assert doc["report"]["verdicts"]["lowpass"] is False
    assert doc["report"]["verdicts"]["partition"] is True


@pytest.mark.parametrize("shift", [1e-11, -1e-11])
def test_validate_fails_a_filter_whose_products_have_no_limit(shift, tmp_path):
    # d4 with a_0 moved by 1e-11 is within the default tol of low-pass, but
    # m(0) is off 1 by more than rounding: its products have no limit
    # (shift up) or are 0 (shift down), and the lowpass verdict says so
    coeffs = dict(ww.load_gallery("d4").coeffs)
    coeffs[0] += shift
    path = tmp_path / "shifted.json"
    ww.save_filter(ww.FilterSpec.from_coefficients(coeffs, label="shifted"), path)
    code, doc = run_json(["validate", str(path)], tmp_path)
    assert code == 2
    assert doc["report"]["lowpass_error"] == pytest.approx(1e-11, rel=1e-6)
    assert doc["report"]["verdicts"] == {"partition": True, "quadrature": True, "lowpass": False}
    assert main(["validate", str(path), "--out", str(tmp_path / "v.csv")]) == 2
    assert "lowpass,1.000000082740371e-11,false" in (tmp_path / "v.csv").read_text().splitlines()


@pytest.mark.parametrize("tol", ["0", "1e-30"])
def test_validate_tol_zero_is_taken_as_given(tmp_path, tol):
    # d4's partition error is a few ulp, above a zero tolerance
    code, doc = run_json(["validate", gpath("d4"), "--tol", tol], tmp_path)
    assert code == 2
    assert doc["meta"]["config"]["tol"] == float(tol)
    assert 0.0 < doc["report"]["partition_max_error"] < 1e-14
    assert doc["report"]["verdicts"]["partition"] is False
    assert run_json(["validate", gpath("d4")], tmp_path)[0] == 0


@pytest.mark.parametrize("tol", ["-1e-9", "-0.5", "nan"])
def test_validate_rejects_a_negative_tol(tol, capsys):
    assert main(["validate", gpath("d4"), f"--tol={tol}"]) == 1
    assert "--tol must be >= 0" in capsys.readouterr().err


def test_malformed_filter_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "x", \n "scale_N": }')
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_bad_schema_exit(tmp_path, capsys):
    bad = tmp_path / "bad2.json"
    bad.write_text('{"label": "x", "scale_N": 2}')
    assert main(["validate", str(bad)]) == 1
    assert "filter spec" in capsys.readouterr().err


def test_usage_error_exit(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


#: argument lists the CLI rejects (the filter goes after the subcommand), and
#: a part of each error message
REJECTED = [
    (["simulate", "--x", "0.3", "--word", "0,1", "--trials", "50"], "at least 100 trials"),
    # products stop by themselves: there is no depth to set
    (["atom", "--depth", "40"], "unrecognized arguments: --depth 40"),
    (["diagnose", "--x", "0.3", "--max-n", "3"], "max_n must be >= 4"),
    (["harmonic", "--tail-K", "0"], "tail_cutoff_k must be >= 1"),
    (["simulate", "--x", "0.3", "--word", "0,5"], "digit 5 not in [0, 2)"),
    (["simulate", "--x", "nan", "--word", "0,1"], "no fractional part of nan"),
    (["simulate", "--x", "nan"], "no fractional part of nan"),
    (["simulate", "--x=-inf", "--n", "4"], "no fractional part of -inf"),
    (["diagnose", "--x", "nan"], "cannot diagnose at nan"),
    (["diagnose", "--x", "inf"], "cannot diagnose at inf"),
    (["atom", "--grid-level", "-1"], "grid level must be >= 0, got -1"),
    # numpy cannot allocate these grids: MemoryError at 2**40 float64,
    # a size past its limit (ValueError) at 2**60 and 2**70
    (["atom", "--grid-level", "40"], "grid level 40: 2**40 cells cannot be allocated"),
    (["transfer", "--grid-level", "60"], "grid level 60: 2**60 cells cannot be allocated"),
    (["validate", "--grid-level", "70"], "grid level 70: 2**70 cells cannot be allocated"),
    (["scaling", "--iters", "-1"], "iters must be >= 0, got -1"),
    (["simulate", "--x", "0.3", "--n", "-1"], "path length must be >= 0, got -1"),
    (["coeffs", "--random-n", "64", "--levels", "-1"], "levels must be >= 0, got -1"),
    (["coeffs", "--random-n", "0"], "--random-n must be >= 1, got 0"),
    (["coeffs"], "give exactly one of --signal / --random-n"),
    (["coeffs", "--random-n", "8", "--signal", "signal.csv"], "give exactly one of --signal / --random-n"),
]
REJECTED_IDS = ["simulate", "atom", "diagnose", "harmonic", "simulate-digit", "simulate-word-nan",
                "simulate-path-nan", "simulate-path-inf", "diagnose-nan", "diagnose-inf",
                "atom-negative-level", "atom-level-40", "transfer-level-60", "validate-level-70",
                "scaling-negative-iters", "simulate-negative-n", "coeffs-negative-levels",
                "coeffs-zero-samples", "coeffs-no-signal", "coeffs-two-signals"]


@pytest.mark.parametrize("argv, message", REJECTED, ids=REJECTED_IDS)
def test_rejected_argument_is_an_error_not_a_traceback(argv, message, capsys):
    argv = argv[:1] + [gpath("d4")] + argv[1:]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1
    assert err.startswith("wavewalk: error: ") and message in err


#: a size no machine holds: numpy would raise MemoryError for its array
HUGE = 10**15


def _refusing(real, name):
    """real, except that a call with an integer argument of HUGE or more
    raises MemoryError before anything is allocated, as numpy does for an
    array it cannot allocate."""

    def call(*args, **kwargs):
        if any(isinstance(a, int) and abs(a) >= HUGE for a in args):
            raise MemoryError(f"{name}: unable to allocate")
        return real(*args, **kwargs)

    return call


class _RefusingGenerator(np.random.Generator):
    def standard_normal(self, *args, **kwargs):
        return _refusing(super().standard_normal, "standard_normal")(*args, **kwargs)


#: the gallery filter whose h takes the lattice route, the one route of
#: harmonic that reads K (d4's h is exact)
LATTICE_ROUTE = "highpass_haar"


def _huge_api_call(command):
    d4, system, policy = ww.load_gallery("d4"), ww.PathSystem(2), ww.TruncationPolicy()
    huge_k = ww.TruncationPolicy(tail_cutoff_k=HUGE)
    return {
        "harmonic": lambda: ww.harmonic_masses(ww.load_gallery(LATTICE_ROUTE), system, [0.3], huge_k),
        "diagnose": lambda: ww.diagnose_convergence(d4, system, 0.3, HUGE, policy),
        "coeffs": None,
    }[command]


#: each size asks numpy for an array it cannot allocate; the numpy call is
#: replaced by one that raises MemoryError for it, so none is requested
UNALLOCATABLE = [
    (["harmonic", "--tail-K", str(HUGE)], (np, "arange", _refusing(np.arange, "arange")),
     f"a lattice row of 2K+1 = {2 * HUGE + 1} terms cannot be allocated"),
    (["diagnose", "--x", "0.3", "--max-n", str(HUGE)], (np, "empty", _refusing(np.empty, "empty")),
     f"the {HUGE + 1} points x / N**n cannot be allocated"),
    (["coeffs", "--random-n", str(HUGE)], (np.random, "Generator", _RefusingGenerator),
     f"a signal of {HUGE} samples cannot be allocated"),
]


@pytest.mark.parametrize("argv, patch, message", UNALLOCATABLE, ids=[a[0] for a, _, _ in UNALLOCATABLE])
def test_unallocatable_array_is_an_error_not_a_traceback(argv, patch, message, monkeypatch, capsys):
    monkeypatch.setattr(*patch)
    name = LATTICE_ROUTE if argv[0] == "harmonic" else "d4"
    assert main(argv[:1] + [gpath(name)] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wavewalk: error: ") and message in err
    api = _huge_api_call(argv[0])
    if api is not None:
        with pytest.raises(ww.WavewalkError, match=re.escape(message)) as info:
            api()
        assert isinstance(info.value.__cause__, MemoryError)


def test_simulate_counts_any_int64_number_of_trials_at_once(tmp_path):
    # the estimate draws one binomial per digit, so 10**15 trials cost no
    # more than 100
    code, doc = run_json(["simulate", gpath("d4"), "--x", "0.3", "--word", "0,1", "--trials", str(HUGE)], tmp_path)
    assert code == 0
    result = doc["result"]
    p = ww.cylinder_prob(ww.load_gallery("d4"), ww.PathSystem(2), 0.3, ww.DigitWord((0, 1)))
    assert result["trials"] == HUGE and abs(result["estimate"] - p) <= 6 * result["stderr"]


def test_simulate_past_the_int64_limit_is_an_error_not_a_traceback(capsys):
    argv = ["simulate", gpath("d4"), "--x", "0.3", "--word", "0,1", "--trials", str(2**63)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert not out
    assert re.fullmatch(r"wavewalk: error: at most 2\*\*63 - 1 trials can be counted, got 9223372036854775808\n", err)


@pytest.mark.parametrize("kk", [2**62 - 1, 2**62])
def test_a_row_numpy_cannot_count_is_an_error_not_a_traceback(kk, capsys):
    # np.arange(-K, K + 1) is empty at these K: the row is refused before
    # anything of its size is allocated
    message = f"a lattice row of 2K+1 = {2 * kk + 1} terms cannot be allocated"
    policy = ww.TruncationPolicy(tail_cutoff_k=kk)
    with pytest.raises(ww.WavewalkError, match=re.escape(message)):
        ww.lattice_masses(ww.load_gallery(LATTICE_ROUTE), ww.PathSystem(2), [0.3], policy)
    assert main(["harmonic", gpath(LATTICE_ROUTE), "--grid-level", "2", "--tail-K", str(kk)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wavewalk: error: ") and message in err


@pytest.mark.parametrize("command", ["harmonic", "scaling"])
def test_tail_k_is_unread_where_h_is_exact(command, tmp_path):
    # d4's h is exact (measures.harmonic_masses), so not even a K whose
    # lattice row numpy cannot count is read
    argv = [command, gpath("d4"), "--grid-level", "2", "--out", str(tmp_path / "k.csv")]
    assert main(argv + ["--tail-K", str(2**62)]) == 0
    default_k = ww.TruncationPolicy().tail_cutoff_k
    huge = (tmp_path / "k.csv").read_text().replace(f"tail_k={2**62}", f"tail_k={default_k}")
    argv[-1] = str(tmp_path / "default.csv")
    assert main(argv) == 0
    assert huge == (tmp_path / "default.csv").read_text()


def _file_cases(tmp_path):
    """argv -> a part of the error, for files the CLI cannot read or write."""
    empty = tmp_path / "empty.csv"
    empty.write_text("# no samples\n")
    missing = tmp_path / "missing.json"
    return {
        "missing-filter": (["validate", str(missing)], f"{missing}: No such file or directory"),
        "missing-signal": (["coeffs", gpath("haar"), "--signal", str(tmp_path / "missing.csv")],
                           "missing.csv not found"),
        "empty-signal": (["coeffs", gpath("haar"), "--signal", str(empty)],
                         "signal length 0 is not a positive multiple of 2**3"),
        "out-in-missing-dir": (["validate", gpath("haar"), "--out", str(tmp_path / "no" / "out.csv")],
                               "No such file or directory"),
        "out-is-a-dir": (["atom", gpath("haar"), "--grid-level", "2", "--out", str(tmp_path)], "Is a directory"),
    }


@pytest.mark.parametrize("case", ["missing-filter", "missing-signal", "empty-signal", "out-in-missing-dir",
                                  "out-is-a-dir"])
def test_unreadable_or_unwritable_file_is_an_error_not_a_traceback(case, tmp_path, capsys):
    argv, message = _file_cases(tmp_path)[case]
    # the error line is the one message: no warning is printed before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("wavewalk: error: ") and message in err


#: argument lists that parse, one or more per subcommand, and lists the
#: parser itself rejects (the filter goes after the subcommand)
PARSED = [
    ["validate"], ["validate", "--tol", "1e-9", "--grid-level", "3"],
    ["atom", "--format", "json", "--out", "x.json"], ["harmonic", "--tail-K", "50", "--grid-le", "2"],
    ["diagnose", "--x", "0.3"], ["transfer", "--iters", "5"], ["scaling", "--function", "psi"],
    ["coeffs", "--random-n", "8"], ["simulate", "--x", "0.3", "--word", "0,1"],
    ["simulate"], ["diagnose", "--x", "abc"], ["scaling", "--function", "chi"],
    ["atom", "--format", "xml"], ["atom", "--version"], ["coeffs", "--bogus"],
]


def parse_or_error(parser, argv):
    """vars() of the parse as its repr, in which a NaN argument equals itself, or the error."""
    try:
        return repr(vars(parser.parse_args(argv)))
    except cli.CliUsageError as exc:
        return str(exc)


@pytest.mark.parametrize("argv", PARSED + [argv for argv, _ in REJECTED])
def test_one_subcommand_parser_parses_as_the_full_parser(argv):
    # main builds only the subparser of the subcommand being run
    argv = argv[:1] + [gpath("d4")] + argv[1:]
    want = parse_or_error(cli.build_parser(), argv)
    assert parse_or_error(cli._parser(argv[:1]), argv) == want


def test_every_subcommand_is_parsed_alone():
    assert {argv[0] for argv in PARSED} == set(cli._COMMANDS)
    assert parse_or_error(cli._parser(["atom"]), ["atom"]) == parse_or_error(cli.build_parser(), ["atom"])


def test_subcommand_parsers_are_built_once_per_process(capsys):
    assert cli._parser(["harmonic"]) is cli._parser(("harmonic",))
    assert cli._parser(cli._COMMANDS) is cli._parser(tuple(cli._COMMANDS))
    full = cli.build_parser()
    assert full is not cli.build_parser() and full is not cli._parser(cli._COMMANDS)
    # what a caller adds to its own parser never reaches main
    subparsers = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    subparsers.choices["harmonic"].add_argument("--extra")
    argv = ["harmonic", gpath("d4"), "--extra", "1"]
    assert full.parse_args(argv).extra == "1"
    assert main(argv) == 1
    assert "unrecognized arguments: --extra 1" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--word", "0,1"]], ids=["path", "word"])
def test_simulate_on_overflowing_weights_is_an_error(extra, tmp_path, capsys):
    # the N = 3 box with coefficients 6e153: its weights overflow to inf
    path = tmp_path / "box3.json"
    ww.save_filter(ww.FilterSpec.from_coefficients({0: 6e153, 1: 6e153, 2: 6e153}, scale_n=3), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", str(path), "--x", "0.3", *extra]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert re.fullmatch(r"wavewalk: error: the branch weights overflow at state 0\.3: their total is inf\n", err)


#: the required arguments of each subcommand after the filter
REQUIRED = {"diagnose": ["--x", "0.3"], "simulate": ["--x", "0.3"], "coeffs": ["--random-n", "16"]}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_coefficient_whose_square_overflows_is_an_error(command, tmp_path, capsys):
    # |3e154|**2 is past the float range: the filter is refused as it is read
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"scale_N": 2, "coeffs": [{"k": 0, "re": 3e154}, {"k": 1, "re": 3e154}]}))
    assert main([command, str(path), *REQUIRED.get(command, [])]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert re.fullmatch(r"wavewalk: error: [^\n]*\|a_k\|\*\*2[^\n]*\n", err)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_runs_do_not_leak_into_each_other(command, tmp_path, capsys):
    default = [command, gpath("d4"), *REQUIRED.get(command, [])]
    other = default + ["--format", "json", "--out", str(tmp_path / "o")]
    if command in ("harmonic", "diagnose", "scaling"):
        other += ["--tail-K", "7"]
    if command in ("validate", "atom", "harmonic", "transfer", "scaling"):
        other += ["--grid-level", "2"]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    first = run(default)
    assert first[0] != 1 and first[1].out and not first[1].err
    assert run(other)[0] != 1 and (tmp_path / "o").stat().st_size > 0
    code, (out, err) = run(other + ["--format", "xml"])
    assert code == 1 and not out and err.startswith("wavewalk: error: ")
    assert run(default) == first


@pytest.mark.parametrize("command", ["atom", "harmonic"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_filter_is_an_error_not_a_traceback(command, literal, tmp_path, capsys):
    # JSON as Python reads it accepts NaN and Infinity literals
    bad = tmp_path / "nan.json"
    bad.write_text('{"coeffs": [{"k": 0, "re": 0.5}, {"k": 1, "re": %s}]}' % literal)
    assert main([command, str(bad), "--grid-level", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wavewalk: error: ") and "coefficients must be finite" in err


def test_atom_sweep_csv(tmp_path):
    out = tmp_path / "atom.csv"
    code = main(["atom", gpath("haar"), "--grid-level", "8", "--out", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert header == "x,value,converged,tail_bound,depth_used"
    assert len(rows) == 256
    first = rows[0].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    half = rows[128].split(",")
    assert float(half[0]) == 0.5
    assert float(half[1]) == pytest.approx(0.4052847345693511, abs=1e-9)


@pytest.mark.parametrize("command", ["atom", "harmonic", "diagnose", "scaling"])
def test_config_records_the_policy_default(command, tmp_path):
    extra = ["--x", "0.3"] if command == "diagnose" else ["--grid-level", "3"]
    code, doc = run_json([command, gpath("d4")] + extra, tmp_path)
    assert code == 0
    config = doc["meta"]["config"]
    assert "depth" not in config
    # the one lattice cutoff default is the policy's
    assert config.get("tail_k") == (None if command == "atom" else ww.TruncationPolicy().tail_cutoff_k)


def test_on_grid_table_harmonic_rows_are_exact_ones(tmp_path):
    # h = 1 exactly for this partition, its level-2 chain's absorption
    # probability; a lattice sum at the default K read 0.98 at x >= 1/2
    table = tmp_path / "table.json"
    ww.save_filter(ww.FilterSpec.from_table([0.0, 0.25, 0.5, 0.75], [1.0, 0.3, 0.0, 0.7]), table)
    out = tmp_path / "h.csv"
    assert main(["harmonic", str(table), "--grid-level", "3", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 8
    assert all(row.split(",")[1:] == ["1.0", "true", "0.0", "0"] for row in rows)


@pytest.mark.parametrize("spec", [
    TENTHS,
    SIXTHS,
    ww.FilterSpec.from_table([0.0, 2.0**-10, 0.5, 0.5 + 2.0**-10], [1.0, 0.5, 0.0, 0.5]),
], ids=["tenths", "sixths", "over_cap"])
def test_rational_table_harmonic_rows_are_exact_ones(spec, tmp_path):
    # h = 1 exactly, the chain on the Markov partition; off every small
    # N-adic grid, the lattice sum at the default K read 0.013-0.76 on
    # 5 to 7 of the 8 rows, each called converged
    table = tmp_path / "table.json"
    ww.save_filter(spec, table)
    out = tmp_path / "h.csv"
    assert main(["harmonic", str(table), "--grid-level", "3", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 8
    assert all(row.split(",")[1:] == ["1.0", "true", "0.0", "0"] for row in rows)


def test_highpass_harmonic_rows_are_exact_zeros(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["harmonic", gpath("highpass_haar"), "--grid-level", "3", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 8
    assert all(row.split(",")[1:] == ["0.0", "true", "0.0", "1"] for row in rows)


def test_diagnose_json(tmp_path):
    code, doc = run_json(
        ["diagnose", gpath("haar"), "--x", "0.333333", "--max-n", "30"], tmp_path
    )
    assert code == 0
    rep = doc["report"]
    assert rep["consistent"] is True
    assert rep["product_verdict"] == "converged"
    assert rep["harmonic_verdict"] == "limit-one"
    assert len(rep["partial_products"]) == 31


def test_byte_identical_reruns(tmp_path):
    argv = ["diagnose", gpath("d4"), "--x", "0.7", "--max-n", "12", "--format", "json"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_deterministic(tmp_path):
    argv = [
        "simulate", gpath("d4"), "--x", "0.4", "--word", "0,1",
        "--trials", "2000", "--seed", "11", "--format", "json",
    ]
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["result"]["trials"] == 2000
    assert 0.0 <= doc["result"]["estimate"] <= 1.0


def test_simulate_path(tmp_path):
    code, doc = run_json(
        ["simulate", gpath("haar"), "--x", "0.0", "--n", "6", "--seed", "3"], tmp_path
    )
    assert code == 0
    assert doc["digits"] == [0, 0, 0, 0, 0, 0]


def test_coeffs_energy(tmp_path):
    code, doc = run_json(
        ["coeffs", gpath("d4"), "--levels", "3", "--random-n", "64", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    bands = [doc[f"detail_{i}"] for i in (1, 2, 3)] + [doc["smooth"]]
    energy = sum(
        sum(r * r + i * i for r, i in zip(b["re"], b["im"])) for b in bands
    )
    assert energy == pytest.approx(doc["energy"], abs=1e-10)


def test_coeffs_signal_file(tmp_path):
    sig = tmp_path / "sig.csv"
    sig.write_text("\n".join(str(v) for v in np.ones(8)))
    code, doc = run_json(
        ["coeffs", gpath("haar"), "--levels", "1", "--signal", str(sig)], tmp_path
    )
    assert code == 0
    assert all(abs(v) < 1e-12 for v in doc["detail_1"]["re"])


def test_scaling_csv(tmp_path):
    out = tmp_path / "phi.csv"
    code = main(
        ["scaling", gpath("haar"), "--iters", "4", "--grid-level", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("norm_sq_riemann" in l for l in meta)
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert rows[0].split(",")[1] == "1.0"


@pytest.mark.parametrize("name, argv, key, want, tol", [
    # stretched_haar's h is exact, so the norm is 1/3 even at grid level 1,
    # where a midpoint quadrature of h would read 1/9
    ("stretched_haar", ["--grid-level", "1"], "norm_sq_harmonic", 0.3333333333333333, 0.0),
    # 4 cascade steps refined at levels 1-4 and repeated up to level 12:
    # d4's fourth iterate keeps unit energy
    ("d4", ["--grid-level", "12", "--iters", "4"], "norm_sq_riemann", 1.0, 1e-10),
], ids=["stretched_haar-harmonic-level-1", "d4-riemann-level-12"])
def test_scaling_norm_sq_in_meta(name, argv, key, want, tol, tmp_path):
    code, doc = run_json(["scaling", gpath(name), *argv], tmp_path)
    assert code == 0
    assert abs(doc["meta"][key] - want) <= tol


def test_transfer_runs(tmp_path):
    code, doc = run_json(
        ["transfer", gpath("shannon"), "--grid-level", "6", "--iters", "50"], tmp_path
    )
    assert code == 0
    assert sum(doc["ruelle_masses"]) == pytest.approx(1.0, abs=1e-12)
    assert doc["ruelle_residual"] <= 1e-8


def _csv_columns(path):
    """The CSV table at path as {header field: list of cells}."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return dict(zip(header, zip(*(l.split(",") for l in lines[1:]))))


def _assert_same_floats(cells, want):
    """Cells parsed with float() (null as NaN) equal want bit for bit."""
    got = np.array([math.nan if c == "null" else float(c) for c in cells])
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    assert got[keep].tobytes() == want[keep].tobytes()


#: filters the tests write to a file, by name: the scale-3 box, and a_0 = 1
#: alone, whose weight is 1 everywhere
FILTERS = {
    "box3": ww.FilterSpec.from_coefficients({0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, scale_n=3, label="box3"),
    "one": ww.FilterSpec.from_coefficients({0: 1.0}, label="one"),
}


def filter_file(name, tmp_path) -> str:
    """The gallery file of name, or FILTERS[name] saved under tmp_path."""
    if name not in FILTERS:
        return gpath(name)
    path = tmp_path / f"{name}.json"
    ww.save_filter(FILTERS[name], path)
    return str(path)

#: (command, filter): the atom on d4, harmonic on every gallery filter and
#: on the scale-3 box, and the atom of a_0 = 1, exactly 1 everywhere
SWEEPS = ([("atom", "d4")] + [("harmonic", name) for name in (*ww.GALLERY_NAMES, "box3")]
          + [("atom", "one")])


@pytest.mark.parametrize("command, name", SWEEPS,
                         ids=["atom"] + [f"{command}-{name}" for command, name in SWEEPS[1:]])
def test_sweep_csv_round_trips(command, name, tmp_path):
    spec = FILTERS[name] if name in FILTERS else ww.load_gallery(name)
    out = tmp_path / "o.csv"
    assert main([command, filter_file(name, tmp_path), "--grid-level", "7", "--out", str(out)]) == 0
    system = ww.PathSystem(spec.scale_n)
    xs = cell_grid(spec.scale_n, 7)
    cols = _csv_columns(out)
    if command == "harmonic":
        # one routine for h: the CLI sweep, harmonic_masses and harmonic_on_grid
        policy = ww.TruncationPolicy()
        arr = ww.harmonic_masses(spec, system, xs, policy)
        _assert_same_floats(cols["value"], ww.harmonic_on_grid(spec, system, xs, policy))
    else:
        arr = ww.zero_path_atoms(spec, system, xs)
    _assert_same_floats(cols["x"], xs)
    _assert_same_floats(cols["value"], arr.value)
    _assert_same_floats(cols["tail_bound"], arr.tail_bound)
    assert [int(c) for c in cols["depth_used"]] == arr.depth_used.tolist()
    assert [c == "true" for c in cols["converged"]] == arr.converged.tolist()


def test_transfer_csv_round_trips(tmp_path):
    out = tmp_path / "o.csv"
    argv = ["transfer", gpath("d4"), "--grid-level", "6", "--iters", "20", "--out", str(out)]
    assert main(argv) == 0
    spec, system = ww.load_gallery("d4"), ww.PathSystem(2)
    grid_fn, _ = ww.power_iterate(spec, system, 6, 20)
    masses, _ = ww.ruelle_measure(spec, system, 6, 20)
    cols = _csv_columns(out)
    assert [int(c) for c in cols["cell"]] == list(range(2**6))
    _assert_same_floats(cols["left"], np.arange(2**6) / 2**6)
    _assert_same_floats(cols["harmonic_value"], grid_fn.values)
    _assert_same_floats(cols["ruelle_mass"], masses.values)


@pytest.mark.parametrize("function", ["phi", "psi"])
def test_scaling_csv_round_trips(function, tmp_path):
    out = tmp_path / "o.csv"
    argv = ["scaling", gpath("d4"), "--grid-level", "6", "--iters", "6",
            "--function", function, "--out", str(out)]
    assert main(argv) == 0
    spec = ww.load_gallery("d4")
    fn = ww.cascade(spec, ww.PathSystem(2), iters=6, level=6)
    if function == "psi":
        fn = ww.wavelet_from_scaling(spec, fn)
    cols = _csv_columns(out)
    _assert_same_floats(cols["t"], fn.grid())
    _assert_same_floats(cols["re"], fn.samples.real)
    _assert_same_floats(cols["im"], fn.samples.imag)


EXPECTED_EXIT = {
    ("validate", "highpass_haar"): 2,
    ("scaling", "shannon"): 1,
    ("coeffs", "shannon"): 1,
    # the subband pipeline is dyadic
    ("coeffs", "box3"): 1,
}


# every gallery filter, and the scale-3 box
@pytest.mark.parametrize("name", [*ww.GALLERY_NAMES, "box3"])
@pytest.mark.parametrize(
    "command",
    ["validate", "atom", "harmonic", "diagnose", "transfer", "scaling", "coeffs", "simulate"],
)
def test_every_command_on_gallery(command, name, tmp_path):
    argv = [command, filter_file(name, tmp_path), "--out", str(tmp_path / "o.txt")]
    if command in ("atom", "harmonic", "transfer", "scaling"):
        argv += ["--grid-level", "4"]
    if command == "harmonic":
        argv += ["--tail-K", "50"]
    if command == "diagnose":
        argv += ["--x", "0.3", "--max-n", "6", "--tail-K", "50"]
    if command == "transfer":
        argv += ["--iters", "10"]
    if command == "scaling":
        argv += ["--iters", "3"]
    if command == "coeffs":
        argv += ["--levels", "1", "--random-n", "8"]
    if command == "simulate":
        argv += ["--x", "0.3", "--word", "0", "--trials", "200"]
    code = main(argv)
    assert code == EXPECTED_EXIT.get((command, name), 0)
