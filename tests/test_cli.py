import json

import numpy as np
import pytest

import wavewalk as ww
from wavewalk.cli import main


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--x", "0.3", "--word", "0,1", "--trials", "50"], "at least 100 trials"),
        (["atom", "--depth", "0"], "product_depth must be >= 1"),
        (["diagnose", "--x", "0.3", "--max-n", "3"], "max_n must be >= 4"),
        (["harmonic", "--tail-K", "0"], "tail_cutoff_k must be >= 1"),
    ],
    ids=["simulate", "atom", "diagnose", "harmonic"],
)
def test_rejected_argument_is_an_error_not_a_traceback(argv, message, capsys):
    argv = argv[:1] + [gpath("d4")] + argv[1:]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("wavewalk: error: ") and message in err


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


def test_transfer_runs(tmp_path):
    code, doc = run_json(
        ["transfer", gpath("shannon"), "--grid-level", "6", "--iters", "50"], tmp_path
    )
    assert code == 0
    assert sum(doc["ruelle_masses"]) == pytest.approx(1.0, abs=1e-12)
    assert doc["ruelle_residual"] <= 1e-8


EXPECTED_EXIT = {
    ("validate", "highpass_haar"): 2,
    ("scaling", "shannon"): 1,
    ("coeffs", "shannon"): 1,
}


@pytest.mark.parametrize("name", ww.GALLERY_NAMES)
@pytest.mark.parametrize(
    "command",
    ["validate", "atom", "harmonic", "diagnose", "transfer", "scaling", "coeffs", "simulate"],
)
def test_every_command_on_gallery(command, name, tmp_path):
    argv = [command, gpath(name), "--out", str(tmp_path / "o.txt")]
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
