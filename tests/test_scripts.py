"""Smoke runs of the scripts in scripts/ at tiny sizes, and their imports."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import wavewalk as ww

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_atom_gallery_sweep(tmp_path):
    out = _run_script(
        "atom_gallery_sweep.py", "--grid-level", "3", "--tail-K", "50",
        "--outdir", str(tmp_path / "sweeps"), cwd=tmp_path,
    )
    for name in ww.GALLERY_NAMES:
        text = (tmp_path / "sweeps" / f"{name}_sweep.csv").read_text()
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert rows[0].startswith("x,atom,atom_converged,harmonic_mass,depth_used")
        assert len(rows) == 1 + 2**3
        assert name in out


def test_convergence_census(tmp_path):
    out = _run_script("convergence_census.py", "--points", "2", "--max-n", "8", cwd=tmp_path)
    assert "contradictions of the equivalence:" in out


def test_stationary_measures(tmp_path):
    out = _run_script("stationary_measures.py", "--grid-level", "4", "--iters", "5", cwd=tmp_path)
    assert out.count("residual") == 5


def test_digests(tmp_path):
    out = _run_script("digests.py", str(ROOT / "src"), cwd=tmp_path)
    lines = out.splitlines()
    kernels = ["weight_array", "zero_path_atoms", "lattice_masses", "harmonic_on_grid", "scaling_hat",
               "estimate_cylinder", "sample_path", "cascade", "expect_finite",
               "cli simulate", "cli scaling", "cli atom", "cli diagnose", "cli validate", "cli harmonic"]
    for kernel in kernels:
        assert any(f" {kernel}" in line for line in lines), kernel
    for line in lines:
        assert re.fullmatch(r".* ((?:[0-9a-f]{16}|DegenerateStep)/)*(?:[0-9a-f]{16}|DegenerateStep)", line), line
        assert " cli " not in line or line.split()[-2] == "0", line
    # the dead states of the holes table stop its walks
    assert "holes sample_path x=0.3 DegenerateStep/" in out


def _private_wavewalk_names(path):
    """`_`-prefixed names a file takes from wavewalk (dunders excepted)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("wavewalk")):
            found += [a.name for a in node.names if a.name.startswith("_")]
            modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name.startswith("wavewalk")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_"):
                found.append(f"{node.value.id}.{node.attr}")
    return [name for name in found if not (name.startswith("__") and name.endswith("__"))]


def test_cli_and_scripts_use_public_names():
    paths = [ROOT / "src" / "wavewalk" / "cli.py", *sorted((ROOT / "scripts").glob("*.py"))]
    assert len(paths) >= 4
    for path in paths:
        assert _private_wavewalk_names(path) == [], path.name
