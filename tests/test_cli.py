"""End-to-end command-line behaviour, exit codes, and output formats."""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from toruspert.cli import main

from _env import subprocess_env

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_multiplicity_plain(capsys):
    code, out, _ = run(capsys, "multiplicity", "--lambda", "325", "--n", "2")
    assert code == 0
    assert out == "24\n"


def test_multiplicity_json(capsys):
    code, out, _ = run(capsys, "multiplicity", "--lambda", "325", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["kind"] == "multiplicity"
    assert payload["lambda"] == 325 and payload["n"] == 2
    assert payload["multiplicity"] == 24
    assert payload["representations"] == [[1, 18], [6, 17], [10, 15]]


def test_representations_plain(capsys):
    code, out, _ = run(capsys, "representations", "--lambda", "325", "--n", "2")
    assert code == 0
    assert out == "1 18\n6 17\n10 15\n"


def test_spectrum_plain_and_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--max", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 1"
    assert lines[-1] == "9 4"
    assert len(lines) == 7
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--max", "9", "--json")
    payload = json.loads(out)
    assert payload["kind"] == "spectrum"
    assert payload["rows"][0] == [0, 1] and payload["rows"][-1] == [9, 4]


def test_split_pretty_fully_split(capsys):
    code, out, _ = run(capsys, "split", "--lambda", "1", "--n", "1", "--alpha", "1.0")
    assert code == 0
    assert "verdict: fully_split" in out
    assert "corrections: -0.0183156 0.0183156" in out
    assert "min_gap: 0.0366313" in out
    assert "clusters: {0} {1}" in out


def test_split_partial_exits_three(capsys):
    code, out, _ = run(
        capsys, "split", "--lambda", "1", "--n", "4",
        "--alpha", "1,2,0,0", "--diag", "one",
    )
    assert code == 3
    assert "verdict: partially_split" in out
    assert "clusters: {0,1,2} {3} {4} {5} {6} {7}" in out


def test_split_json(capsys):
    code, out, _ = run(
        capsys, "split", "--lambda", "1", "--n", "1", "--alpha", "1.0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "splitting_report"
    assert payload["verdict"] == "fully_split"
    assert payload["corrections"] == [-math.exp(-4), math.exp(-4)]
    assert payload["basis"] == [[-1], [1]]


def test_split_csv_roundtrip(capsys):
    code, out, _ = run(
        capsys, "split", "--lambda", "1", "--n", "1", "--alpha", "1.0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "branch_index,correction"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == -math.exp(-4)
    assert float(lines[2].split(",")[1]) == math.exp(-4)


def test_split_matrix_csv_and_output_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    mat_file = tmp_path / "matrix.csv"
    code, out, _ = run(
        capsys, "split", "--lambda", "1", "--n", "1", "--alpha", "1.0",
        "--format", "json", "--output", str(out_file),
        "--matrix-csv", str(mat_file),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_file.read_text())
    assert payload["verdict"] == "fully_split"
    rows = mat_file.read_text().splitlines()
    assert len(rows) == 2
    cells = [float(c) for c in rows[0].split(",")]
    assert cells == [0.0, math.exp(-4)]


def test_json_output_is_byte_deterministic(capsys):
    _, first, _ = run(
        capsys, "split", "--lambda", "5", "--n", "2", "--alpha", "1,2",
        "--format", "json",
    )
    _, second, _ = run(
        capsys, "split", "--lambda", "5", "--n", "2", "--alpha", "1,2",
        "--format", "json",
    )
    assert first == second


def test_config_file_supplies_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# base parameters\n"
        "lambda = 9\n"
        "n = 1\n"
        "alpha = 1.0\n"
    )
    # config alone: lambda=9 barely couples, so it stays unsplit
    code, out, _ = run(capsys, "split", "--config", str(cfg))
    assert code == 3
    assert "verdict: unsplit" in out
    # a flag beats the config value
    code, out, _ = run(capsys, "split", "--config", str(cfg), "--lambda", "1")
    assert code == 0
    assert "verdict: fully_split" in out


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "split", "--n", "1", "--alpha", "1.0")
    assert code == 2
    assert "missing required option --lambda" in err


@pytest.mark.parametrize(
    "argv, key",
    [(["split"], "diagg = one"),
     (["oracle", "--eps", "1e-2", "--cutoff", "8"], "gap_tol = 1e-3"),
     (["oracle", "--eps", "1e-2", "--cutoff", "8"], "json = true"),
     (["split"], "config = other.cfg")],
    ids=["misspelt", "oracle-gap-tol", "on-off-flag", "config"],
)
def test_config_key_that_is_no_value_flag_exits_two(capsys, tmp_path, argv, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lambda = 1\nn = 1\nalpha = 1\n{key}\n")
    code, out, err = run(capsys, argv[0], "--config", str(cfg), *argv[1:])
    assert code == 2
    assert out == ""
    assert f"{cfg}:4: unknown key '{key.split()[0]}'" in err


def test_bad_config_value_exits_as_the_flag_does(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("diag = maybe\n")
    argv = ["split", "--lambda", "1", "--n", "1", "--alpha", "1"]
    with pytest.raises(SystemExit) as from_flag:
        main(argv + ["--diag", "maybe"])
    flag_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as from_config:
        main(argv + ["--config", str(cfg)])
    assert from_flag.value.code == from_config.value.code == 2
    assert capsys.readouterr().err == flag_err
    assert "invalid choice: 'maybe'" in flag_err


def test_config_only_run_names_missing_option(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 1\nn = 1\n")
    code, _, err = run(capsys, "split", "--config", str(cfg))
    assert code == 2
    assert "missing required option --alpha" in err


# Every flag of `split` and `oracle` that takes a value; the values that
# end in .csv or .txt name files the run writes.
_VALUE_FLAGS = {
    "split": {"lambda": "5", "n": "2", "alpha": "1,2", "diag": "one",
              "gap_tol": "1e-3", "format": "csv", "matrix_csv": "m.csv",
              "output": "main.txt"},
    "oracle": {"lambda": "1", "n": "1", "alpha": "1.0", "diag": "one",
               "eps": "1e-2,1e-3", "cutoff": "8", "plot_data": "fan.csv",
               "output": "main.txt"},
}


@pytest.mark.parametrize(
    "command, key",
    [(c, k) for c, flags in _VALUE_FLAGS.items() for k in flags],
)
def test_config_key_equals_its_flag(capsys, tmp_path, command, key):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    values = {k: str(out_dir / v) if v.endswith((".csv", ".txt")) else v
              for k, v in _VALUE_FLAGS[command].items()}

    def outputs(*argv):
        code, out, err = run(capsys, command, *argv)
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        for name in files:
            (out_dir / name).unlink()
        return code, out, err, files

    flags = {k: f"--{k.replace('_', '-')}={v}" for k, v in values.items()}
    from_flags = outputs(*flags.values())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {values[key]}\n")
    from_config = outputs(
        "--config", str(cfg), *(f for k, f in flags.items() if k != key)
    )
    assert from_config == from_flags
    assert from_flags[3]["main.txt"]


def test_empty_eigenspace_is_usage_error(capsys):
    code, _, err = run(capsys, "split", "--lambda", "7", "--n", "2", "--alpha", "1,2")
    assert code == 2
    assert "error:" in err


def test_bad_flag_value_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["split", "--lambda", "1", "--n", "1", "--alpha", "nope"])
    assert exc.value.code == 2


def test_oracle_pretty(capsys):
    code, out, _ = run(
        capsys, "oracle", "--lambda", "1", "--n", "1", "--alpha", "1.0",
        "--eps", "1e-2,1e-3", "--cutoff", "8",
    )
    assert code == 0
    assert "passed: True" in out
    assert "cutoff_check: shift=0" in out
    assert "trend 0.01->0.001" in out


def test_oracle_json_and_plot_data(capsys, tmp_path):
    plot = tmp_path / "fan.csv"
    code, out, _ = run(
        capsys, "oracle", "--lambda", "1", "--n", "1", "--alpha", "1.0",
        "--eps", "1e-2,1e-3", "--cutoff", "8", "--json",
        "--plot-data", str(plot),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "oracle_report"
    assert payload["passed"] is True
    assert len(payload["rows"]) == 2
    lines = plot.read_text().splitlines()
    assert lines[0] == "epsilon,branch_index,eigenvalue"
    assert len(lines) == 1 + 2 * 2


def test_oracle_no_cutoff_check(capsys):
    code, out, _ = run(
        capsys, "oracle", "--lambda", "1", "--n", "1", "--alpha", "1.0",
        "--eps", "1e-3", "--cutoff", "8", "--no-cutoff-check", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cutoff_shift"] is None
    assert payload["cutoff_converged"] is None


def test_oracle_coupling_too_large_exits_four(capsys):
    code, _, err = run(
        capsys, "oracle", "--lambda", "5", "--n", "2", "--alpha", "0.1,0.1",
        "--eps", "0.6", "--cutoff", "5",
    )
    assert code == 4
    assert "not isolated" in err


def test_oracle_eigensolver_failure_exits_five(capsys, monkeypatch):
    def eigh(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    # order 2 * 70 + 1 = 141 goes to LAPACK
    code, out, err = run(
        capsys, "oracle", "--lambda", "1", "--n", "1", "--alpha", "1",
        "--eps", "1e-3", "--cutoff", "70", "--no-cutoff-check",
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: ") and "did not converge" in err


def test_oracle_refused_size_exits_six(capsys):
    # (2 * 100 + 1) ** 2 = 40401 modes exceed MAX_BASIS_SIZE; the size is
    # refused before the truncated operator is allocated.
    code, out, err = run(
        capsys, "oracle", "--lambda", "5", "--n", "2", "--alpha", "1,2",
        "--eps", "1e-3", "--cutoff", "100",
    )
    assert code == 6
    assert out == ""
    assert err.startswith("error: ") and "40401 modes" in err


def test_split_refused_size_exits_six(capsys):
    # lambda = 30 on T^6 has 14144 modes, above MAX_MULTIPLICITY; the
    # secular matrix is refused before it is allocated.
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "split", "--lambda", "30", "--n", "6",
        "--alpha", "1.1,0.9,1.3,0.95,1.2,0.8",
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 6
    assert out == ""
    assert err.startswith("error: ") and "14144 modes" in err


def test_split_refuses_oversized_eigenspace_before_listing(capsys):
    # r_8(100) = 17893136: refused from the count, before any vector is listed.
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "split", "--lambda", "100", "--n", "8",
        "--alpha", "1,1,1,1,1,1,1,1",
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 6
    assert out == ""
    assert err.startswith("error: ") and "17893136 modes" in err


def test_oracle_first_refused_size_exits_six(capsys):
    # (2 * 4096 + 1) = 8193 modes is the first T^1 box above MAX_BASIS_SIZE;
    # cutoff 4094 reaches it in the cutoff + 2 rerun and is refused up front.
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "oracle", "--lambda", "1", "--n", "1", "--alpha", "1",
        "--eps", "1e-3", "--cutoff", "4094",
    )
    assert time.monotonic() - t0 < 1.0
    assert code == 6
    assert out == ""
    assert err.startswith("error: ") and "8193 modes" in err


@pytest.mark.parametrize(
    "argv",
    [["split", "--lambda", "1", "--n", "1", "--alpha", "1"],
     ["oracle", "--lambda", "1", "--n", "1", "--alpha", "1", "--eps", "1e-3",
      "--cutoff", "8"]],
)
def test_truncation_flag_is_rejected(argv):
    # Neither subcommand evaluates the potential in real space.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--truncation", "5"])
    assert exc.value.code == 2


def test_oracle_has_no_gap_tolerance_flag():
    # The oracle reads only the corrections and the multiplicity of its
    # first-order report, so a clustering tolerance would change nothing.
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--lambda", "5", "--n", "2", "--alpha", "1,1.3",
              "--eps", "1e-2,1e-3", "--cutoff", "8", "--json", "--gap-tol", "1e-3"])
    assert exc.value.code == 2


def test_oracle_lapack_nonconvergence_reproducer():
    # With one BLAS thread, LAPACK's eigh does not converge on the lower
    # triangle of one of these Galerkin matrices; the upper-triangle retry
    # must carry the run to a passing report.
    env = subprocess_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "toruspert.cli", "oracle", "--n", "2",
         "--lambda", "9", "--alpha", "1.2427167955487168,0.8119018848840768",
         "--diag", "one", "--eps", "1e-3,1e-4,1e-5", "--cutoff", "8", "--json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert payload["cutoff_converged"] is True


def test_oracle_rejects_ascending_eps(capsys):
    code, _, err = run(
        capsys, "oracle", "--lambda", "1", "--n", "1", "--alpha", "1.0",
        "--eps", "1e-3,1e-2", "--cutoff", "8",
    )
    assert code == 2
    assert "descending" in err


def test_paper_repro_fixture_pretty(capsys):
    code, out, _ = run(capsys, "paper-repro", "--which", "B")
    assert code == 0
    assert "matrix B" in out
    assert "eigenvalues:" in out
    assert "note:" in out


def test_paper_repro_diff_all_json(capsys):
    code, out, _ = run(
        capsys, "paper-repro", "--which", "all", "--mode", "diff", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    counts = {c["which"]: len(c["discrepancies"]) for c in payload["cases"]}
    assert counts == {"A": 0, "B": 2, "C": 0, "D": 0, "F": 1, "G": 0}


def test_paper_repro_definition_json(capsys):
    code, out, _ = run(
        capsys, "paper-repro", "--which", "B", "--mode", "definition", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"][0][1] == math.exp(-36)


def test_paper_repro_e_explains(capsys):
    code, _, err = run(capsys, "paper-repro", "--which", "E")
    assert code == 2
    assert "deliberately" in err


def test_paper_repro_rejects_unknown_mode():
    with pytest.raises(SystemExit) as exc:
        main(["paper-repro", "--which", "A", "--mode", "nope"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toruspert.cli", "multiplicity",
         "--lambda", "5", "--n", "2"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "8\n"


def test_console_script_installed(tmp_path):
    """The ``toruspert`` script declared in pyproject.toml works from PATH.

    Installers turn ``[project.scripts]`` into a small wrapper on PATH. The
    test writes that same wrapper from the declaration into a temporary
    ``bin/``, so it checks the declaration from a source checkout: a wrong
    module or attribute, or an exit code that is not passed through, fails.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint(
        name="toruspert", value=scripts["toruspert"], group="console_scripts"
    )
    assert ep.load() is main

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "toruspert"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        'if __name__ == "__main__":\n'
        f"    sys.exit({ep.attr}())\n"
    )
    script.chmod(0o755)
    env = subprocess_env()
    env["PATH"] = os.pathsep.join(
        p for p in (str(bin_dir), env.get("PATH")) if p
    )

    exe = shutil.which("toruspert", path=env["PATH"])
    assert exe is not None, "console script 'toruspert' not on PATH"
    assert Path(exe) == script
    proc = subprocess.run(
        [exe, "spectrum", "--n", "1", "--max", "4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1\n1 2\n4 2\n"


@pytest.mark.skipif(
    shutil.which("toruspert") is None,
    reason="no installed 'toruspert' console script on PATH",
)
def test_installed_console_script_on_path():
    """The installer-made ``toruspert`` on PATH, where the package is installed."""
    proc = subprocess.run(
        [shutil.which("toruspert"), "spectrum", "--n", "1", "--max", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1\n1 2\n4 2\n"
