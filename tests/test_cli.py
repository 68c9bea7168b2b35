import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import grassmean
from conftest import random_cloud, random_unitary
from grassmean import cli
from grassmean.cli import main
from grassmean.files import read_subspace_file, write_subspace_file
from grassmean.grassmann import basis_from_projector


def cloud_file(tmp_path, name="cloud.json", n=5, m=2, count=5, radius=0.4, seed=0):
    _, points = random_cloud(n, m, count, radius, np.random.default_rng(seed))
    path = tmp_path / name
    write_subspace_file(path, [basis_from_projector(p) for p in points])
    return path


def cp1_file(tmp_path, t, name="pair.json"):
    a = np.array([[1.0], [0.0]], dtype=complex)
    b = np.array([[np.cos(t)], [np.sin(t)]], dtype=complex)
    path = tmp_path / name
    write_subspace_file(path, [a, b])
    return path


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert "grassmean" in capsys.readouterr().out
    assert main([]) == 1
    assert main(["karcher-mean"]) == 1
    assert main(["karcher-mean", "x.json", "--out", "y.json", "--rule", "bogus"]) == 1


def test_an_entry_beyond_the_doubles_is_a_usage_error(tmp_path, capsys):
    path = cp1_file(tmp_path, 0.3)
    path.write_text(path.read_text().replace('"re": 1.0', '"re": 1' + "0" * 400, 1))
    out = tmp_path / "mean.json"
    assert main(["karcher-mean", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: bases[0][0][0].re is too large for a double\n")
    assert not out.exists()


def test_missing_input_reports_usage_error(tmp_path, capsys):
    out = tmp_path / "mean.json"
    code = main(["karcher-mean", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_karcher_mean_end_to_end(tmp_path, capsys):
    src = cloud_file(tmp_path)
    out = tmp_path / "mean.json"
    code = main(["karcher-mean", str(src), "--out", str(out)])
    captured = capsys.readouterr().out.splitlines()
    assert code == 0
    assert captured[0] == "status = converged"
    mean = read_subspace_file(out)
    assert len(mean) == 1 and mean[0].matrix.shape == (5, 2)
    trace_lines = (tmp_path / "mean.trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,cost,gradnorm,stepsize"
    assert len(trace_lines) >= 2


def test_karcher_mean_default_step_on_a_thousand_lines(tmp_path, capsys):
    # 1000 noisy copies of one line in C^8, the file of the cli-file-mean
    # benchmark workload (noise 0.3 / sqrt(2n)); backtracking must converge at
    # this N with its default step scales, as the Newton rule does
    rng = np.random.default_rng([1])
    center = random_unitary(8, rng)[:, 0]
    noise = rng.standard_normal((1000, 8)) + 1j * rng.standard_normal((1000, 8))
    vectors = center + 0.3 * noise / 4.0
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    path = tmp_path / "lines.json"
    write_subspace_file(path, [v[:, None] for v in vectors])
    code = main(["karcher-mean", str(path), "--out", str(tmp_path / "mean.json")])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "status = converged"


def test_karcher_mean_iteration_cap_exit_code(tmp_path, capsys):
    src = cloud_file(tmp_path)
    out = tmp_path / "mean.json"
    trace = tmp_path / "custom.trace.csv"
    code = main(["karcher-mean", str(src), "--out", str(out),
                 "--trace", str(trace), "--max-iter", "1"])
    assert code == 2
    assert "status = max_iter" in capsys.readouterr().out
    # outputs are still written so the run can be inspected
    assert out.exists() and trace.exists()


def test_karcher_mean_rejects_non_finite_options(tmp_path, capsys):
    src = cloud_file(tmp_path)
    out = tmp_path / "mean.json"
    code = main(["karcher-mean", str(src), "--out", str(out), "--grad-tol", "inf"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_karcher_mean_cut_locus_exit_code(tmp_path, capsys):
    path = tmp_path / "antipodal.json"
    write_subspace_file(path, [np.eye(2, 1, dtype=complex),
                               np.eye(2, 1, k=-1, dtype=complex)])
    out = tmp_path / "mean.json"
    code = main(["karcher-mean", str(path), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "error:" in err
    # the message names the datum at the cut locus, under either step rule
    assert "datum 1 " in err
    assert main(["karcher-mean", str(path), "--out", str(out), "--step", "newton"]) == 3
    assert "datum 1 " in capsys.readouterr().err
    # the partial trace is preserved for post-mortem
    assert (tmp_path / "mean.trace.csv").exists()
    assert not out.exists()


def test_karcher_mean_newton_step_rule(tmp_path, capsys):
    rng = np.random.default_rng(3)
    cols = []
    for _ in range(3):
        v = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        cols.append(v / np.linalg.norm(v))
    path = tmp_path / "lines.json"
    write_subspace_file(path, cols)
    out = tmp_path / "mean.json"
    code = main(["karcher-mean", str(path), "--out", str(out), "--step", "newton"])
    assert code == 0
    assert "status = converged" in capsys.readouterr().out
    # the rule takes subspaces of any dimension
    planes = cloud_file(tmp_path, "planes.json", n=5, m=2)
    assert main(["karcher-mean", str(planes), "--out", str(out), "--step", "newton"]) == 0
    assert "status = converged" in capsys.readouterr().out.splitlines()


def test_distance_output(tmp_path, capsys):
    path = cp1_file(tmp_path, 0.3)
    assert main(["distance", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("distance = ")
    assert abs(float(lines[0].split("= ")[1]) - np.sqrt(2.0) * 0.3) < 1e-10
    angles = [float(v) for v in lines[1].split("= ")[1].split()]
    assert len(angles) == 1 and abs(angles[0] - 0.3) < 1e-10


@pytest.mark.parametrize("command", ["karcher-mean", "distance"])
def test_each_run_reads_its_file_once(tmp_path, capsys, monkeypatch, command):
    # the reader is looked up as cli.read_subspace_file, once per run; the
    # benchmark's span tracer wraps that attribute to time the file layer
    calls = []
    original = cli.read_subspace_file
    monkeypatch.setattr(cli, "read_subspace_file",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    path = cp1_file(tmp_path, 0.3)
    extra = ["--out", str(tmp_path / "mean.json")] if command == "karcher-mean" else []
    assert main([command, str(path)] + extra) == 0
    assert len(calls) == 1


def test_distance_needs_exactly_two(tmp_path, capsys):
    path = cloud_file(tmp_path, count=3)
    assert main(["distance", str(path)]) == 1
    assert "exactly 2" in capsys.readouterr().err


def test_repair_flag_fixes_skewed_file(tmp_path, capsys):
    a = np.eye(3, 1, dtype=complex) * 1.5
    b = np.eye(3, 1, k=-1, dtype=complex)
    b = b + 0.2 * np.eye(3, 1, k=-2, dtype=complex)
    path = tmp_path / "skewed.json"
    write_subspace_file(path, [a, b])
    assert main(["distance", str(path)]) == 1
    capsys.readouterr()
    assert main(["distance", str(path), "--repair"]) == 0


def test_bi_experiment_writes_results(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["bi-experiment", "--n", "3", "--eps-list", "0.5",
                 "--nest-list", "2", "--trials", "2", "--samples", "500",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "rows = 2" in printed and f"out = {out}" in printed
    lines = out.read_text().splitlines()
    assert lines[0].startswith("trial,")
    assert len(lines) == 3


def test_bi_experiment_sweeps_the_estimation_count(tmp_path, capsys):
    # --nest-list varies only beside a single --eps-list value; the default
    # --eps-list has five values, so a count sweep must name one
    out = tmp_path / "rows.csv"
    args = ["bi-experiment", "--n", "3", "--nest-list", "2,3", "--trials", "2",
            "--samples", "300", "--out", str(out)]
    assert main(args) == 1
    assert "only one of --eps-list and --nest-list" in capsys.readouterr().err
    assert main(args + ["--eps-list", "0.5"]) == 0
    assert "rows = 4" in capsys.readouterr().out
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[1], row[2]) for row in rows] == [
        ("0", "n_estimations", "2.0"), ("1", "n_estimations", "2.0"),
        ("0", "n_estimations", "3.0"), ("1", "n_estimations", "3.0")]


def test_bi_experiment_flag_validation(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(["bi-experiment", "--eps-list", "1,0.5", "--nest-list", "2,4",
                 "--out", out]) == 1
    assert main(["bi-experiment", "--nest-list", "2.5", "--out", out]) == 1
    for bad in ("inf", "nan", "1e400"):
        assert main(["bi-experiment", "--nest-list", bad, "--out", out]) == 1
    assert main(["bi-experiment", "--eps-list", "abc", "--out", out]) == 1
    assert main(["bi-experiment", "--eps-list", ",", "--out", out]) == 1
    assert main(["bi-experiment", "--seed", "-1", "--out", out]) == 1
    assert "rng_seed" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["nan", "inf", "0.5,nan"])
def test_bi_experiment_rejects_non_finite_noise(tmp_path, capsys, eps):
    out = tmp_path / "rows.csv"
    assert main(["bi-experiment", "--n", "3", "--eps-list", eps, "--trials", "1",
                 "--samples", "500", "--out", str(out)]) == 1
    assert "noise level" in capsys.readouterr().err
    assert not out.exists()


def test_same_seed_repeats_byte_identical(tmp_path):
    src = cloud_file(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"mean_{tag}.json"
        assert main(["karcher-mean", str(src), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        outs.append((tmp_path / f"mean_{tag}.trace.csv").read_bytes())
    assert outs[0] == outs[2] and outs[1] == outs[3]

    rows = []
    for tag in ("a", "b"):
        out = tmp_path / f"rows_{tag}.csv"
        assert main(["bi-experiment", "--n", "3", "--eps-list", "0.5",
                     "--nest-list", "2", "--trials", "2", "--samples", "500",
                     "--seed", "7", "--out", str(out)]) == 0
        rows.append(out.read_bytes())
    assert rows[0] == rows[1]


_SCIPY_FREE_RUN = textwrap.dedent("""
    import sys
    import numpy as np
    import grassmean, grassmean.cli

    def scipy_loaded():
        return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

    cloud, pair, out, rows = sys.argv[1:]
    assert grassmean.cli.main(["karcher-mean", cloud, "--out", out]) == 0
    assert grassmean.cli.main(["distance", pair]) == 0
    assert not scipy_loaded(), scipy_loaded()
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sym = z + z.T
    vals, unitary = grassmean.takagi(sym)
    assert np.linalg.norm(unitary @ np.diag(vals) @ unitary.T - sym) < 1e-12
    assert np.linalg.norm(unitary.conj().T @ unitary - np.eye(4)) < 1e-12
    assert not scipy_loaded(), scipy_loaded()
    assert grassmean.cli.main(["bi-experiment", "--n", "3", "--eps-list", "0.5",
                               "--nest-list", "2", "--trials", "2", "--samples", "500",
                               "--seed", "7", "--out", rows]) == 0
    assert not scipy_loaded(), scipy_loaded()
""")


def test_import_and_file_commands_leave_scipy_unloaded(tmp_path):
    # a fresh interpreter: the package, karcher-mean, distance, takagi and
    # bi-experiment are numpy-only
    cloud, pair = cloud_file(tmp_path), cp1_file(tmp_path, 0.3)
    src = Path(grassmean.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n"
         + _SCIPY_FREE_RUN, str(cloud), str(pair), str(tmp_path / "mean.json"),
         str(tmp_path / "rows.csv")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_leaves_concurrent_futures_unloaded():
    # generate_sources imports its draw thread's executor on first use, the
    # file layer its json and csv, and the CLI its argparse, so the import
    # that the benchmark's set-up time covers does no more work
    src = Path(grassmean.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n"
         "import grassmean, grassmean.cli\n"
         "loaded = {'concurrent.futures', 'json', 'csv', 'argparse'} & set(sys.modules)\n"
         "assert not loaded, f'{sorted(loaded)} loaded'"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_entries_near_the_double_limit_give_only_the_one_line_error(tmp_path):
    # a Gram that overflows reads defect inf with no numpy warning before the
    # error; run in a fresh process, where warnings reach stderr unfiltered
    path = tmp_path / "huge.json"
    write_subspace_file(path, [np.array([[1.0], [1.7e308 + 1.7e308j]])])
    out = tmp_path / "mean.json"
    src = Path(grassmean.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-W", "default", "-c",
         f"import sys; sys.path.insert(0, {str(src)!r})\n"
         "from grassmean.cli import console_main; console_main()",
         "karcher-mean", str(path), "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == ("error: bases[0] is not orthonormal (defect inf); "
                           "pass repair to re-orthonormalize\n")
    assert not out.exists()
