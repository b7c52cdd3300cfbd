"""Self-tests for the benchmark: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cknsym import cli, variational  # noqa: E402
from cknsym.grid import BallGrid  # noqa: E402
from cknsym.symmetry import SymmetryConfig  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_specs()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_miniature_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "mini")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} \
        == {k: v["unit"] for k, v in result["metrics"].items()}
    for m in spec:
        assert any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("fail_frac: ") for line in lines)
    assert any(line.startswith("env: ") for line in lines)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "algebra", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _solve_dir(tmp_path) -> str:
    doc = tmp_path / "solve.kv"
    doc.write_text("n: 4\nalpha: 0\nm: 1\npoints_per_axis: 9\np: 2\na: 0\nb: 0\n"
                   "max_iters: 5\n")
    out = tmp_path / "out"
    code, err = workloads._run_cli(["solve", "--config", str(doc), "--out", str(out)])
    assert code == 0, err
    return str(out)


def test_doctored_report_with_broken_equivariance_fails(tmp_path):
    out = _solve_dir(tmp_path)
    expect = BallGrid(4, 9, 1.0)
    good = workloads.Op("honest")
    workloads._check_cli_solve(good, 0, "", out, expect)
    assert good.ok, good.problems

    report = os.path.join(out, "report.txt")
    lines = [("equivariance: 1.9" if line.startswith("equivariance:") else line)
             for line in open(report).read().splitlines()]
    with open(report, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    bad = workloads.Op("doctored")
    workloads._check_cli_solve(bad, 0, "", out, expect)
    assert not bad.ok
    assert any("equivariance 1.9" in p for p in bad.problems)


def test_known_6d_defect_is_counted_as_failed(tmp_path):
    # (6, 0, m=0,1) has the zero class; solve6d leaves it out because no
    # operation of a workload may fail, so its failure is pinned here instead
    doc = tmp_path / "solve.kv"
    doc.write_text("n: 6\nalpha: 0\nm: 0,1\npoints_per_axis: 5\nmax_iters: 1\n")
    out = tmp_path / "out"
    code, err = workloads._run_cli(["solve", "--config", str(doc), "--out", str(out)])
    op = workloads.Op("solve m=0,1")
    workloads._check_cli_solve(op, code, err, str(out), BallGrid(6, 5, 1.0))
    assert not op.ok


def test_refused_solve_counts_as_failed(tmp_path):
    op = workloads.Op("refused")
    workloads._check_cli_solve(op, 2, "error: bad grid", str(tmp_path), BallGrid(4, 9, 1.0))
    assert not op.ok


def test_output_differing_on_a_rerun_is_a_failure():
    passes = [{"ops": [["a", [], "x"], ["b", [], "y"]]},
              {"ops": [["a", [], "x"], ["b", [], "z"]]}]
    attempted, failed, failures = run.tally(passes)
    assert (attempted, failed) == (4, 1)
    assert "pass 1: b:" in failures[0]


def test_self_time_excludes_children(tmp_path):
    # parent [0, 1] causes child [0.2, 0.7], which causes grandchild [0.3, 0.4]
    names = tracer.SPAN_NAMES
    spans = [[0, 0.0, 1.0, -1], [1, 0.2, 0.7, 0], [2, 0.3, 0.4, 1]]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"names": names, "spans": spans, "counts": {}}))
    out = tracer.summarize(str(path))
    assert out[f"{names[0]}.self_s"] == pytest.approx(0.5)
    assert out[f"{names[1]}.self_s"] == pytest.approx(0.4)
    assert out[f"{names[2]}.self_s"] == pytest.approx(0.1)
    assert out[f"{names[0]}.calls"] == 1


def test_tracer_links_library_calls_and_restores_them(tmp_path):
    grid = BallGrid(4, 9, 1.0)
    energy = variational.DiscreteEnergy(grid, variational.ProblemParams(4, 2.0, 0.0, 0.0))
    u = variational.seed_field(SymmetryConfig(4, 0, (1,)), grid)
    originals = (variational.DiscreteEnergy.kinetic, variational.forward_diffs, cli.main)
    t = tracer.Tracer()
    t.install()
    try:
        energy.quotient(u)
    finally:
        t.uninstall()
    assert (variational.DiscreteEnergy.kinetic, variational.forward_diffs,
            cli.main) == originals
    names = [tracer.SPAN_NAMES[s[0]] for s in t.spans]
    assert names[0] == "variational.quotient"
    by_name = dict(zip(names, t.spans))
    assert by_name["variational.kinetic"][3] == 0        # caused by quotient
    assert by_name["grid.forward_diffs"][3] == names.index("variational.kinetic")
    t.write(str(tmp_path / "spans.json"))
    out = tracer.summarize(str(tmp_path / "spans.json"))
    quotient = t.spans[0][2] - t.spans[0][1]
    assert 0.0 <= out["variational.quotient.self_s"] < quotient
    assert out["grid.diff_bytes"] == 2 * 4 * 9 ** 4 * 8


def test_tracer_skips_functions_the_package_no_longer_has(monkeypatch):
    monkeypatch.delattr(variational, "_save_checkpoint")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert not hasattr(variational, "_save_checkpoint")
