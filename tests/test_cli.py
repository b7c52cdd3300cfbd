"""End-to-end tests of the command-line interface and its exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cknsym
import cknsym.variational as variational
from cknsym.cli import main
from cknsym.grid import BallGrid, load_field
from cknsym.kvdoc import parse_kv
from cknsym.variational import SolveOptions, report_summary_from_doc


def write_doc(path, text):
    path.write_text(text)
    return str(path)


def run(*argv):
    return main(list(argv))


# --------------------------------------------------------------------------
# enumerate


def test_enumerate_dimension_eight(tmp_path, capsys):
    cfg = write_doc(tmp_path / "enum.kv", "n: 8\n")
    assert run("enumerate", "--config", cfg) == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert pairs["count"] == "4"
    assert pairs["config 0"] == "alpha=0 m=0,0,1"
    assert pairs["config 3"] == "alpha=0 m=2,0,0"


def test_enumerate_writes_output_file(tmp_path):
    cfg = write_doc(tmp_path / "enum.kv", "n: 4\nalpha_max: 1\n")
    out = tmp_path / "family.kv"
    assert run("enumerate", "--config", cfg, "--out", str(out)) == 0
    pairs = parse_kv(out.read_text())
    assert pairs["count"] == "2"


def test_enumerate_rejects_small_dimension(tmp_path, capsys):
    cfg = write_doc(tmp_path / "enum.kv", "n: 3\n")
    assert run("enumerate", "--config", cfg) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_rejects_unknown_keys(tmp_path):
    cfg = write_doc(tmp_path / "enum.kv", "n: 8\nbogus: 1\n")
    assert run("enumerate", "--config", cfg) == 2


def test_enumerate_requires_a_config(capsys):
    assert run("enumerate") == 2
    assert "requires --config" in capsys.readouterr().err


def test_unwritable_output_is_an_io_failure(tmp_path):
    cfg = write_doc(tmp_path / "enum.kv", "n: 8\n")
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.kv"
    assert run("enumerate", "--config", cfg, "--out", str(missing_dir)) == 1


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_doc(tmp_path / "enum.kv", "n: 10\nalpha_max: 2\n")
    out1, out2 = tmp_path / "a.kv", tmp_path / "b.kv"
    assert run("enumerate", "--config", cfg, "--out", str(out1)) == 0
    assert run("enumerate", "--config", cfg, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --------------------------------------------------------------------------
# check-group


def test_check_group_passes_for_basic_config(tmp_path, capsys):
    cfg = write_doc(tmp_path / "grp.kv", "n: 4\nalpha: 0\nm: 1\ntrials: 200\n")
    assert run("check-group", "--config", cfg) == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert pairs["P1 stabilizer-in-kernel"] == "pass"
    assert pairs["P2 sign-homomorphism"] == "pass"
    assert pairs["P3 infinite-orbits"] == "pass"
    assert pairs["overall"] == "pass"


def test_check_group_reports_tail_failure(tmp_path, capsys):
    # n = 7 with a width-3 block leaves one leftover coordinate: its orbit
    # is a fixed point, which the nonzero-weight regime cannot tolerate
    cfg = write_doc(tmp_path / "grp.kv",
                    "n: 7\nalpha: 0\nm: 0,1\nregime: a_eq_b_nonzero\ntrials: 100\n")
    assert run("check-group", "--config", cfg) == 1
    pairs = parse_kv(capsys.readouterr().out)
    assert pairs["P3 infinite-orbits"] == "fail"
    assert "P3 certificate" in pairs
    assert pairs["overall"] == "fail"


@pytest.mark.parametrize("text", ["n: 4\nalpha: 0\nm: 7\n",
                                  "n: 4\nalpha: 0\nm: 1\ntrials: 0\n",
                                  "n: 4\nalpha: 0\nm: 1\ntrials: -3\n"])
def test_check_group_rejects_malformed_config(tmp_path, text):
    cfg = write_doc(tmp_path / "grp.kv", text)
    assert run("check-group", "--config", cfg) == 2


def test_check_group_reruns_are_byte_identical(tmp_path):
    cfg = write_doc(tmp_path / "grp.kv", "n: 6\nalpha: 1\nm:\ntrials: 100\n")
    out1, out2 = tmp_path / "a.kv", tmp_path / "b.kv"
    assert run("check-group", "--config", cfg, "--out", str(out1), "--seed", "3") == 0
    assert run("check-group", "--config", cfg, "--out", str(out2), "--seed", "3") == 0
    assert out1.read_bytes() == out2.read_bytes()


# --------------------------------------------------------------------------
# distinguish


def test_distinguish_reports_guaranteed_pair(tmp_path, capsys):
    cfg = write_doc(tmp_path / "pair.kv",
                    "n: 8\nalpha_a: 0\nm_a: 1,0,0\nalpha_b: 0\nm_b: 2,0,0\n")
    assert run("distinguish", "--config", cfg) == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert pairs["verdict"] == "guaranteed"


def test_distinguish_reports_undecided_pair(tmp_path, capsys):
    cfg = write_doc(tmp_path / "pair.kv",
                    "n: 8\nalpha_a: 0\nm_a: 2,0,0\nalpha_b: 0\nm_b: 0,0,1\n")
    assert run("distinguish", "--config", cfg) == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert pairs["verdict"] == "not_guaranteed"
    assert "gcd" in pairs["reason"]


# --------------------------------------------------------------------------
# orbit


def test_orbit_classifies_the_origin_as_a_singleton(tmp_path, capsys):
    cfg = write_doc(tmp_path / "orb.kv",
                    "n: 4\nalpha: 0\nm: 1\npoint: 0,0,0,0\n")
    assert run("orbit", "--config", cfg) == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert pairs["kind"] == "finite_singleton"


def test_orbit_classifies_generic_points_as_infinite(tmp_path, capsys):
    cfg = write_doc(tmp_path / "orb.kv",
                    "n: 4\nalpha: 0\nm: 1\npoint: 0.5,0.1,-0.2,0.3\n")
    assert run("orbit", "--config", cfg) == 0
    pairs = parse_kv(capsys.readouterr().out)
    assert pairs["kind"] == "infinite"


@pytest.mark.parametrize("point", ["0.5,oops,0,0", "nan,0,0,0", "0,inf,0,0",
                                   "0,0,0,0\nsamples: 8"])
def test_orbit_rejects_malformed_points(tmp_path, point):
    cfg = write_doc(tmp_path / "orb.kv", f"n: 4\nalpha: 0\nm: 1\npoint: {point}\n")
    assert run("orbit", "--config", cfg) == 2


# --------------------------------------------------------------------------
# solve


SOLVE_DOC = """n: 4
alpha: 0
m: 1
points_per_axis: 9
max_iters: 12
"""


def test_solve_writes_the_result_bundle(tmp_path, capsys):
    cfg = write_doc(tmp_path / "solve.kv", SOLVE_DOC)
    out = tmp_path / "results"
    assert run("solve", "--config", cfg, "--out", str(out)) == 0
    listing = capsys.readouterr().out
    assert "report.txt" in listing and "field.dat" in listing and "run.log" in listing
    printed = parse_kv(listing)
    assert list(printed) == ["report", "field", "log", "outcome", "converged"]

    summary = report_summary_from_doc((out / "report.txt").read_text())
    assert summary["n"] == 4
    assert summary["sign certified"] is True
    assert summary["level estimate"] > 0

    grid, field = load_field(out / "field.dat")
    assert grid == BallGrid(4, 9, 1.0)
    assert field.shape == grid.shape
    assert np.max(np.abs(field)) > 0

    log = parse_kv((out / "run.log").read_text())
    assert log["max_iters"] == "12"
    assert log["q (resolved)"]
    assert log["outcome"] == printed["outcome"] == summary["stop reason"]
    assert printed["converged"] == ("yes" if summary["converged"] else "no")
    # the full parameter echo: every solver option, defaults included
    for f in dataclasses.fields(SolveOptions):
        assert (f.name in log) == (f.name != "checkpoint_path"), f.name
    assert log["checkpoint_every"] == "0"
    assert log["tol"] == "1.0000000000000001e-05"


@pytest.mark.parametrize("setting", [
    "checkpoint_every: -1", "max_iters: -3", "initial_step: 0", "initial_step: -0.2",
    "tol: -1", "tol: nan", "subcritical_shift: -1", "seed_width: -0.1",
    "radius: 1e100", "radius: 1e-100", "radius: inf", "seed_offset: nan", "seed_offset: inf"])
def test_solve_rejects_meaningless_options(tmp_path, capsys, setting):
    base = SOLVE_DOC.replace("max_iters: 12\n", "")
    doc = write_doc(tmp_path / "solve.kv", f"{base}{setting}\n")
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {setting.split(':')[0]} must be") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg = write_doc(tmp_path / "solve.kv", SOLVE_DOC)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("solve", "--config", cfg, "--out", str(out1)) == 0
    assert run("solve", "--config", cfg, "--out", str(out2)) == 0
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    assert (out1 / "field.dat").read_bytes() == (out2 / "field.dat").read_bytes()


def test_solve_resume_matches_uninterrupted_run(tmp_path):
    base = "n: 4\nalpha: 0\nm: 1\npoints_per_axis: 9\n"
    full_doc = write_doc(tmp_path / "full.kv", base + "max_iters: 20\n")
    part_doc = write_doc(tmp_path / "part.kv", base + "max_iters: 12\ncheckpoint_every: 4\n")
    full_out, part_out, res_out = tmp_path / "full", tmp_path / "part", tmp_path / "res"
    assert run("solve", "--config", full_doc, "--out", str(full_out)) == 0
    assert run("solve", "--config", part_doc, "--out", str(part_out)) == 0
    resume_doc = write_doc(
        tmp_path / "resume.kv",
        base + f"max_iters: 20\nresume: {part_out / 'checkpoint.dat'}\n")
    assert run("solve", "--config", resume_doc, "--out", str(res_out)) == 0

    full = report_summary_from_doc((full_out / "report.txt").read_text())
    resumed = report_summary_from_doc((res_out / "report.txt").read_text())
    assert resumed["energy"] == pytest.approx(full["energy"], rel=1e-12)
    assert resumed["level"] == pytest.approx(full["level"], rel=1e-12)


def test_solve_missing_checkpoint_is_an_io_failure(tmp_path, capsys):
    doc = write_doc(tmp_path / "solve.kv",
                    SOLVE_DOC + f"resume: {tmp_path / 'absent.dat'}\n")
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_half_specified_weights(tmp_path):
    doc = write_doc(tmp_path / "solve.kv", SOLVE_DOC + "a: 0.1\n")
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 2


def test_solve_rejects_invalid_grid(tmp_path):
    doc = write_doc(tmp_path / "solve.kv",
                    "n: 4\nalpha: 0\nm: 1\npoints_per_axis: 8\n")
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 2


def test_solve_refuses_the_zero_class(tmp_path, capsys):
    doc = write_doc(tmp_path / "solve.kv",
                    "n: 6\nalpha: 0\nm: 0,1\npoints_per_axis: 5\nmax_iters: 1\n")
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("broken", ["certificate", "equivariance"])
def test_solve_refuses_a_candidate_that_breaks_its_promise(tmp_path, capsys, monkeypatch,
                                                           broken):
    if broken == "certificate":
        real = variational.sign_certificate
        monkeypatch.setattr(variational, "sign_certificate",
                            lambda values, cfg: dataclasses.replace(real(values, cfg),
                                                                    element_sign=1))
    else:
        monkeypatch.setattr(variational, "equivariance_residual", lambda values, cfg: 1e-3)
    doc = write_doc(tmp_path / "solve.kv", SOLVE_DOC)
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("radius, code", [("1e-50", 2), ("1e-30", 0), ("1e30", 0)])
def test_solve_on_an_extreme_radius_reports_finite_values_or_refuses(tmp_path, capsys,
                                                                     radius, code):
    # at 1e-50 the Nehari amplitude pushes the energies of the result past the
    # float range; the radius itself passes the grid rule (h**4 is about 4e-202)
    doc = write_doc(tmp_path / "solve.kv", SOLVE_DOC.replace(
        "max_iters: 12\n", f"max_iters: 4\nradius: {radius}\n"))
    out = tmp_path / "out"
    assert run("solve", "--config", doc, "--out", str(out)) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: at radius 1e-50 ") and err.count("\n") == 1
        assert not (out / "report.txt").exists()
    else:
        assert err == ""
        summary = report_summary_from_doc((out / "report.txt").read_text())
        for key in ("energy", "level", "level estimate", "kinetic", "potential", "grad norm"):
            assert np.isfinite(summary[key]) and summary[key] > 0, key


def test_solve_refuses_a_grid_that_cannot_fit(tmp_path, capsys):
    doc = write_doc(tmp_path / "solve.kv",
                    "n: 6\nalpha: 0\nm: 1,0\npoints_per_axis: 201\n")
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "physical memory" in err


def test_cli_import_loads_no_scipy_module():
    src = str(Path(cknsym.__file__).resolve().parents[1])
    probe = ("import sys, cknsym.cli; "
             "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_solve_resume_refuses_a_checkpoint_grid_that_cannot_fit(tmp_path, capsys):
    part = write_doc(tmp_path / "part.kv", SOLVE_DOC + "checkpoint_every: 4\n")
    assert run("solve", "--config", part, "--out", str(tmp_path / "part")) == 0
    header = json.loads((tmp_path / "part" / "checkpoint.dat").read_bytes().split(b"\n", 1)[0])
    header.update(points_per_axis=40001, shape=[1])
    header.pop("arrays", None)
    bad = tmp_path / "huge.dat"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
    capsys.readouterr()
    doc = write_doc(tmp_path / "resume.kv", SOLVE_DOC + f"resume: {bad}\n")
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "physical memory" in err


def _grid_checkpoint(header: bytes) -> bytes:
    """The checkpoint of the same state in the version-1 layout: no shape
    key and three grid-shaped arrays (iterate, previous iterate, direction)."""
    old = json.loads(header)
    old["version"] = 1
    del old["shape"]
    return json.dumps(old, sort_keys=True).encode() + b"\n" + bytes(3 * 8 * 9 ** 4)


@pytest.mark.parametrize("corruption", ["garbage", "missing-n", "truncated", "version-1"])
def test_solve_resume_from_a_corrupt_checkpoint_is_a_validation_error(
        tmp_path, capsys, corruption):
    part = write_doc(tmp_path / "part.kv", SOLVE_DOC + "checkpoint_every: 4\n")
    assert run("solve", "--config", part, "--out", str(tmp_path / "part")) == 0
    good = (tmp_path / "part" / "checkpoint.dat").read_bytes()
    header, payload = good.split(b"\n", 1)
    data = {"garbage": b"\xff\xfe\x00garbage" + bytes(range(256)),
            "missing-n": header.replace(b'"n": 4, ', b"") + b"\n" + payload,
            "truncated": good[:-5],
            "version-1": _grid_checkpoint(header)}[corruption]
    bad = tmp_path / "bad.dat"
    bad.write_bytes(data)
    capsys.readouterr()
    doc = write_doc(tmp_path / "resume.kv", SOLVE_DOC + f"resume: {bad}\n")
    assert run("solve", "--config", doc, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
