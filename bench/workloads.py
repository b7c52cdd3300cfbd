"""The four benchmark workloads: inputs, one timed pass, output checks.

Each workload has three steps.  ``setup`` builds the inputs (configs,
grids, ``key: value`` documents) from the scale and the seed; its cost is
reported as set-up time.  ``run`` is one timed pass that calls the package
the way its users do.  ``check`` turns the pass's outputs into operations,
each with a pass/fail verdict and a digest of its deterministic output, so
that the runner can also compare reruns byte for byte.

Library calls go through the module attribute (``variational.solve``, not a
name imported here) so that the tracer's wrappers see them.

The package's own caches (the angular-mean projector, grid geometry, the
lattice subgroup) are never pre-warmed: every pass runs in a fresh process,
like a ``cknsym solve`` user.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from cknsym import cli, codes, enumeration, grid, symmetry, variational

# acceptance tolerances the README promises for every returned solve
EQUIVARIANCE_TOL = 1e-8
SYMMETRIZATION_TOL = 1e-8
REFINEMENT_GAP_TOL = 0.05       # criterion 9 level-estimate gap
RESUME_RTOL = 1e-12             # README: resumed energy within 1e-12 relative
ORACLE_TOL = 1e-10              # criterion 1 deviation


@dataclass
class Op:
    """One operation of a pass: its verdict, the reasons it failed, a digest."""

    name: str
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class SolverStats:
    iterations: int = 0          # accepted descent steps, summed over solves
    rel_residual: float = 0.0    # worst final relative residual over solves


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _parse_report(text: str) -> dict[str, str]:
    """Independent reader for report.txt, so checks do not trust the library parser."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _check_report_fields(rep: dict[str, str]) -> list[str]:
    """README promise for a returned candidate: equivariant, sign-certified, finite."""
    problems = []
    try:
        eq = float(rep["equivariance"])
        gap = float(rep["symmetrization gap"])
        smin, smax = float(rep["sign min"]), float(rep["sign max"])
        level = float(rep["level"])
        certified = rep["sign certified"]
    except (KeyError, ValueError) as exc:
        return [f"report unreadable: {exc!r}"]
    if not eq <= EQUIVARIANCE_TOL:
        problems.append(f"equivariance {eq:.3g} > {EQUIVARIANCE_TOL:g}")
    if not gap <= SYMMETRIZATION_TOL:
        problems.append(f"symmetrization gap {gap:.3g} > {SYMMETRIZATION_TOL:g}")
    if certified != "yes" or not smin < 0.0 < smax:
        problems.append(f"no certified sign change (certified {certified}, "
                        f"min {smin:.3g}, max {smax:.3g})")
    if not math.isfinite(level):
        problems.append(f"level {level!r} is not finite")
    return problems


def _run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, err.getvalue().strip()


def _check_cli_solve(op: Op, code: int, err: str, out_dir: str,
                     expect_grid: grid.BallGrid) -> dict[str, str]:
    """Exit code, report promise, field.dat round trip; fills op.digest."""
    if code != 0:
        op.problems.append(f"exit {code}: {err}")
        return {}
    report_path = os.path.join(out_dir, "report.txt")
    field_path = os.path.join(out_dir, "field.dat")
    try:
        with open(report_path, "rb") as fh:
            report_bytes = fh.read()
        with open(field_path, "rb") as fh:
            field_bytes = fh.read()
    except OSError as exc:
        op.problems.append(f"result bundle incomplete: {exc}")
        return {}
    rep = _parse_report(report_bytes.decode("ascii", "replace"))
    op.problems += _check_report_fields(rep)
    op.problems += _field_round_trip(field_path, field_bytes, expect_grid)
    op.digest = f"report={_sha(report_bytes)} field={_sha(field_bytes)}"
    return rep


def _field_round_trip(path: str, raw: bytes, expect_grid: grid.BallGrid) -> list[str]:
    """field.dat reads back through load_field and rewrites to the same bytes."""
    try:
        g, values = grid.load_field(path)
    except (OSError, ValueError) as exc:
        return [f"load_field failed: {exc}"]
    if g != expect_grid:
        return [f"field grid {g} != {expect_grid}"]
    copy = path + ".roundtrip"
    grid.save_field(copy, g, values)
    with open(copy, "rb") as fh:
        same = fh.read() == raw
    os.remove(copy)
    if not np.all(np.isfinite(values)):
        return ["field holds non-finite values"]
    return [] if same else ["field.dat does not round-trip through load_field"]


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


# --------------------------------------------------------------------------
# refine4d: the criterion-9 refinement study, descent-dominated


class Refine4d:
    """(4, 0, 1) with p = 2, a = b = 0 at two sizes, library ``solve``."""

    SIZES = {"full": (17, 21), "mini": (9, 11)}
    MAX_ITERS = {"full": 600, "mini": 15}
    TOL = 1e-2

    def setup(self, scale: str, seed: int, work: str):
        cfg = symmetry.SymmetryConfig(4, 0, (1,))
        params = variational.ProblemParams(4, 2.0, 0.0, 0.0)
        options = variational.SolveOptions(max_iters=self.MAX_ITERS[scale], tol=self.TOL)
        grids = [grid.BallGrid(4, n, 1.0) for n in self.SIZES[scale]]
        return cfg, params, options, grids

    def run(self, inputs):
        cfg, params, options, grids = inputs
        return [variational.solve(cfg, g, params=params, options=options) for g in grids]

    def check(self, inputs, reports) -> tuple[list[Op], SolverStats]:
        ops, stats = [], SolverStats()
        for g, rep in zip(inputs[3], reports):
            op = Op(f"solve {g.points_per_axis}^4")
            cert = rep.certificate
            op.problems += _check_report_fields({
                "equivariance": repr(rep.equivariance),
                "symmetrization gap": repr(rep.symmetrization_gap),
                "sign min": repr(cert.min_value), "sign max": repr(cert.max_value),
                "level": repr(rep.level),
                "sign certified": "yes" if cert.certifies_sign_change else "no"})
            if not rep.monotone:
                op.problems.append("energy history is not strictly decreasing")
            op.digest = (f"report={_sha(variational.report_to_doc(rep).encode())} "
                         f"field={_sha(np.ascontiguousarray(rep.field).tobytes())}")
            ops.append(op)
            stats.iterations += rep.iterations
            stats.rel_residual = max(stats.rel_residual, rep.relative_residual)
        coarse, fine = reports[0].level_estimate, reports[-1].level_estimate
        gap = abs(coarse - fine) / abs(fine)
        if not gap <= REFINEMENT_GAP_TOL:
            ops[-1].problems.append(
                f"refinement gap {gap:.3%} > {REFINEMENT_GAP_TOL:.0%} "
                f"(estimates {coarse:.6g} vs {fine:.6g})")
        return ops, stats


# --------------------------------------------------------------------------
# solve6d: `cknsym solve` of the solvable 6-D configuration, diagnostics-dominated


class _CliSolves:
    """Workloads whose inputs are ``cknsym solve`` jobs: (tag, argv, out dir)."""

    def run(self, inputs):
        return [_run_cli(argv) for _, argv, _ in inputs[0]]

    def check(self, inputs, results) -> tuple[list[Op], SolverStats]:
        ops, stats, _ = self._check_solves(inputs, results)
        return ops, stats

    def _check_solves(self, inputs, results):
        jobs, expect = inputs
        ops, stats, reports = [], SolverStats(), {}
        for (tag, _, out), (code, err) in zip(jobs, results):
            op = Op(f"solve {tag}")
            rep = reports[tag] = _check_cli_solve(op, code, err, out, expect)
            try:
                stats.iterations += int(rep["iterations"])
                stats.rel_residual = max(stats.rel_residual, float(rep["relative residual"]))
            except (KeyError, ValueError):
                pass  # the failed check above already counts this solve
            ops.append(op)
        return ops, stats, reports


class Solve6d(_CliSolves):
    """``cknsym solve`` at N^6, max_iters 3, of (6, 0, m=1,0) in each regime.

    ``enumerate_configs(6)`` also returns m=0,1, whose single odd-width block
    has the zero class under the package's angular mean, so this code has no
    correct solve of it (see ``bench/README.md``).  It is left out, since
    every operation of a workload must be able to pass.  The three regimes
    give three different solves of the one solvable configuration.
    """

    M = "1,0"
    POINTS = 5
    MAX_ITERS = {"full": 3, "mini": 1}

    def setup(self, scale: str, seed: int, work: str):
        jobs = []
        for regime in symmetry.REGIMES:
            doc = _write(os.path.join(work, f"solve6d_{regime}.kv"),
                         f"n: 6\nalpha: 0\nm: {self.M}\nregime: {regime}\n"
                         f"points_per_axis: {self.POINTS}\n"
                         f"max_iters: {self.MAX_ITERS[scale]}\n")
            out = os.path.join(work, "out_" + regime)
            jobs.append((f"m={self.M} {regime}", ["solve", "--config", doc, "--out", out,
                                                  "--seed", str(seed)], out))
        return jobs, grid.BallGrid(6, self.POINTS, 1.0)


# --------------------------------------------------------------------------
# ckpt4d_p3: p = 3 kinetic path, checkpoint every step, resume


class Ckpt4dP3(_CliSolves):
    """``cknsym solve`` of (4, 0, 1), p = 3: uninterrupted vs interrupted + resume."""

    POINTS = {"full": 17, "mini": 9}
    ITERS = {"full": (40, 20), "mini": (6, 3)}

    def setup(self, scale: str, seed: int, work: str):
        total, part = self.ITERS[scale]
        base = f"n: 4\nalpha: 0\nm: 1\npoints_per_axis: {self.POINTS[scale]}\np: 3\n" \
               "checkpoint_every: 1\n"
        outs = {k: os.path.join(work, f"ckpt_{k}") for k in ("full", "part", "resumed")}
        docs = {
            "full": base + f"max_iters: {total}\n",
            "part": base + f"max_iters: {part}\n",
            "resumed": base + f"max_iters: {total}\n"
                              f"resume: {os.path.join(outs['part'], 'checkpoint.dat')}\n",
        }
        jobs = []
        for key in ("full", "part", "resumed"):
            doc = _write(os.path.join(work, f"ckpt_{key}.kv"), docs[key])
            jobs.append((key, ["solve", "--config", doc, "--out", outs[key],
                               "--seed", str(seed)], outs[key]))
        return jobs, grid.BallGrid(4, self.POINTS[scale], 1.0)

    def check(self, inputs, results) -> tuple[list[Op], SolverStats]:
        ops, stats, reports = self._check_solves(inputs, results)
        full, resumed = reports.get("full"), reports.get("resumed")
        if full and resumed:
            for key in ("energy", "level"):
                a, b = float(full[key]), float(resumed[key])
                if not abs(a - b) <= RESUME_RTOL * abs(a):
                    ops[-1].problems.append(
                        f"resumed {key} {b!r} != uninterrupted {a!r} (rtol {RESUME_RTOL:g})")
        return ops, stats


# --------------------------------------------------------------------------
# algebra: group oracle, closure calculus, enumeration and families


class Algebra:
    """The non-solver kernels; the seed drives every random draw."""

    ORACLE_PAIRS = {"full": 1000, "mini": 50}
    CLOSURE_T = {"full": 11, "mini": 6}
    ENUM_N = {"full": 40, "mini": 12}
    FAMILY_N = {"full": (12, 16, 20, 24), "mini": (12, 16)}
    CHECK_N = {"full": (4, 6, 8, 10), "mini": (4, 6)}
    DISTINGUISH_N = {"full": (12, 16, 20), "mini": (8,)}
    HOM_TRIALS = 200

    def setup(self, scale: str, seed: int, work: str):
        oracle_cfgs = (symmetry.SymmetryConfig(4, 0, (1,)),
                       symmetry.SymmetryConfig(8, 0, (0, 0, 1)),
                       symmetry.SymmetryConfig(8, 2, (1, 0, 0)))
        closure_cases = [(t, r, s) for t in range(2, self.CLOSURE_T[scale] + 1)
                         for s in range(2, t + 1) for r in range(1, s)]
        return {
            "seed": seed, "scale": scale, "oracle_cfgs": oracle_cfgs,
            "closure_cases": closure_cases,
            "closure_seeds": [[codes.v_word(t, r), codes.v_word(t, s)]
                              for t, r, s in closure_cases],
        }

    def run(self, inp):
        scale, seed = inp["scale"], inp["seed"]
        out: dict = {}
        rng = np.random.default_rng(seed)
        out["oracle"] = []
        for cfg in inp["oracle_cfgs"]:
            worst = 0.0
            for _ in range(self.ORACLE_PAIRS[scale]):
                g = symmetry.random_element(cfg, rng)
                h = symmetry.random_element(cfg, rng)
                left = symmetry.to_matrix(symmetry.compose(g, h))
                right = symmetry.to_matrix(g) @ symmetry.to_matrix(h)
                worst = max(worst, float(np.max(np.abs(left - right))))
            out["oracle"].append(worst)
        out["closure"] = [codes.closure(t, seeds) for (t, _, _), seeds
                          in zip(inp["closure_cases"], inp["closure_seeds"])]
        out["enum"] = [(n, am, enumeration.enumerate_configs(n, alpha_max=am),
                        enumeration.count_configs(n, alpha_max=am))
                       for n in range(4, self.ENUM_N[scale] + 1) for am in (0, 3)]
        out["family"] = [(n, enumeration.max_distinct_family(n))
                         for n in self.FAMILY_N[scale]]
        out["suites"] = [(cfg, symmetry.stabilizer_in_kernel_check(cfg),
                          symmetry.phi_is_homomorphism_check(cfg, self.HOM_TRIALS, seed))
                         for n in self.CHECK_N[scale]
                         for cfg in enumeration.enumerate_configs(n, alpha_max=1)]
        verdicts = []
        for n in self.DISTINGUISH_N[scale]:
            cfgs = enumeration.enumerate_configs(n, alpha_max=1)
            for i, a in enumerate(cfgs):
                for b in cfgs[i:]:
                    verdicts.append((a, b, codes.distinct_guaranteed(a, b),
                                     codes.distinct_guaranteed(b, a)))
        out["distinguish"] = verdicts
        return out

    def check(self, inp, out) -> tuple[list[Op], SolverStats]:
        ops: list[Op] = []
        for cfg, worst in zip(inp["oracle_cfgs"], out["oracle"]):
            op = Op(f"oracle n={cfg.n} alpha={cfg.alpha} m={cfg.m}", digest=repr(worst))
            if not worst <= ORACLE_TOL:
                op.problems.append(f"compose/to_matrix deviation {worst:.3g} > {ORACLE_TOL:g}")
            ops.append(op)
        for (t, r, s), code in zip(inp["closure_cases"], out["closure"]):
            op = Op(f"closure t={t} r={r} s={s}",
                    digest=_sha(repr(sorted(code.packed_words)).encode()))
            coprime = math.gcd(r, s) == 1
            if codes.contains_standard_basis(code) != coprime:
                op.problems.append(f"coprime={coprime} but standard basis "
                                   f"{'missing' if coprime else 'present'}")
            ops.append(op)
        for n, am, configs, count in out["enum"]:
            op = Op(f"enumerate n={n} alpha_max={am}", digest=f"{len(configs)}")
            if count != len(configs):
                op.problems.append(f"count_configs {count} != {len(configs)} enumerated")
            ops.append(op)
        for n, fam in out["family"]:
            op = Op(f"family n={n}", digest=enumeration.family_to_doc(fam, n, "a_less_b"))
            if len(fam) == 0 or not fam.all_pairwise_distinct():
                op.problems.append(f"family of {len(fam)} is empty or not pairwise distinct")
            ops.append(op)
        for cfg, stab, hom in out["suites"]:
            op = Op(f"check-group n={cfg.n} alpha={cfg.alpha} m={cfg.m}")
            if not stab.passed:
                op.problems.append("stabilizer-in-kernel suite failed")
            if not hom.passed:
                op.problems.append("sign-homomorphism suite failed")
            ops.append(op)
        for a, b, ab, ba in out["distinguish"]:
            op = Op(f"distinguish {a.alpha}/{a.m} vs {b.alpha}/{b.m}",
                    digest=f"{ab.guaranteed}")
            if ab.guaranteed != ba.guaranteed:
                op.problems.append("verdict depends on argument order")
            if a == b and ab.guaranteed:
                op.problems.append("a configuration is distinct from itself")
            ops.append(op)
        return ops, SolverStats()


WORKLOADS = {
    "refine4d": Refine4d(),
    "solve6d": Solve6d(),
    "ckpt4d_p3": Ckpt4dP3(),
    "algebra": Algebra(),
}
