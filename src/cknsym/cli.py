"""Command-line entry point.

Subcommand grammar::

    cknsym <enumerate|check-group|distinguish|orbit|solve>
           [--config PATH] [--out PATH] [--seed N]

Every command reads its parameters from a small ``key: value`` document
(``--config``); unknown keys are rejected so typos fail loudly instead of
silently running defaults.  Exit codes: 0 success, 1 runtime or I/O failure
(including a failed check suite), 2 validation failure.  All output is
deterministic for a fixed document and seed; nothing emitted carries a
timestamp, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .codes import distinct_guaranteed
from .enumeration import ConfigFamily, enumerate_configs, family_to_doc
from .grid import BallGrid, GridError, save_field
from .kvdoc import DocumentError, format_kv, format_value, get_float, get_int, parse_kv, require_keys
from .symmetry import (
    GroupElement,
    GroupOperationError,
    InvalidConfigError,
    REGIMES,
    SymmetryConfig,
    config_from_pairs,
    config_to_pairs,
    orbit_classify,
    phi_is_homomorphism_check,
    stabilizer_in_kernel_check,
)
from .variational import (
    ProblemParams,
    SolveOptions,
    VariationalError,
    params_for_config,
    report_to_doc,
    solve,
)


# --------------------------------------------------------------------------
# document helpers


def _read_doc(path: str | None) -> dict[str, str]:
    if path is None:
        raise DocumentError("this command requires --config PATH")
    return parse_kv(Path(path).read_text())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# --------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args: argparse.Namespace) -> int:
    pairs = _read_doc(args.config)
    require_keys(pairs, ("n",), optional=("regime", "alpha_max"))
    n = get_int(pairs, "n")
    regime = pairs.get("regime", "a_less_b")
    alpha_max = get_int(pairs, "alpha_max", 0)
    family = ConfigFamily(enumerate_configs(n, regime, alpha_max))
    _emit(family_to_doc(family, n=n, regime=regime), args.out)
    return 0


# --------------------------------------------------------------------------
# check-group


def _structural_config(pairs: dict[str, str]) -> tuple[SymmetryConfig, str]:
    """Build the config, deferring regime-specific tail admissibility.

    The check suites must be able to REPORT a failing tail condition, so a
    config that is structurally sound but inadmissible for its requested
    regime is constructed under the default regime and the requested one is
    carried alongside for the orbit suite.
    """
    regime = pairs.get("regime", "a_less_b")
    try:
        return config_from_pairs(pairs), regime
    except InvalidConfigError:
        if regime not in REGIMES:
            raise
        # retry without the tail requirement; genuine structural violations
        # (size condition, bad multiplicities) raise again and exit 2
        return config_from_pairs(pairs, regime="a_less_b"), regime


def _element_summary(g: GroupElement) -> str:
    parts = []
    if g.pinwheel is not None and g.pinwheel != (0, 0.0):
        parts.append(f"pinwheel step={g.pinwheel[0]} angle={g.pinwheel[1]:.6g}")
    for i, (twist, angle) in enumerate(g.blocks):
        if (twist, angle) != (0, 0.0):
            parts.append(f"block[{i}] twist={twist} angle={angle:.6g}")
    return "; ".join(parts) if parts else "identity"


def cmd_check_group(args: argparse.Namespace) -> int:
    pairs = _read_doc(args.config)
    require_keys(pairs, ("n", "alpha", "m"), optional=("regime", "trials"))
    cfg, regime = _structural_config(pairs)
    trials = get_int(pairs, "trials", 2000)
    if trials < 1:
        raise DocumentError(f"key 'trials' must be >= 1, got {trials}")

    report = config_to_pairs(cfg, regime)
    failures = 0

    stab = stabilizer_in_kernel_check(cfg)
    report["P1 stabilizer-in-kernel"] = "pass" if stab.passed else "fail"
    if not stab.passed:
        failures += 1
        if stab.certificate is not None:
            report["P1 certificate"] = _element_summary(stab.certificate)

    hom = phi_is_homomorphism_check(cfg, trials=trials, seed=args.seed)
    report["P2 sign-homomorphism"] = "pass" if hom.passed else "fail"
    if not hom.passed:
        failures += 1
        if hom.first_violation is not None:
            g, h = hom.first_violation
            report["P2 certificate"] = (
                f"g: {_element_summary(g)} | h: {_element_summary(h)}")
        elif not (hom.plus_seen and hom.minus_seen):
            report["P2 certificate"] = "sign character did not attain both values"

    # the orbit suite: every nonzero point must have an infinite orbit; a
    # width-1 leftover coordinate is fixed by the whole group, so it breaks
    # the suite whenever nonzero weights make the leftover block matter
    tail_ok = cfg.tail_condition_holds
    report["P3 infinite-orbits"] = "pass" if tail_ok else "fail"
    if not tail_ok:
        failures += 1
        probe = np.zeros(cfg.n)
        probe[-1] = 1.0
        orb = orbit_classify(cfg, probe)
        report["P3 certificate"] = (
            f"point with only the leftover coordinate set is {orb.kind}: {orb.reason}")
        if regime == "a_eq_b_nonzero":
            report["P3 note"] = (
                "configuration is inadmissible for the equal nonzero weight regime")

    report["overall"] = "pass" if failures == 0 else "fail"
    _emit(format_kv(report), args.out)
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# distinguish


def cmd_distinguish(args: argparse.Namespace) -> int:
    pairs = _read_doc(args.config)
    require_keys(pairs, ("n", "alpha_a", "m_a", "alpha_b", "m_b"),
                 optional=("regime",))
    cfg_a = config_from_pairs(pairs, "_a")
    cfg_b = config_from_pairs(pairs, "_b")
    verdict = distinct_guaranteed(cfg_a, cfg_b)
    _emit(format_kv({
        "n": str(cfg_a.n), "regime": cfg_a.regime,
        "config a": f"alpha={cfg_a.alpha} m={format_value(cfg_a.m)}",
        "config b": f"alpha={cfg_b.alpha} m={format_value(cfg_b.m)}",
        "verdict": "guaranteed" if verdict.guaranteed else "not_guaranteed",
        "reason": verdict.reason,
    }), args.out)
    return 0


# --------------------------------------------------------------------------
# orbit


def cmd_orbit(args: argparse.Namespace) -> int:
    pairs = _read_doc(args.config)
    require_keys(pairs, ("n", "alpha", "m", "point"),
                 optional=("regime",))
    cfg, _ = _structural_config(pairs)
    try:
        point = np.array([float(v) for v in pairs["point"].split(",")])
    except ValueError as exc:
        raise DocumentError("key 'point' must be comma-separated numbers") from exc
    orb = orbit_classify(cfg, point)
    _emit(format_kv({
        **config_to_pairs(cfg),
        "point": pairs["point"],
        "kind": orb.kind,
        "reason": orb.reason,
    }), args.out)
    return 0


# --------------------------------------------------------------------------
# solve


# the solver options are the SolveOptions fields, read with their own types
# and defaults; the CLI places the checkpoint next to the other outputs
_OPTION_FIELDS = tuple(f for f in dataclasses.fields(SolveOptions)
                       if f.name != "checkpoint_path")
_READERS = {int: get_int, float: get_float}
_SOLVE_OPTIONAL = (("regime", "radius", "p", "a", "b", "weight_strength", "resume")
                   + tuple(f.name for f in _OPTION_FIELDS))


def cmd_solve(args: argparse.Namespace) -> int:
    pairs = _read_doc(args.config)
    require_keys(pairs, ("n", "alpha", "m", "points_per_axis"),
                 optional=_SOLVE_OPTIONAL)
    cfg = config_from_pairs(pairs)
    grid = BallGrid(cfg.n, get_int(pairs, "points_per_axis"),
                    radius=get_float(pairs, "radius", 1.0))

    p = get_float(pairs, "p", 2.0)
    if "a" in pairs or "b" in pairs:
        if not ("a" in pairs and "b" in pairs):
            raise DocumentError("keys 'a' and 'b' must be given together")
        params = ProblemParams(cfg.n, p, get_float(pairs, "a", 0.0),
                               get_float(pairs, "b", 0.0))
    else:
        params = params_for_config(cfg, p, get_float(pairs, "weight_strength", 0.3))

    values = {f.name: _READERS[type(f.default)](pairs, f.name, f.default)
              for f in _OPTION_FIELDS}
    out_dir = Path(args.out if args.out is not None else "results")
    checkpoint = str(out_dir / "checkpoint.dat") if values["checkpoint_every"] else None
    options = SolveOptions(**values, checkpoint_path=checkpoint)
    out_dir.mkdir(parents=True, exist_ok=True)

    resume = pairs.get("resume")
    report = solve(cfg, grid, params=params, options=options, resume_from=resume)

    echo = dict(pairs)
    echo.setdefault("regime", cfg.regime)
    echo.setdefault("radius", format_value(grid.radius))
    echo.setdefault("p", format_value(params.p))
    for key in ("a", "b", "q"):
        echo[f"{key} (resolved)"] = format_value(getattr(params, key))
    for name, value in values.items():
        echo.setdefault(name, format_value(value))
    echo["seed (cli)"] = str(args.seed)
    echo["outcome"] = report.stop_reason
    echo["iterations"] = str(report.iterations)
    echo["energy"] = format_value(report.energy)
    echo["level"] = format_value(report.level)
    echo["sign certified"] = format_value(report.certificate.certifies_sign_change)

    (out_dir / "report.txt").write_text(report_to_doc(report))
    save_field(out_dir / "field.dat", grid, report.field)
    (out_dir / "run.log").write_text(format_kv(echo))
    sys.stdout.write(f"report: {out_dir / 'report.txt'}\n"
                     f"field: {out_dir / 'field.dat'}\n"
                     f"log: {out_dir / 'run.log'}\n"
                     f"outcome: {report.stop_reason}\n"
                     f"converged: {format_value(report.converged)}\n")
    return 0


# --------------------------------------------------------------------------
# entry point


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "enumerate": cmd_enumerate,
    "check-group": cmd_check_group,
    "distinguish": cmd_distinguish,
    "orbit": cmd_orbit,
    "solve": cmd_solve,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cknsym",
        description="Symmetry-group tooling for weighted critical variational problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("enumerate", "list admissible symmetry configurations"),
            ("check-group", "run the stabilizer/homomorphism/orbit suites"),
            ("distinguish", "decide whether two configurations force distinct solutions"),
            ("orbit", "classify the orbit of a point"),
            ("solve", "run the equivariant descent solver")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="key: value parameter document")
        cmd.add_argument("--out", help="output file (or directory for solve)")
        cmd.add_argument("--seed", type=int, default=0,
                         help="seed for randomized check suites")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DocumentError, InvalidConfigError, GroupOperationError,
            VariationalError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
