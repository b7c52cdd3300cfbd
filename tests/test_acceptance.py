"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every criterion is asserted at its stated tolerance;
stated runtime budgets are asserted too.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cknsym.codes import (
    basis_word,
    closure,
    contains_standard_basis,
    distinct_guaranteed,
    v_word,
)
from cknsym.enumeration import count_configs, enumerate_configs
from cknsym.grid import BallGrid
from cknsym.symmetry import (
    SymmetryConfig,
    compose,
    conj_cycle_matrix,
    phi,
    pinwheel_matrix,
    random_element,
    stabilizer_in_kernel_check,
    sync_rotation_matrix,
    to_matrix,
)
from cknsym.variational import (
    DiscreteEnergy,
    ProblemParams,
    SolveOptions,
    params_for_config,
    solve,
)

from helpers import (
    dilation_invariance_gap,
    energy_gradient,
    energy_value,
    grid_points,
    symmetrize,
)


def announce(number, label, detail):
    print(f"\ncriterion {number:2d} ({label}): PASS ({detail})")


def smooth_bumps(grid, rng, count=3):
    pts = grid_points(grid)
    u = np.zeros(len(pts))
    for _ in range(count):
        c = rng.uniform(-0.4, 0.4, size=grid.n)
        w = rng.uniform(0.15, 0.3)
        u += rng.uniform(-1.0, 1.0) * np.exp(-np.sum((pts - c) ** 2, axis=1) / (2 * w * w))
    u = u.reshape(grid.shape) * grid.mask
    return u / np.max(np.abs(u))


# --------------------------------------------------------------------------


def test_criterion_01_group_algebra_oracle():
    """Symbolic composition agrees with matrix products on 10^4 pairs/config."""
    configs = (SymmetryConfig(4, 0, (1,)),
               SymmetryConfig(8, 0, (0, 0, 1)),
               SymmetryConfig(8, 2, (1, 0, 0)))
    start = time.perf_counter()
    worst = 0.0
    for cfg in configs:
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            g = random_element(cfg, rng)
            h = random_element(cfg, rng)
            left = to_matrix(compose(g, h))
            right = to_matrix(g) @ to_matrix(h)
            worst = max(worst, float(np.max(np.abs(left - right))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 30.0
    announce(1, "group algebra oracle",
             f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_generator_orders_and_commutation():
    """Cycle orders 2(j+1), pinwheel orders 2^(alpha+2), twisted commutation."""
    def matrix_order(m, cap):
        acc = np.eye(len(m))
        for k in range(1, cap + 1):
            acc = acc @ m
            if np.allclose(acc, np.eye(len(m)), atol=1e-12):
                return k
        return None

    for j in range(6):
        width = j + 1
        assert matrix_order(conj_cycle_matrix(width), 4 * width) == 2 * width
    for alpha in range(5):
        expected = 2 ** (alpha + 2)
        assert matrix_order(pinwheel_matrix(alpha, 1), 2 * expected) == expected

    rng = np.random.default_rng(102)
    worst = 0.0
    for j in range(6):
        width = j + 1
        cyc = conj_cycle_matrix(width)
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=100):
            lhs = sync_rotation_matrix(width, theta) @ cyc
            rhs = cyc @ sync_rotation_matrix(width, 2.0 * math.pi - theta)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12
    announce(2, "generator orders and commutation",
             f"commutation residual {worst:.2e}")


def test_criterion_03_stabilizer_in_kernel_everywhere():
    """Witness stabilizers sit inside the sign kernel for every enumerated config."""
    checked = 0
    for n in (4, 6, 8):
        for cfg in enumerate_configs(n, alpha_max=3):
            report = stabilizer_in_kernel_check(cfg)
            assert report.passed, f"stabilizer check failed for {cfg}"
            checked += 1
    assert checked > 0
    announce(3, "stabilizer in kernel", f"{checked} configurations")


def test_criterion_04_code_calculus_exhaustive():
    """Coprime leading words generate the basis; non-coprime ones never do."""
    start = time.perf_counter()
    coprime = non_coprime = 0
    for t in range(2, 13):
        for s in range(2, t + 1):
            for r in range(1, s):
                code = closure(t, [v_word(t, r), v_word(t, s)])
                if math.gcd(r, s) == 1:
                    assert contains_standard_basis(code), f"t={t} r={r} s={s}"
                    coprime += 1
                else:
                    assert basis_word(t, 1) not in code, f"t={t} r={r} s={s}"
                    non_coprime += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(4, "code calculus",
             f"{coprime} coprime + {non_coprime} non-coprime pairs, {elapsed:.1f}s")


def test_criterion_05_shared_symmetry_counterexample():
    """One quartic phase function is equivariant for two incomparable configs."""
    def quad_phase(points):
        z1 = points[:, 0] + 1j * points[:, 1]
        z2 = points[:, 2] + 1j * points[:, 3]
        z3 = points[:, 4] + 1j * points[:, 5]
        z4 = points[:, 6] + 1j * points[:, 7]
        return np.imag(z1 * np.conj(z2) * z3 * np.conj(z4))

    cfg_a = SymmetryConfig(8, 0, (2, 0, 0))
    cfg_b = SymmetryConfig(8, 0, (0, 0, 1))
    rng = np.random.default_rng(105)
    pts = rng.standard_normal((1000, 8))
    base = quad_phase(pts)
    worst = 0.0
    for cfg in (cfg_a, cfg_b):
        for _ in range(64):
            g = random_element(cfg, rng)
            residual = np.abs(quad_phase(pts @ to_matrix(g).T) - phi(g) * base)
            worst = max(worst, float(np.max(residual)))
    assert worst <= 1e-10

    verdict = distinct_guaranteed(cfg_a, cfg_b)
    assert not verdict.guaranteed
    announce(5, "shared-symmetry counterexample",
             f"residual {worst:.2e}; verdict not_guaranteed: {verdict.reason}")


def test_criterion_06_enumeration_ground_truth():
    """Pinned small counts plus DP-vs-brute-force agreement for all n <= 20."""
    assert len(enumerate_configs(4)) == 1
    assert len(enumerate_configs(8)) == 4

    def brute_count(n, alpha_max):
        k = n // 2 - 1
        total = 0
        for alpha in range(alpha_max + 1):
            chi = 1 if alpha > 0 else 0
            ranges = [range((n // 2) // (j + 1) + 1) for j in range(1, k + 1)]
            for m in itertools.product(*ranges):
                s = 2 * chi + sum(mj * (j + 1) for j, mj in enumerate(m, start=1))
                if 0 < 2 * s <= n:
                    total += 1
        return total

    pairs = 0
    for n in range(4, 21):
        for alpha_max in (0, 3):
            assert count_configs(n, alpha_max=alpha_max) == brute_count(n, alpha_max)
            pairs += 1
    announce(6, "enumeration ground truth", f"{pairs} (n, alpha_max) pairs")


def test_criterion_07_energy_gradient_consistency():
    """Assembled pairings match central finite differences to 1e-6 relative."""
    grid = BallGrid(4, 9, 1.0)
    eps = 1e-5
    worst = 0.0
    for p in (2.0, 3.0):
        energy = DiscreteEnergy(grid, ProblemParams(4, p, 0.0, 0.0))
        rng = np.random.default_rng(107)
        for _ in range(20):
            u = smooth_bumps(grid, rng)
            h = smooth_bumps(grid, rng)
            exact = float(np.sum(energy_gradient(energy, u) * h))
            fd = (energy_value(energy, u + eps * h)
                  - energy_value(energy, u - eps * h)) / (2 * eps)
            worst = max(worst, abs(fd - exact) / abs(exact))
    assert worst <= 1e-6
    announce(7, "energy/gradient consistency", f"worst relative error {worst:.2e}")


def test_criterion_08_dilation_invariance():
    """J is invariant along the critical rescaling family on smooth bumps."""
    grid = BallGrid(4, 41, 1.0)
    gap = dilation_invariance_gap(ProblemParams(4, 2.0, 0.0, 0.0), grid,
                                  lams=(0.5, 2.0))
    assert gap <= 1e-3
    announce(8, "dilation invariance", f"relative deviation {gap:.2e}")


def test_criterion_09_solver_refinement_study():
    """Monotone equivariant descent that converges on all three grids, with
    a grid-stable level estimate between neighbouring grids."""
    start = time.perf_counter()
    cfg = SymmetryConfig(4, 0, (1,))
    params = ProblemParams(4, 2.0, 0.0, 0.0)
    options = SolveOptions(max_iters=600, tol=1e-5, subcritical_shift=0.5)
    reports = {}
    for points in (17, 25, 41):
        report = solve(cfg, BallGrid(4, points, 1.0), params=params, options=options)
        assert report.monotone, f"non-monotone history at {points}^4"
        assert report.converged, f"no convergence at {points}^4: {report.stop_reason}"
        assert report.stop_reason == "first variation tolerance"
        assert report.equivariance <= 1e-12
        cert = report.certificate
        assert cert.min_value < 0.0 < cert.max_value
        reports[points] = report
    levels = [reports[points].level_estimate for points in (17, 25, 41)]
    gaps = [abs(coarse - fine) / abs(fine) for coarse, fine in zip(levels, levels[1:])]
    elapsed = time.perf_counter() - start
    assert max(gaps) <= 0.05
    assert elapsed < 600.0
    announce(9, "solver refinement study",
             f"levels {' vs '.join(f'{level:.1f}' for level in levels)}, "
             f"gaps {', '.join(f'{100 * gap:.2f}%' for gap in gaps)}, {elapsed:.0f}s")


def test_criterion_10_symmetrization_contract():
    """Averaging contracts norms, is idempotent, and preserves pairings."""
    cfg = SymmetryConfig(4, 0, (1,))
    grid = BallGrid(4, 9, 1.0)
    energy = DiscreteEnergy(grid, params_for_config(cfg))
    rng = np.random.default_rng(110)

    worst_idem = 0.0
    for _ in range(100):
        h = rng.standard_normal(grid.shape) * grid.mask
        s = symmetrize(h, cfg, grid)
        assert np.linalg.norm(s) <= np.linalg.norm(h) * (1 + 1e-12)
        assert energy.kinetic(s) <= energy.kinetic(h) * (1 + 1e-12)
        again = symmetrize(s, cfg, grid)
        worst_idem = max(worst_idem,
                         float(np.max(np.abs(again - s))) / max(1.0, float(np.max(np.abs(s)))))
    assert worst_idem <= 1e-10

    u = symmetrize(smooth_bumps(grid, rng), cfg, grid)
    grad = energy_gradient(energy, u)
    worst_pair = 0.0
    for _ in range(20):
        h = rng.standard_normal(grid.shape) * grid.mask
        lhs = float(np.sum(grad * symmetrize(h, cfg, grid)))
        rhs = float(np.sum(grad * h))
        worst_pair = max(worst_pair, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    assert worst_pair <= 1e-8
    announce(10, "symmetrization contract",
             f"idempotence {worst_idem:.2e}, pairing error {worst_pair:.2e}")
