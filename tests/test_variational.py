"""Tests for the discrete energy, projections, diagnostics, and the solver."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import cknsym.variational as variational
from cknsym.grid import BallGrid, backward_diffs, field_from_function, forward_diffs
from cknsym.kvdoc import DocumentError
from cknsym.lattice import lattice_subgroup
from cknsym.symmetry import SymmetryConfig
from cknsym.variational import (
    DiscreteEnergy,
    GaussianProfile,
    ProblemParams,
    SolveOptions,
    SolveReport,
    UnsupportedConfigError,
    VariationalError,
    _catmull_rom_matrix,
    _class_profile,
    _class_values,
    _save_checkpoint,
    analytic_energy,
    class_coefficients,
    class_field,
    class_shape,
    dilation_invariance_gap,
    equivariance_residual,
    interpolated_equivariance_bias,
    load_checkpoint,
    params_for_config,
    reduced_level_estimate,
    report_summary_from_doc,
    report_to_doc,
    seed_field,
    sign_certificate,
    solve,
    solve_peak_bytes,
    symmetrize,
)

CFG4 = SymmetryConfig(4, 0, (1,))
GRID4 = BallGrid(4, 9, 1.0)
PARAMS4 = ProblemParams(4, 2.0, 0.0, 0.0)


def random_bumps(grid, rng, count=3):
    """Smooth random field: a few Gaussian bumps, masked, peak-normalized."""
    pts = grid.points()
    u = np.zeros(len(pts))
    for _ in range(count):
        c = rng.uniform(-0.4, 0.4, size=grid.n)
        w = rng.uniform(0.15, 0.3)
        u += rng.uniform(-1.0, 1.0) * np.exp(-np.sum((pts - c) ** 2, axis=1) / (2 * w * w))
    u = u.reshape(grid.shape) * grid.mask_f
    return u / np.max(np.abs(u))


def node_pairing(grad, h):
    return float(np.sum(grad * h))


# --------------------------------------------------------------------------
# problem parameters


def test_critical_exponent_reduces_to_sobolev_without_weights():
    assert PARAMS4.q == pytest.approx(4.0)
    assert ProblemParams(6, 2.0, 0.0, 0.0).q == pytest.approx(3.0)


def test_critical_exponent_with_weights():
    params = ProblemParams(4, 2.0, 0.1, 0.5)
    expected = 4 * 2 / (4 - 2 * (1 + 0.1 - 0.5))
    assert params.q == pytest.approx(expected)
    assert params.q > params.p


def test_homogeneity_exponent_is_positive_in_range():
    for params in (PARAMS4, ProblemParams(5, 2.5, 0.3, 0.9), ProblemParams(4, 3.0, 0.0, 0.0)):
        assert params.gamma > 0


@pytest.mark.parametrize("kwargs", [
    {"n": 4, "p": 1.0},               # p must exceed 1
    {"n": 4, "p": 4.0},               # p must stay below n
    {"n": 4, "p": 2.0, "a": 1.0},     # a at the (n-p)/p cap
    {"n": 4, "p": 2.0, "a": -0.1},    # negative a
    {"n": 4, "p": 2.0, "a": 0.2, "b": 0.1},  # b below a
    {"n": 4, "p": 2.0, "a": 0.0, "b": 1.0},  # b at a + 1
    {"n": 4, "p": 2.0, "q": 1.5},     # explicit q at or below p
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(VariationalError):
        ProblemParams(**kwargs)


def test_with_exponent_overrides_q_only():
    shifted = PARAMS4.with_exponent(3.5)
    assert shifted.q == 3.5
    assert (shifted.n, shifted.p, shifted.a, shifted.b) == (4, 2.0, 0.0, 0.0)


def test_params_for_config_respects_regime():
    zero = params_for_config(SymmetryConfig(4, 0, (1,), regime="a_eq_b_zero"))
    assert (zero.a, zero.b) == (0.0, 0.0)
    mixed = params_for_config(CFG4, weight_strength=0.3)
    assert mixed.a == 0.0 and mixed.b == 0.3
    equal = params_for_config(SymmetryConfig(6, 0, (1,), regime="a_eq_b_nonzero"))
    assert equal.a == equal.b > 0.0
    with pytest.raises(VariationalError):
        params_for_config(CFG4, weight_strength=1.5)


# --------------------------------------------------------------------------
# energy values and exact gradients


def test_zero_field_has_zero_energy():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    zero = np.zeros(GRID4.shape)
    assert energy.value(zero) == 0.0
    assert energy.kinetic(zero) == 0.0
    assert energy.potential(zero) == 0.0


def test_energy_rejects_dimension_mismatch():
    with pytest.raises(VariationalError):
        DiscreteEnergy(GRID4, ProblemParams(5, 2.0, 0.0, 0.0))


def test_value_splits_into_kinetic_and_potential():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(1))
    k, b = energy.kinetic(u), energy.potential(u)
    assert k > 0 and b > 0
    assert energy.value(u) == pytest.approx(k / 2 - b / 4, rel=1e-14)


def test_quotient_is_scale_invariant():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(2))
    assert energy.quotient(3.7 * u) == pytest.approx(energy.quotient(u), rel=1e-12)
    with pytest.raises(VariationalError):
        energy.quotient(np.zeros(GRID4.shape))


def test_gradient_supported_on_interior():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(3))
    grad = energy.gradient(u)
    assert np.all(grad[~GRID4.mask] == 0.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_finite_difference_gradient_consistency(p):
    """The assembled gradient matches central differences of the value."""
    params = ProblemParams(4, p, 0.0, 0.0)
    energy = DiscreteEnergy(GRID4, params)
    rng = np.random.default_rng(4)
    eps = 1e-5
    for _ in range(3):
        u = random_bumps(GRID4, rng)
        h = random_bumps(GRID4, rng)
        exact = node_pairing(energy.gradient(u), h)
        fd = (energy.value(u + eps * h) - energy.value(u - eps * h)) / (2 * eps)
        assert fd == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_quotient_gradient_consistency(p):
    params = ProblemParams(4, p, 0.0, 0.0)
    energy = DiscreteEnergy(GRID4, params)
    rng = np.random.default_rng(5)
    eps = 1e-6
    u = random_bumps(GRID4, rng)
    h = random_bumps(GRID4, rng)
    exact = node_pairing(energy.quotient_and_gradient(u)[1], h)
    fd = (energy.quotient(u + eps * h) - energy.quotient(u - eps * h)) / (2 * eps)
    assert fd == pytest.approx(exact, rel=1e-5)


def forward_diffs_adjoint(grid, stack):
    """Exact adjoint of forward_diffs under the plain node inner product."""
    out = np.zeros(grid.shape)
    for i in range(grid.n):
        out += (np.roll(stack[i], 1, axis=i) - stack[i]) / grid.h
    return out


def backward_diffs_adjoint(grid, stack):
    out = np.zeros(grid.shape)
    for i in range(grid.n):
        out += (stack[i] - np.roll(stack[i], -1, axis=i)) / grid.h
    return out


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_difference_adjoints_are_exact(seed):
    """<D u, s> must equal <u, D* s> for the plain node inner product."""
    rng = np.random.default_rng(seed)
    grid = BallGrid(2, 11)
    u = rng.standard_normal(grid.shape)
    s = rng.standard_normal((2,) + grid.shape)
    lhs_f = float(np.sum(forward_diffs(grid, u) * s))
    rhs_f = float(np.sum(u * forward_diffs_adjoint(grid, s)))
    assert lhs_f == pytest.approx(rhs_f, rel=1e-12, abs=1e-12)
    lhs_b = float(np.sum(backward_diffs(grid, u) * s))
    rhs_b = float(np.sum(u * backward_diffs_adjoint(grid, s)))
    assert lhs_b == pytest.approx(rhs_b, rel=1e-12, abs=1e-12)


def _oracle_energy_parts(energy, u):
    """K, B and both node gradients by the separate stack builds of the
    original kinetic/gradient_parts implementation; the one-pass kernel must
    reproduce them bit for bit."""
    g = energy.grid
    q = energy.params.q
    w_pot = g.weight_values(energy.params.potential_weight_exponent) * g.mask_f
    u = u * g.mask_f
    fw = forward_diffs(g, u)
    bw = backward_diffs(g, u)
    dens = energy._psi(np.sum(fw * fw, axis=0)) + energy._psi(np.sum(bw * bw, axis=0))
    kin_value = float(0.5 * g.cell_volume * np.sum(energy._w_grad * dens))
    fw = forward_diffs(g, u)
    bw = backward_diffs(g, u)
    sf = energy._sigma(np.sum(fw * fw, axis=0)) * energy._w_grad
    sb = energy._sigma(np.sum(bw * bw, axis=0)) * energy._w_grad
    kin = forward_diffs_adjoint(g, sf[None] * fw) + backward_diffs_adjoint(g, sb[None] * bw)
    kin *= 0.5 * energy.params.p * g.cell_volume
    # |u|^(q-2) u as the solver reads it, 0 at u = 0; bit-identical to the
    # plain power for q >= 2 (test_potential_gradient_reads_zero_at_zero_nodes)
    pot = q * g.cell_volume * w_pot * np.power(
        np.abs(u), q - 2.0, out=np.ones(g.shape), where=u != 0.0) * u
    pot_value = float(g.cell_volume * np.sum(w_pot * np.abs(u) ** q))
    return kin_value, pot_value, kin * g.mask_f, pot * g.mask_f


def _oracle_nehari_scale(energy, u):
    """The Nehari scale by the full-cube roll stacks and the original Newton
    polish; the interior polish must reproduce it bit for bit."""
    g = energy.grid
    p, q = energy.params.p, energy.params.q
    u = u * g.mask_f
    fw = forward_diffs(g, u)
    bw = backward_diffs(g, u)
    sf, sb = np.sum(fw * fw, axis=0), np.sum(bw * bw, axis=0)
    w_pot = g.weight_values(energy.params.potential_weight_exponent) * g.mask_f
    k = float(0.5 * g.cell_volume * np.sum(energy._w_grad * (energy._psi(sf) + energy._psi(sb))))
    b = float(g.cell_volume * np.sum(w_pot * np.abs(u) ** q))
    t = (k / b) ** (1.0 / (q - p))
    if energy.eps == 0.0:
        return float(t)
    e2 = energy.eps ** 2

    def slope(tv):
        kf = (tv * tv * sf + e2) ** ((p - 2.0) / 2.0) * sf
        kb = (tv * tv * sb + e2) ** ((p - 2.0) / 2.0) * sb
        kin = 0.5 * g.cell_volume * float(np.sum(energy._w_grad * (kf + kb)))
        return tv * kin - tv ** (q - 1.0) * b

    for _ in range(30):
        g0 = slope(t)
        if abs(g0) <= 1e-12 * max(k, b):
            break
        dt = t * 1e-7
        deriv = (slope(t + dt) - g0) / dt
        if deriv == 0.0:
            break
        t_new = t - g0 / deriv
        t = t / 2.0 if t_new <= 0.0 else t_new
    return float(t)


def _assert_pass_matches_the_oracles(energy, u):
    k, b, gk, gb = energy.evaluate(u)
    k0, b0, gk0, gb0 = _oracle_energy_parts(energy, u)
    assert (k, b) == (k0, b0)
    assert np.array_equal(gk, gk0) and np.array_equal(gb, gb0)
    assert (energy.kinetic(u), energy.potential(u)) == (k0, b0)
    r = energy.params.p / energy.params.q
    quot, gq = energy.quotient_and_gradient(u)
    assert quot == energy.quotient(u) == k0 / b0 ** r
    assert np.array_equal(gq, (gk0 - r * (k0 / b0) * gb0) / b0 ** r)
    assert energy.nehari_scale(u) == _oracle_nehari_scale(energy, u)


@pytest.mark.parametrize("grid, params", [
    (GRID4, PARAMS4),
    (GRID4, ProblemParams(4, 3.0, 0.1, 0.3)),
    (GRID4, ProblemParams(4, 1.5, 0.0, 0.0, 1.9)),
    (BallGrid(2, 11, 1.0), ProblemParams(2, 1.5, 0.0, 0.0, 1.9)),
    (BallGrid(3, 9, 1.0), ProblemParams(3, 2.0, 0.1, 0.2)),
    (BallGrid(5, 7, 1.0), ProblemParams(5, 3.0, 0.0, 0.0)),
    (BallGrid(6, 7, 2.0), ProblemParams(6, 2.0, 0.0, 0.3))],
    ids=["9^4-p2", "9^4-p3", "9^4-p1.5", "11^2-p1.5", "9^3", "7^5-p3", "7^6"])
def test_energy_pass_matches_the_separate_builds_bit_for_bit(grid, params):
    energy = DiscreteEnergy(grid, params)
    rng = np.random.default_rng(6)
    for _ in range(3):
        u = random_bumps(grid, rng)
        u[~grid.mask] = rng.uniform(-1.0, 1.0)  # off-ball gauge must not leak in
        _assert_pass_matches_the_oracles(energy, u)
        u[rng.random(grid.shape) < 0.3] = 0.0  # zero nodes, where |u|^(q-2) u reads 0
        _assert_pass_matches_the_oracles(energy, u)


def test_energy_pass_reads_the_tables_of_its_own_grid():
    """Grids of different sizes evaluated in turn each match their own oracle.

    In the second loop each energy is built right after the previous one is
    freed, so CPython hands the new energy and its grid the two freed
    addresses: tables cached anywhere but on the grid, keyed by id(), would
    be served to the wrong grid.
    """
    rng = np.random.default_rng(12)
    small = DiscreteEnergy(BallGrid(4, 9, 1.0), PARAMS4)
    large = DiscreteEnergy(BallGrid(4, 11, 1.0), PARAMS4)
    for energy in (small, large, small, large):
        _assert_pass_matches_the_oracles(energy, random_bumps(energy.grid, rng))
    del small, large, energy
    params = ProblemParams(4, 3.0, 0.0, 0.0)
    for points in (9, 11, 13, 9, 11):
        energy = DiscreteEnergy(BallGrid(4, points, 1.0), params)
        _assert_pass_matches_the_oracles(energy, random_bumps(energy.grid, rng))
        del energy


# --------------------------------------------------------------------------
# Nehari projection


@pytest.mark.parametrize("p, tol", [(2.0, 1e-12), (3.0, 1e-9)])
def test_nehari_projection_balances_the_two_terms(p, tol):
    params = ProblemParams(4, p, 0.0, 0.0)
    energy = DiscreteEnergy(GRID4, params)
    u = random_bumps(GRID4, np.random.default_rng(6))
    w = energy.nehari_project(u)
    k, b = energy.kinetic(w), energy.potential(w)
    assert abs(k - b) / max(k, b) <= tol


def test_nehari_identity_on_the_manifold():
    """On the manifold, J equals (1/p - 1/q) times the kinetic term."""
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(7))
    w = energy.nehari_project(u)
    level = (1.0 / PARAMS4.p - 1.0 / PARAMS4.q) * energy.kinetic(w)
    assert energy.value(w) == pytest.approx(level, rel=1e-10)


def test_nehari_scale_is_one_on_the_manifold():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(8))
    w = energy.nehari_project(u)
    assert energy.nehari_scale(w) == pytest.approx(1.0, rel=1e-12)


def test_nehari_projection_ignores_input_scale():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(9))
    w1 = energy.nehari_project(u)
    w2 = energy.nehari_project(2.0 * u)
    assert np.allclose(w1, w2, rtol=1e-12, atol=1e-14)


def test_nehari_projection_needs_nonzero_field():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    with pytest.raises(VariationalError):
        energy.nehari_project(np.zeros(GRID4.shape))


def test_level_from_quotient_matches_projected_value():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(10))
    level = energy.level_from_quotient(energy.quotient(u))
    assert level == pytest.approx(energy.value(energy.nehari_project(u)), rel=1e-12)


def test_negative_energy_forces_large_mass_ratio():
    """B/K >= q/p whenever J <= 0 (up to the p, q normalizations)."""
    energy = DiscreteEnergy(GRID4, PARAMS4)
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(10):
        u = random_bumps(GRID4, rng)
        t = 2.0 * energy.nehari_scale(u)  # past the manifold, J(tu) < 0
        v = t * u
        k, b = energy.kinetic(v), energy.potential(v)
        if energy.value(v) <= 0.0:
            assert b / k >= energy.params.q / energy.params.p - 1e-12
            checked += 1
    assert checked == 10


# --------------------------------------------------------------------------
# symmetrization


def test_symmetrize_is_idempotent():
    rng = np.random.default_rng(12)
    u = rng.standard_normal(GRID4.shape) * GRID4.mask_f
    s1 = symmetrize(u, CFG4, GRID4)
    s2 = symmetrize(s1, CFG4, GRID4)
    assert np.max(np.abs(s2 - s1)) <= 1e-10 * np.max(np.abs(s1))


def test_symmetrize_output_is_equivariant():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(GRID4.shape) * GRID4.mask_f
    s = symmetrize(u, CFG4, GRID4)
    assert equivariance_residual(s, CFG4) <= 1e-10


def test_symmetrize_contracts_node_and_gradient_norms():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    rng = np.random.default_rng(14)
    for _ in range(5):
        u = rng.standard_normal(GRID4.shape) * GRID4.mask_f
        s = symmetrize(u, CFG4, GRID4)
        assert np.linalg.norm(s) <= np.linalg.norm(u) * (1 + 1e-12)
        assert energy.kinetic(s) <= energy.kinetic(u) * (1 + 1e-12)


def test_equivariant_pairing_identity():
    """<J'(u), Sh> = <J'(u), h> when u is invariant under the sampled group."""
    energy = DiscreteEnergy(GRID4, PARAMS4)
    rng = np.random.default_rng(15)
    u = symmetrize(random_bumps(GRID4, rng), CFG4, GRID4)
    grad = energy.gradient(u)
    for _ in range(5):
        h = rng.standard_normal(GRID4.shape) * GRID4.mask_f
        lhs = node_pairing(grad, symmetrize(h, CFG4, GRID4))
        rhs = node_pairing(grad, h)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


# --------------------------------------------------------------------------
# class coordinates


def _dense_plane_projector(points_per_axis, radius):
    """The dense least-squares projector B (B^T B)^+ B^T onto circle-invariant
    2-plane slices, as the solver built it before it kept only an orthonormal
    factor; the oracle of the class map."""
    npts = points_per_axis
    h = 2.0 * radius / (npts - 1)
    axis = -radius + h * np.arange(npts)
    n_rad = int(math.ceil(math.sqrt(2.0) * radius / h)) + 4
    ra = np.hypot(axis[:, None], axis[None, :]).ravel() / h
    basis = _catmull_rom_matrix(ra, n_rad, radial=True)
    q = basis @ np.linalg.pinv(basis.T @ basis, rcond=1e-12) @ basis.T
    return 0.5 * (q + q.T)


def _oracle_class_projection(values, cfg, grid):
    """Circle averages in the planes (0, 1) and (2, 3), then symmetrize."""
    q = _dense_plane_projector(grid.points_per_axis, grid.radius)
    npts, last = grid.points_per_axis, (grid.n - 2, grid.n - 1)
    out = values
    for plane in ((0, 1), (2, 3)):
        moved = np.moveaxis(out, plane, last)
        mixed = moved.reshape(-1, npts * npts) @ q.T
        out = np.moveaxis(mixed.reshape(moved.shape), last, plane)
    return symmetrize(out, cfg, grid)


# every configuration here has its one width-4 block on coordinates 0-3
CLASS_CASES = [(CFG4, GRID4), (CFG4, BallGrid(4, 13, 1.0)),
               (SymmetryConfig(5, 0, (1,)), BallGrid(5, 7, 1.0)),
               (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0))]
CLASS_CASE_IDS = ["9^4", "13^4", "7^5", "5^6"]


@pytest.mark.parametrize("cfg, grid", CLASS_CASES, ids=CLASS_CASE_IDS)
def test_class_map_matches_the_dense_projector(cfg, grid):
    rng = np.random.default_rng(16)
    for _ in range(2):
        u = rng.standard_normal(grid.shape)
        c = class_coefficients(u, cfg, grid)
        assert c.shape == class_shape(cfg, grid)
        expect = _oracle_class_projection(u, cfg, grid)
        got = class_field(c, cfg, grid)
        # operator-relative: the oracle's own idempotence defect reaches
        # 2.3e-13 at 13 points per axis, 1.3e-12 of a projected field's sup
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(u)


@pytest.mark.parametrize("cfg, grid", CLASS_CASES, ids=CLASS_CASE_IDS)
def test_class_map_is_an_orthogonal_projection_into_the_class(cfg, grid):
    rng = np.random.default_rng(17)
    u = rng.standard_normal(grid.shape)
    c = class_coefficients(u, cfg, grid)
    once = class_field(c, cfg, grid)
    twice = class_field(class_coefficients(once, cfg, grid), cfg, grid)
    assert np.max(np.abs(twice - once)) <= 1e-12 * np.max(np.abs(once))
    assert equivariance_residual(once, cfg) <= 1e-12
    # the synthesis is orthonormal and the projection contracts
    assert np.linalg.norm(once) == pytest.approx(np.linalg.norm(c), rel=1e-12)
    assert np.linalg.norm(once) <= np.linalg.norm(u) * (1 + 1e-12)


def test_class_map_kills_odd_plane_modes():
    """A field odd in one rotation plane has zero circle average."""
    pts = GRID4.points()
    u = (pts[:, 0] * np.exp(-np.sum(pts ** 2, axis=1))).reshape(GRID4.shape)
    assert np.max(np.abs(class_coefficients(u, CFG4, GRID4))) <= 1e-12


def test_class_shape_counts_one_profile_axis_per_plane():
    assert class_shape(CFG4, BallGrid(4, 17, 1.0)) == (14, 14)
    assert class_shape(CFG4, BallGrid(4, 25, 1.0)) == (19, 19)
    assert class_shape(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 9, 1.0)) == (8, 8, 9, 9)


# --------------------------------------------------------------------------
# diagnostics: equivariance, sign certificates, seeds


def test_equivariance_residual_of_zero_field_is_zero():
    assert equivariance_residual(np.zeros(GRID4.shape), CFG4) == 0.0


def test_equivariance_residual_detects_broken_symmetry():
    u = seed_field(CFG4, GRID4)
    assert equivariance_residual(u, CFG4) <= 1e-12
    broken = u.copy()
    broken[1, 2, 3, 4] += 0.5
    assert equivariance_residual(broken, CFG4) > 1e-3


def test_seed_field_is_normalized_masked_and_sign_changing():
    u = seed_field(CFG4, GRID4)
    assert np.max(np.abs(u)) == pytest.approx(1.0)
    assert np.all(u[~GRID4.mask] == 0.0)
    assert u.min() < 0.0 < u.max()


def test_sign_certificate_on_equivariant_field():
    u = seed_field(CFG4, GRID4)
    cert = sign_certificate(u, CFG4)
    assert cert.element_sign == -1
    assert cert.certifies_sign_change
    assert cert.min_value < 0.0 < cert.max_value
    assert cert.antisymmetry_residual <= 1e-12
    assert cert.mapped_value == pytest.approx(-cert.value, rel=1e-12)


def test_sign_certificate_needs_a_sign_reversing_element():
    pin_only = SymmetryConfig(4, 1, ())
    grid = GRID4
    values = np.exp(-np.sum(grid.points() ** 2, axis=1)).reshape(grid.shape)
    with pytest.raises(UnsupportedConfigError):
        sign_certificate(values, pin_only)


# --------------------------------------------------------------------------
# closed-form energies and the dilation family


def test_analytic_energy_matches_closed_form_gaussian():
    """n=4, p=2, no weights: both integrals of a Gaussian are elementary."""
    grid = BallGrid(4, 41, 1.0)
    w = 0.12
    kin = 2.0 * math.pi ** 2 * w ** 2          # integral of |grad u|^2
    pot = (math.pi * w * w / 2.0) ** 2         # integral of u^4
    expected = kin / 2.0 - pot / 4.0
    value = analytic_energy(grid, PARAMS4, GaussianProfile(w))
    assert value == pytest.approx(expected, rel=1e-3)


def test_gaussian_profile_gradients_match_finite_differences():
    profile = GaussianProfile(0.3, lam=1.7, gamma=1.2)
    rng = np.random.default_rng(19)
    pts = rng.uniform(-0.5, 0.5, size=(20, 4))
    grads = profile.gradients(pts)
    eps = 1e-6
    for axis in range(4):
        shift = np.zeros(4)
        shift[axis] = eps
        fd = (profile.values(pts + shift) - profile.values(pts - shift)) / (2 * eps)
        assert np.allclose(fd, grads[:, axis], rtol=1e-5, atol=1e-8)


def test_dilation_invariance_gap_is_small_without_weights():
    grid = BallGrid(4, 41, 1.0)
    assert dilation_invariance_gap(PARAMS4, grid) <= 1e-3


# --------------------------------------------------------------------------
# reduced re-quadrature level estimate


def test_reduced_level_estimate_is_scale_invariant():
    c = class_coefficients(seed_field(CFG4, GRID4), CFG4, GRID4)
    e1 = reduced_level_estimate(c, CFG4, GRID4, PARAMS4)
    e2 = reduced_level_estimate(2.0 * c, CFG4, GRID4, PARAMS4)
    assert e1 > 0
    assert e2 == pytest.approx(e1, rel=1e-9)


def test_reduced_level_estimate_rejects_zero_profile():
    with pytest.raises(VariationalError):
        reduced_level_estimate(np.zeros(class_shape(CFG4, GRID4)), CFG4, GRID4, PARAMS4)


def test_catmull_rom_matrix_reproduces_quadratics():
    """Keys' cubic convolution reproduces quadratics where its stencil fits,
    is the identity at nodes, reflects a radial table through zero and reads
    zero past the ends of any other table."""
    k = np.arange(12.0)
    t = np.linspace(0.0, 8.9, 37)
    radial = _catmull_rom_matrix(t, 12, radial=True)
    assert np.allclose(radial @ (1.0 + 2.0 * k * k), 1.0 + 2.0 * t * t, rtol=0, atol=1e-12)
    inner = t[t >= 1.0]
    line = _catmull_rom_matrix(inner, 12, radial=False)
    assert np.allclose(line @ (3.0 - k + 0.5 * k * k), 3.0 - inner + 0.5 * inner ** 2,
                       rtol=0, atol=1e-12)
    assert np.array_equal(_catmull_rom_matrix(k, 12, radial=False), np.eye(12))
    assert not _catmull_rom_matrix(np.array([-2.0, 13.5]), 12, radial=False).any()


@pytest.mark.parametrize("cfg, grid", CLASS_CASES, ids=CLASS_CASE_IDS)
def test_class_profile_is_the_class_field_at_nodes(cfg, grid):
    """At grid nodes the read-off profile and the pointwise read-off are E c,
    and so is the cubic B-spline resampling of E c that the estimate and the
    bias used before; between nodes the two interpolants differ by design,
    and the pointwise read-off is the profile on its mesh."""
    rng = np.random.default_rng(18)
    c = rng.standard_normal(class_shape(cfg, grid))
    u = class_field(c, cfg, grid)
    npts, mid = grid.points_per_axis, grid.points_per_axis // 2
    planes = grid.n - c.ndim
    rho = grid.h * np.arange(mid + 1)
    line = -grid.radius + grid.h * np.arange(npts)
    got = _class_profile(c, grid, rho, line)
    # node indices: each plane's first coordinate at radius k h, its second 0
    at = np.indices(got.shape)
    nodes = [i for k in range(planes) for i in (mid + at[k], np.full(got.shape, mid))]
    nodes += list(at[planes:])
    expect = u[tuple(nodes)]
    oracle = ndimage.map_coordinates(u, np.stack([a.ravel() for a in nodes]).astype(float),
                                     order=3, mode="constant").reshape(got.shape)
    # |B A - Q| reaches 3.5e-12 at 13 points per axis, so not 1e-12
    bound = 1e-11 * np.max(np.abs(u))
    assert np.max(np.abs(got - expect)) <= bound
    assert np.max(np.abs(got - oracle)) <= bound
    assert np.max(np.abs(_class_values(c, grid, grid.points()) - u.ravel())) <= bound
    # even in the signed plane radius, as the estimate's derivative assumes
    off = rho + 0.3 * grid.h
    between = _class_profile(c, grid, off, line)
    mirror = _class_profile(c, grid, -off, line) - between
    assert np.max(np.abs(mirror)) <= bound
    # the profile's mesh as scattered points, each plane radius on a rotated ray
    mesh = np.meshgrid(*([off] * planes + [line] * (grid.n - 2 * planes)), indexing="ij")
    pts = np.zeros((between.size, grid.n))
    for k in range(planes):
        pts[:, 2 * k] = 0.6 * mesh[k].ravel()
        pts[:, 2 * k + 1] = -0.8 * mesh[k].ravel()
    for j, m in enumerate(mesh[planes:]):
        pts[:, 2 * planes + j] = m.ravel()
    assert np.max(np.abs(_class_values(c, grid, pts) - between.ravel())) <= bound


def _traced_peak(call):
    """Bytes the heap grows to above its start while call() runs."""
    np.random.default_rng(0)  # imports numpy's random module, once per process
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    call()
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak


def test_reduced_level_estimate_peaks_below_half_a_solve():
    cfg, grid = SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0)
    c = class_coefficients(seed_field(cfg, grid), cfg, grid)
    params = params_for_config(cfg)
    peak = _traced_peak(
        lambda: reduced_level_estimate(c, cfg, grid, params.with_exponent(params.q - 0.5)))
    assert peak <= 0.5 * solve_peak_bytes(grid)


# --------------------------------------------------------------------------
# interpolated equivariance bias


@pytest.mark.parametrize("cfg, grid, low, high", [
    (CFG4, BallGrid(4, 13, 1.0), 0.0, 1e-12),
    (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0), 1e-6, 1.0)], ids=["13^4", "5^6"])
def test_interpolated_bias_is_the_tail_defect(cfg, grid, low, high):
    """A class profile is invariant under rotations inside each plane, so the
    bias is rounding-level without a tail; the active O(2) tail of
    (6, 0, (1, 0)) is only lattice-sampled, so there it is not."""
    c = class_coefficients(seed_field(cfg, grid), cfg, grid)
    bias = interpolated_equivariance_bias(c, cfg, grid)
    assert low < bias <= high
    assert interpolated_equivariance_bias(3.0 * c, cfg, grid) == pytest.approx(bias, rel=1e-9,
                                                                               abs=1e-15)
    assert interpolated_equivariance_bias(np.zeros_like(c), cfg, grid) == 0.0


@pytest.mark.parametrize("cfg, grid", [(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0)),
                                       (CFG4, BallGrid(4, 17, 1.0))], ids=["5^6", "17^4"])
def test_interpolated_bias_peaks_below_half_a_solve(cfg, grid):
    c = class_coefficients(seed_field(cfg, grid), cfg, grid)
    peak = _traced_peak(lambda: interpolated_equivariance_bias(c, cfg, grid))
    assert peak <= 0.5 * solve_peak_bytes(grid)


# --------------------------------------------------------------------------
# the solver


@pytest.fixture(scope="module")
def small_report():
    return solve(CFG4, GRID4, options=SolveOptions(max_iters=40))


def test_solver_history_is_monotone(small_report):
    assert small_report.monotone
    assert len(small_report.energy_history) >= 2


def test_solver_keeps_iterates_equivariant(small_report):
    assert small_report.equivariance <= 1e-8
    assert small_report.symmetrization_gap <= 1e-10


def test_solver_lands_on_the_nehari_manifold(small_report):
    assert small_report.nehari_residual <= 1e-10
    assert small_report.energy == pytest.approx(small_report.level, rel=1e-10)


def test_solver_certifies_a_sign_change(small_report):
    cert = small_report.certificate
    assert cert.certifies_sign_change
    assert cert.min_value < 0.0 < cert.max_value


def test_solver_kinetic_mass_stays_bounded_below(small_report):
    """Nehari-projected iterates keep a definite gradient norm.

    Calibrated for this fixed problem: the observed minimum kinetic term
    over all iterates is near 9.2e5, so a threshold of 1e5 flags any
    regression that lets iterates collapse toward zero while tolerating
    routine numerical jitter.
    """
    p, q = small_report.params.p, small_report.solver_exponent
    slack = 1.0 / p - 1.0 / q
    kinetics = [lvl / slack for lvl in small_report.energy_history]
    assert min(kinetics) > 1e5


def test_solver_uses_the_subcritical_exponent(small_report):
    assert small_report.solver_exponent == pytest.approx(
        small_report.params.q - 0.5)
    assert small_report.grid_points == 9
    assert small_report.field.shape == GRID4.shape


# energy histories of these solves as the grid-coordinate descent computed
# them; descending in class coordinates must retrace them
PINNED_SMALL_HISTORY = (
    359244.3333487098, 195734.02269237186, 175099.98764678976, 160584.08680128114,
    148152.20073761215, 109433.40979571214, 105566.91133741797, 104459.11863815504,
    104223.98016139094, 103634.61968276938, 103579.99583946752, 103553.70758594,
    103542.6235879999, 103534.00607331359, 103531.28100003627, 103530.01279767515,
    103528.93215451724, 103528.53286640039, 103528.27599062311, 103527.96353675851,
    103527.83673469585, 103527.77650552751, 103527.6954201648, 103527.60019674641,
    103527.28932467535, 103527.26960740467, 103527.15601278441, 103527.08706645037,
    103526.95529194652, 103526.78518331613, 103526.78372178688, 103526.77274275944,
    103526.71256271181, 103526.69645071411, 103526.68452609831, 103526.6821420239,
    103526.67473241381, 103526.66741981255, 103526.65913180329, 103526.6536248303,
    103526.65233728365)
PINNED_6D_HISTORY = (
    8.439651597439036e+24, 1.731566745265492e+24, 1.782673573977241e+23, 8.086887400339707e+22)


def test_class_descent_retraces_the_grid_descent(small_report):
    assert small_report.iterations == 40
    assert small_report.energy_history == pytest.approx(PINNED_SMALL_HISTORY, rel=1e-10)
    six = solve(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0),
                options=SolveOptions(max_iters=3))
    assert six.iterations == 3
    assert six.energy_history == pytest.approx(PINNED_6D_HISTORY, rel=1e-10)


@pytest.mark.parametrize("broken", ["certificate", "equivariance"])
def test_solver_refuses_a_candidate_that_breaks_its_promise(monkeypatch, broken):
    if broken == "certificate":
        real = variational.sign_certificate
        monkeypatch.setattr(variational, "sign_certificate",
                            lambda values, cfg: dataclasses.replace(real(values, cfg),
                                                                    min_value=0.0))
    else:
        monkeypatch.setattr(variational, "equivariance_residual", lambda values, cfg: 2e-8)
    with pytest.raises(VariationalError, match="promise"):
        solve(CFG4, GRID4, options=SolveOptions(max_iters=2))


@pytest.mark.parametrize("text", ["n: x\n", "level: abc\n"])
def test_report_summary_from_doc_rejects_malformed_values(text):
    with pytest.raises(DocumentError):
        report_summary_from_doc(text)


def test_report_doc_round_trip(small_report):
    doc = report_to_doc(small_report)
    summary = report_summary_from_doc(doc)
    assert summary["n"] == 4
    assert summary["m"] == (1,)
    assert summary["converged"] == small_report.converged
    assert summary["level"] == pytest.approx(small_report.level, rel=1e-15)
    assert summary["level estimate"] == pytest.approx(
        small_report.level_estimate, rel=1e-15)
    assert summary["sign certified"] is True
    # one line per scalar report field, keyed by the name with spaces, exact
    scalars = [f.name for f in dataclasses.fields(SolveReport)
               if isinstance(getattr(small_report, f.name), (int, float, str))]
    assert scalars[0] == "solver_exponent" and scalars[-1] == "symmetrization_gap"
    assert len(scalars) == 17
    for name in scalars:
        assert summary[name.replace("_", " ")] == getattr(small_report, name), name
    assert len(summary) == 4 + 4 + len(scalars) + 4  # config, exponents, scalars, sign


def test_solver_is_deterministic():
    opts = SolveOptions(max_iters=8)
    r1 = solve(CFG4, GRID4, options=opts)
    r2 = solve(CFG4, GRID4, options=opts)
    assert r1.energy_history == r2.energy_history
    assert np.array_equal(r1.field, r2.field)


@pytest.mark.parametrize("q", [1.9, 2.1, 2.4])
def test_potential_gradient_reads_zero_at_zero_nodes(q):
    # below q = 2 the plain |u|^(q-2) u is inf * 0 = nan at u = 0; from q = 2 on it is unchanged
    params = ProblemParams(4, 1.5, 0.0, 0.0, q)
    u = np.random.default_rng(7).standard_normal(GRID4.shape)
    u[::2] = 0.0
    _, _, _, gb = DiscreteEnergy(GRID4, params).evaluate(u)
    assert np.all(np.isfinite(gb))
    assert np.all(gb[u == 0.0] == 0.0)
    if q >= 2.0:
        um = u * GRID4.mask_f
        w_pot = GRID4.weight_values(params.potential_weight_exponent) * GRID4.mask_f
        plain = q * GRID4.cell_volume * w_pot * np.abs(um) ** (q - 2.0) * um
        assert np.array_equal(gb, plain * GRID4.mask_f)


def test_solver_descends_below_p_two():
    # p = 1.5 gives solver exponent 1.9 < 2, where |u|^(q-2) u must read 0 at u = 0
    report = solve(CFG4, GRID4, params=ProblemParams(4, 1.5, 0.0, 0.0),
                   options=SolveOptions(max_iters=6))
    assert report.solver_exponent == pytest.approx(1.9)
    assert report.iterations >= 1 and report.monotone
    assert math.isfinite(report.relative_residual)


@pytest.mark.parametrize("cfg, grid, match", [
    # the energies of the Nehari rescaled result overflow
    (CFG4, BallGrid(4, 9, 1e-50), "not positive finite floats: kinetic, potential"),
    # the seed's level overflows, and the reduced quadrature underflows to 0
    (SymmetryConfig(5, 0, (1,)), BallGrid(5, 7, 1e-60), "degenerate")], ids=["9^4", "7^5"])
def test_solver_refuses_values_beyond_the_float_range(cfg, grid, match):
    # a RuntimeWarning fails the test (pyproject filterwarnings), as does an OverflowError
    with pytest.raises(VariationalError, match=match):
        solve(cfg, grid, options=SolveOptions(max_iters=4))


def test_solver_rejects_pinwheel_only_configs():
    with pytest.raises(UnsupportedConfigError):
        solve(SymmetryConfig(4, 1, ()), GRID4, options=SolveOptions(max_iters=4))


def test_solver_rejects_inconsistent_dimensions():
    with pytest.raises(VariationalError):
        solve(CFG4, GRID4, params=ProblemParams(5, 2.0, 0.0, 0.0))


def test_solver_rejects_oversized_subcritical_shift():
    with pytest.raises(VariationalError):
        solve(CFG4, GRID4, params=PARAMS4,
              options=SolveOptions(subcritical_shift=2.5))


def test_solver_refuses_a_grid_that_cannot_fit():
    # 201^6 nodes need petabytes; the refusal comes before any allocation
    with pytest.raises(VariationalError, match="physical memory"):
        solve(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 201, 1.0),
              options=SolveOptions(max_iters=1))


@pytest.mark.parametrize("cfg, grid", [(CFG4, BallGrid(4, 13, 1.0)),
                                       (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0))],
                         ids=["13^4", "5^6"])
def test_peak_estimate_matches_the_traced_peak(cfg, grid):
    peak = _traced_peak(lambda: solve(cfg, grid, options=SolveOptions(max_iters=4)))
    assert 0.75 <= peak / solve_peak_bytes(grid) <= 1.0


def test_checkpoint_resume_continues_the_same_run(tmp_path):
    cp = tmp_path / "state.ckpt"
    first = solve(CFG4, GRID4, options=SolveOptions(max_iters=6, checkpoint_path=str(cp)))
    resumed = solve(CFG4, GRID4,
                    options=SolveOptions(max_iters=14, checkpoint_path=str(cp)),
                    resume_from=cp)
    h1, h2 = first.energy_history, resumed.energy_history
    assert len(h2) > len(h1)
    assert h2[:len(h1)] == pytest.approx(h1, rel=1e-12)
    assert all(b < a for a, b in zip(h2, h2[1:]))


def test_checkpoint_must_match_the_problem(tmp_path):
    cp = tmp_path / "state.ckpt"
    solve(CFG4, GRID4, options=SolveOptions(max_iters=4, checkpoint_path=str(cp)))
    with pytest.raises(VariationalError):
        solve(CFG4, BallGrid(4, 11, 1.0),
              options=SolveOptions(max_iters=4), resume_from=cp)
    with pytest.raises(VariationalError):
        solve(CFG4, GRID4,
              options=SolveOptions(max_iters=4, subcritical_shift=0.75),
              resume_from=cp)


def test_resume_rejects_a_vanishing_checkpoint_field(tmp_path):
    cp = tmp_path / "zero.ckpt"
    q_solver = params_for_config(CFG4).q - 0.5
    _save_checkpoint(cp, CFG4, GRID4, q_solver, 3, 0.1,
                     np.zeros(class_shape(CFG4, GRID4)), [1.0])
    with pytest.raises(VariationalError):
        solve(CFG4, GRID4, resume_from=cp)


def test_load_checkpoint_refuses_coefficients_outside_the_class_shape(tmp_path):
    q_solver = params_for_config(CFG4).q - 0.5
    for name, shape in [("grid", GRID4.shape), ("short", (8, 7)), ("flat", (64,))]:
        cp = tmp_path / f"{name}.ckpt"
        _save_checkpoint(cp, CFG4, GRID4, q_solver, 3, 0.1, np.ones(shape), [1.0])
        with pytest.raises(VariationalError, match="class shape"):
            load_checkpoint(cp)


def test_solver_builds_the_lattice_subgroup_once():
    lattice_subgroup.cache_clear()
    solve(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0), options=SolveOptions(max_iters=1))
    assert lattice_subgroup.cache_info().misses == 1


def test_solver_refuses_the_zero_class():
    # one block of odd complex width: the circle averages force f = -f
    cfg = SymmetryConfig(6, 0, (0, 1))
    with pytest.raises(UnsupportedConfigError, match="working class is"):
        solve(cfg, BallGrid(6, 5, 1.0), options=SolveOptions(max_iters=1))


def _corrupt_checkpoints(tmp_path):
    """A garbage file, a header without n, and a truncated payload."""
    good = tmp_path / "good.ckpt"
    q_solver = params_for_config(CFG4).q - 0.5
    _save_checkpoint(good, CFG4, GRID4, q_solver, 3, 0.1,
                     class_coefficients(seed_field(CFG4, GRID4), CFG4, GRID4), [1.0])
    header, payload = good.read_bytes().split(b"\n", 1)
    no_n = json.loads(header)
    del no_n["n"]
    files = {"garbage": b"\xff\xfe\x00garbage" + bytes(range(256)),
             "missing-n": json.dumps(no_n).encode() + b"\n" + payload,
             "truncated": good.read_bytes()[:-5]}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return [tmp_path / name for name in files]


def test_load_checkpoint_refuses_a_grid_that_cannot_fit(tmp_path):
    # a header claiming 40001 points per axis over one coefficient: its
    # class tables alone would not fit in memory
    path = tmp_path / "huge.ckpt"
    _save_checkpoint(path, CFG4, GRID4, params_for_config(CFG4).q - 0.5, 3, 0.1,
                     np.ones(1), [1.0])
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(header), "points_per_axis": 40001}).encode()
                     + b"\n" + payload)

    def load():
        with pytest.raises(VariationalError, match="physical memory"):
            load_checkpoint(path)

    basis = variational._plane_profile_basis
    basis.cache_clear()
    assert _traced_peak(load) < 2 ** 20
    assert basis.cache_info().currsize == 0  # no class table was built


def test_load_checkpoint_rejects_corrupt_files(tmp_path):
    for path in _corrupt_checkpoints(tmp_path):
        with pytest.raises(VariationalError):
            load_checkpoint(path)


def test_checkpoint_writes_leave_no_temporary_file(tmp_path):
    cp = tmp_path / "state.ckpt"
    solve(CFG4, GRID4, options=SolveOptions(max_iters=3, checkpoint_path=str(cp),
                                            checkpoint_every=1))
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
    state = load_checkpoint(cp)
    shape = class_shape(CFG4, GRID4)
    assert state["coefficients"].shape == shape
    assert state["prev_coefficients"].shape == state["prev_direction"].shape == shape
    assert json.loads(cp.read_bytes().split(b"\n", 1)[0])["shape"] == list(shape)


def test_load_checkpoint_rejects_foreign_files(tmp_path):
    bad_format = tmp_path / "bad_format.ckpt"
    bad_format.write_bytes(json.dumps({"format": "something-else"}).encode() + b"\n")
    with pytest.raises(VariationalError):
        load_checkpoint(bad_format)
    bad_version = tmp_path / "bad_version.ckpt"
    bad_version.write_bytes(
        json.dumps({"format": "cknsym-checkpoint", "version": 99}).encode() + b"\n")
    with pytest.raises(VariationalError):
        load_checkpoint(bad_version)
