"""Tests for the discrete energy, projections, diagnostics, and the solver."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import cknsym.lattice as lattice
import cknsym.variational as variational
from cknsym.grid import BallGrid, backward_diffs, forward_diffs
from cknsym.kvdoc import DocumentError
from cknsym.lattice import LatticeElement, SignedPerm, apply_perm_to_grid, lattice_subgroup
from cknsym.orbits import _OrbitPass
from cknsym.symmetry import REGIMES, SymmetryConfig, random_element, stabilizer_witness
from cknsym.variational import (
    DiscreteEnergy,
    ProblemParams,
    SolveOptions,
    SolveReport,
    UnsupportedConfigError,
    VariationalError,
    _catmull_rom_matrix,
    _class_profile,
    _save_checkpoint,
    class_basis,
    class_shape,
    grid_certificates,
    interpolated_equivariance_bias,
    load_checkpoint,
    params_for_config,
    reduced_level_estimate,
    report_to_doc,
    seed_field,
    solve,
    solve_peak_bytes,
)

from helpers import (
    GaussianProfile,
    analytic_energy,
    class_coefficients,
    class_coordinates,
    class_field,
    class_hessian_by_columns,
    class_hessian_per_tail,
    class_space,
    class_values,
    dilation_invariance_gap,
    energy_gradient,
    energy_value,
    field_from_function,
    grid_points,
    plane_profile_by_nodes,
    pointwise_bias,
    quotient_and_gradient,
    report_summary_from_doc,
    symmetrize,
    tensor_average,
    to_cube,
    traced_peak,
    view_certificates,
)

CFG4 = SymmetryConfig(4, 0, (1,))
GRID4 = BallGrid(4, 9, 1.0)
PARAMS4 = ProblemParams(4, 2.0, 0.0, 0.0)


def random_bumps(grid, rng, count=3):
    """Smooth random field: a few Gaussian bumps, masked, peak-normalized."""
    pts = grid_points(grid)
    u = np.zeros(len(pts))
    for _ in range(count):
        c = rng.uniform(-0.4, 0.4, size=grid.n)
        w = rng.uniform(0.15, 0.3)
        u += rng.uniform(-1.0, 1.0) * np.exp(-np.sum((pts - c) ** 2, axis=1) / (2 * w * w))
    u = u.reshape(grid.shape) * grid.mask
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


@pytest.mark.parametrize("name, value", [
    ("p", True), ("p", "2.5"), ("a", "0"), ("b", False), ("q", "3.5"), ("q", True),
    ("p", None), ("a", 1j), ("n", "4"), ("n", None), ("n", 4.5), ("n", True)])
def test_params_refuse_exponents_that_are_not_numbers(name, value):
    """A bool or a string would pass the range checks as the number it
    converts to, and a string would raise a bare TypeError; n is an integer
    >= 2, as 1 < p < n needs."""
    kind = "an integer >= 2" if name == "n" else "a number"
    with pytest.raises(VariationalError, match=f"^{name} must be {kind}, got "):
        ProblemParams(**{"n": 4, "p": 2.0, "a": 0.1, "b": 0.2, name: value})
    params = ProblemParams(4, 2, 0, 0, 5)  # ints within the float range are numbers
    assert (params.p, params.a, params.b, params.q) == (2.0, 0.0, 0.0, 5.0)
    assert all(type(v) is float for v in (params.p, params.a, params.b, params.q))


def test_with_exponent_overrides_q_only():
    shifted = PARAMS4.with_exponent(3.5)
    assert shifted.q == 3.5
    assert (shifted.n, shifted.p, shifted.a, shifted.b) == (4, 2.0, 0.0, 0.0)


def test_params_for_config_respects_regime():
    zero = params_for_config(SymmetryConfig(4, 0, (1,), regime="a_eq_b_zero"))
    assert (zero.a, zero.b) == (0.0, 0.0)
    mixed = params_for_config(CFG4)
    assert mixed.a == 0.0 and mixed.b == 0.3
    equal = params_for_config(SymmetryConfig(6, 0, (1,), regime="a_eq_b_nonzero"))
    assert equal.a == equal.b > 0.0


# --------------------------------------------------------------------------
# energy values and exact gradients


def test_zero_field_has_zero_energy():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    zero = np.zeros(GRID4.shape)
    assert energy_value(energy, zero) == 0.0
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
    assert energy_value(energy, u) == pytest.approx(k / 2 - b / 4, rel=1e-14)


def test_quotient_is_scale_invariant():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(2))
    assert energy.quotient(3.7 * u) == pytest.approx(energy.quotient(u), rel=1e-12)
    with pytest.raises(VariationalError):
        energy.quotient(np.zeros(GRID4.shape))


def test_gradient_supported_on_interior():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(3))
    grad = energy_gradient(energy, u)
    assert np.all(grad[~GRID4.mask] == 0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_finite_difference_gradient_consistency(p):
    """The assembled gradient matches central differences of the value."""
    params = ProblemParams(4, p, 0.0, 0.0)
    energy = DiscreteEnergy(GRID4, params)
    rng = np.random.default_rng(4)
    eps = 1e-5
    for _ in range(3):
        u = random_bumps(GRID4, rng)
        h = random_bumps(GRID4, rng)
        exact = node_pairing(energy_gradient(energy, u), h)
        fd = (energy_value(energy, u + eps * h) - energy_value(energy, u - eps * h)) / (2 * eps)
        assert fd == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_quotient_gradient_consistency(p):
    params = ProblemParams(4, p, 0.0, 0.0)
    energy = DiscreteEnergy(GRID4, params)
    rng = np.random.default_rng(5)
    eps = 1e-6
    u = random_bumps(GRID4, rng)
    h = random_bumps(GRID4, rng)
    exact = node_pairing(quotient_and_gradient(energy, u)[1], h.ravel()[GRID4.interior])
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
    w_grad = to_cube(g, g.weight_values(energy.params.grad_weight_exponent))
    w_pot = to_cube(g, g.weight_values(energy.params.potential_weight_exponent))
    u = u * g.mask
    fw = forward_diffs(g, u)
    bw = backward_diffs(g, u)
    dens = energy._psi(np.sum(fw * fw, axis=0)) + energy._psi(np.sum(bw * bw, axis=0))
    kin_value = float(0.5 * g.cell_volume * np.sum(w_grad * dens))
    fw = forward_diffs(g, u)
    bw = backward_diffs(g, u)
    sf = energy._sigma(np.sum(fw * fw, axis=0)) * w_grad
    sb = energy._sigma(np.sum(bw * bw, axis=0)) * w_grad
    kin = forward_diffs_adjoint(g, sf[None] * fw) + backward_diffs_adjoint(g, sb[None] * bw)
    kin *= 0.5 * energy.params.p * g.cell_volume
    # |u|^(q-2) u as the solver reads it, 0 at u = 0; bit-identical to the
    # plain power for q >= 2 (test_potential_gradient_reads_zero_at_zero_nodes)
    pot = q * g.cell_volume * w_pot * np.power(
        np.abs(u), q - 2.0, out=np.ones(g.shape), where=u != 0.0) * u
    pot_value = float(g.cell_volume * np.sum(w_pot * np.abs(u) ** q))
    return kin_value, pot_value, kin * g.mask, pot * g.mask


def _assert_pass_matches_the_oracles(energy, u):
    """The pass's interior-vector gradients are the oracle's node gradients
    read at the interior nodes, bit for bit; the oracle's are zero
    elsewhere.  The pass sums K and B over interior vectors, the oracle over
    the cube, so they and the quotient built from them agree within 1e-12
    relative; the roll-stencil ``kinetic`` is the oracle's sum."""
    inside = energy.grid.interior
    k, b, gk, gb = energy.evaluate(u.take(inside))
    k0, b0, gk0, gb0 = _oracle_energy_parts(energy, u)
    assert k == pytest.approx(k0, rel=1e-12) and b == pytest.approx(b0, rel=1e-12)
    assert np.array_equal(gk, gk0.ravel()[inside]) and np.array_equal(gb, gb0.ravel()[inside])
    assert np.array_equal(energy_gradient(energy, u),
                          gk0 / energy.params.p - gb0 / energy.params.q)
    assert energy.kinetic(u) == k0
    assert energy.potential(u) == pytest.approx(b0, rel=1e-12)
    r = energy.params.p / energy.params.q
    quot, gq, scale = quotient_and_gradient(energy, u)
    assert quot == pytest.approx(k0 / b0 ** r, rel=1e-12)
    assert energy.quotient(u) == pytest.approx(k0 / b0 ** r, rel=1e-12)
    assert scale == pytest.approx(b0 ** r, rel=1e-12)
    expect = ((gk0 - r * (k0 / b0) * gb0) / b0 ** r).ravel()[inside]
    assert np.linalg.norm(gq - expect) <= 1e-12 * np.linalg.norm(expect)


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


@pytest.mark.parametrize("grid", [BallGrid(4, 21, 1.0), BallGrid(5, 11, 1.0), BallGrid(6, 9, 1.0)],
                         ids=["21^4", "11^5", "9^6"])
def test_energy_pass_holds_one_difference_stack_at_a_time(grid):
    """The pass peaks within (2n + 5) interior vectors (13 at 21^4, 15 at
    11^5, 17 at 9^6), besides its cached weights: it builds the second
    stack only after the first is spent.  Holding both took (2n + 10).  It
    caches no grid-shaped array."""
    energy = DiscreteEnergy(grid, ProblemParams(grid.n, 3.0, 0.0, 0.0))
    u = random_bumps(grid, np.random.default_rng(7)).take(grid.interior)
    energy.evaluate(u)  # the weights are cached
    assert traced_peak(lambda: energy.evaluate(u)) <= (2 * grid.n + 5.5) * 8 * len(grid.interior)
    assert not [key for key, value in vars(energy).items() if isinstance(value, np.ndarray)
                and value.shape == grid.shape and value.dtype.kind == "f"]


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
# Nehari scaling: K is p-homogeneous and B q-homogeneous, so the scale of a
# ray is the closed form t^(q - p) = K / B


def nehari_scale(energy, u):
    """The t > 0 with d/dt J(t u) = 0, from one energy pass on u."""
    k, b, _, _ = energy.evaluate(u.take(energy.grid.interior))
    return (k / b) ** (1.0 / (energy.params.q - energy.params.p))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_energy_pass_is_exactly_homogeneous(p):
    """K(t u) = t^p K(u) and B(t u) = t^q B(u) to rounding over six decades
    of t, so the closed-form Nehari scale is exact at every p."""
    params = ProblemParams(4, p, 0.1, 0.3)
    energy = DiscreteEnergy(GRID4, params)
    u = random_bumps(GRID4, np.random.default_rng(16)).take(GRID4.interior)
    k, b, _, _ = energy.evaluate(u)
    for t in np.geomspace(1e-3, 1e3, 13):
        kt, bt, _, _ = energy.evaluate(t * u)
        assert abs(kt - t ** p * k) <= 1e-14 * t ** p * k
        assert abs(bt - t ** params.q * b) <= 1e-14 * t ** params.q * b


@pytest.mark.parametrize("p, tol", [(2.0, 1e-12), (3.0, 1e-9)])
def test_nehari_projection_balances_the_two_terms(p, tol):
    params = ProblemParams(4, p, 0.0, 0.0)
    energy = DiscreteEnergy(GRID4, params)
    u = random_bumps(GRID4, np.random.default_rng(6))
    w = nehari_scale(energy, u) * u
    k, b = energy.kinetic(w), energy.potential(w)
    assert abs(k - b) / max(k, b) <= tol


def test_nehari_identity_on_the_manifold():
    """On the manifold, J equals (1/p - 1/q) times the kinetic term."""
    energy = DiscreteEnergy(GRID4, PARAMS4)
    u = random_bumps(GRID4, np.random.default_rng(7))
    w = nehari_scale(energy, u) * u
    level = (1.0 / PARAMS4.p - 1.0 / PARAMS4.q) * energy.kinetic(w)
    assert energy_value(energy, w) == pytest.approx(level, rel=1e-10)


def test_nehari_scale_is_one_on_the_manifold():
    for p in (1.5, 2.0, 3.0):
        energy = DiscreteEnergy(GRID4, ProblemParams(4, p, 0.0, 0.0))
        u = random_bumps(GRID4, np.random.default_rng(8))
        w = nehari_scale(energy, u) * u
        assert nehari_scale(energy, w) == pytest.approx(1.0, rel=1e-12)


def test_nehari_projection_ignores_input_scale():
    energy = DiscreteEnergy(GRID4, ProblemParams(4, 3.0, 0.0, 0.0))
    u = random_bumps(GRID4, np.random.default_rng(9))
    w1 = nehari_scale(energy, u) * u
    w2 = nehari_scale(energy, 2.0 * u) * (2.0 * u)
    assert np.allclose(w1, w2, rtol=1e-12, atol=1e-14)


def test_nehari_projection_needs_nonzero_field():
    """The solver reads the Nehari scale off its trial pass, which refuses
    a zero field rather than divide by its zero B."""
    for p in (2.0, 3.0):
        _, trials = _trial_pass(CFG4, GRID4, p)
        zero = np.zeros(trials.basis[2])
        values = trials.field(trials.coefficients(zero))
        with pytest.raises(VariationalError, match="nonzero field"):
            trials.quotient_and_gradient(values, zero)


def test_level_from_quotient_matches_projected_value():
    for p in (2.0, 3.0):
        energy = DiscreteEnergy(GRID4, ProblemParams(4, p, 0.0, 0.0))
        u = random_bumps(GRID4, np.random.default_rng(10))
        level = energy.level_from_quotient(energy.quotient(u))
        assert level == pytest.approx(energy_value(energy, nehari_scale(energy, u) * u),
                                      rel=1e-12)


def test_negative_energy_forces_large_mass_ratio():
    """B/K >= q/p whenever J <= 0 (up to the p, q normalizations)."""
    energy = DiscreteEnergy(GRID4, PARAMS4)
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(10):
        u = random_bumps(GRID4, rng)
        t = 2.0 * nehari_scale(energy, u)  # past the manifold, J(tu) < 0
        v = t * u
        k, b = energy.kinetic(v), energy.potential(v)
        if energy_value(energy, v) <= 0.0:
            assert b / k >= energy.params.q / energy.params.p - 1e-12
            checked += 1
    assert checked == 10


# --------------------------------------------------------------------------
# symmetrization


def test_symmetrize_is_idempotent():
    rng = np.random.default_rng(12)
    u = rng.standard_normal(GRID4.shape) * GRID4.mask
    s1 = symmetrize(u, CFG4, GRID4)
    s2 = symmetrize(s1, CFG4, GRID4)
    assert np.max(np.abs(s2 - s1)) <= 1e-10 * np.max(np.abs(s1))


def test_symmetrize_output_is_equivariant():
    rng = np.random.default_rng(13)
    u = rng.standard_normal(GRID4.shape) * GRID4.mask
    s = symmetrize(u, CFG4, GRID4)
    assert grid_certificates(s, CFG4, GRID4)[0] <= 1e-10


def test_symmetrize_contracts_node_and_gradient_norms():
    energy = DiscreteEnergy(GRID4, PARAMS4)
    rng = np.random.default_rng(14)
    for _ in range(5):
        u = rng.standard_normal(GRID4.shape) * GRID4.mask
        s = symmetrize(u, CFG4, GRID4)
        assert np.linalg.norm(s) <= np.linalg.norm(u) * (1 + 1e-12)
        assert energy.kinetic(s) <= energy.kinetic(u) * (1 + 1e-12)


def test_equivariant_pairing_identity():
    """<J'(u), Sh> = <J'(u), h> when u is invariant under the sampled group."""
    energy = DiscreteEnergy(GRID4, PARAMS4)
    rng = np.random.default_rng(15)
    u = symmetrize(random_bumps(GRID4, rng), CFG4, GRID4)
    grad = energy_gradient(energy, u)
    for _ in range(5):
        h = rng.standard_normal(GRID4.shape) * GRID4.mask
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
    assert view_certificates(once, cfg)[0] <= 1e-12  # whole-cube: once is nonzero off the interior
    # the synthesis is orthonormal and the projection contracts
    assert np.linalg.norm(once) == pytest.approx(np.linalg.norm(c), rel=1e-12)
    assert np.linalg.norm(once) <= np.linalg.norm(u) * (1 + 1e-12)


def test_class_map_kills_odd_plane_modes():
    """A field odd in one rotation plane has zero circle average."""
    pts = grid_points(GRID4)
    u = (pts[:, 0] * np.exp(-np.sum(pts ** 2, axis=1))).reshape(GRID4.shape)
    assert np.max(np.abs(class_coefficients(u, CFG4, GRID4))) <= 1e-12


def _oracle_class_coefficients(values, cfg, grid):
    """E^T symmetrize(u): the pull-back through the grid symmetrization that
    the solver ran before it averaged on the coefficient tensor."""
    space = class_space(cfg, grid)
    split = (grid.points_per_axis ** 2,) * space.planes + space.shape[space.planes:]
    return variational._contract_planes(symmetrize(values, cfg, grid).reshape(split),
                                        [space.rows[space.ids].T] * space.planes)


@pytest.mark.parametrize("cfg, grid", [
    (CFG4, GRID4), (CFG4, BallGrid(4, 17, 1.0)),
    (SymmetryConfig(5, 0, (1,)), BallGrid(5, 7, 1.0)),
    (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0)),
    (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 7, 1.0))],
    ids=["9^4", "17^4", "7^5", "5^6", "7^6"])
def test_tensor_projection_matches_the_grid_oracle(cfg, grid):
    rng = np.random.default_rng(20)
    for _ in range(2):
        u = rng.standard_normal(grid.shape)
        c = class_coefficients(u, cfg, grid)
        expect = _oracle_class_coefficients(u, cfg, grid)
        assert np.linalg.norm(c - expect) <= 1e-12 * np.linalg.norm(expect)
        again = tensor_average(c, cfg)
        assert np.linalg.norm(again - c) <= 1e-12 * np.linalg.norm(c)


def _averaged_coordinates(values, cfg, grid, basis):
    """S^T P E^T u, P the tensor average: the pull-back before S^T P = S^T was used."""
    col, val, dim = basis
    return np.bincount(col, val * class_coefficients(values, cfg, grid).ravel(),
                       minlength=dim + 1)[:dim]


@pytest.mark.parametrize("cfg, grid", CLASS_CASES, ids=CLASS_CASE_IDS)
def test_class_coordinates_need_no_average(cfg, grid):
    """S^T E^T u equals S^T P E^T u and S^T E^T symmetrize(u): S spans the
    range of the orthogonal projector P, so S^T P = S^T."""
    basis = class_basis(cfg, grid)
    rng = np.random.default_rng(25)
    for _ in range(2):
        u = rng.standard_normal(grid.shape)
        y = class_coordinates(u, cfg, grid, basis)
        expect = _averaged_coordinates(u, cfg, grid, basis)
        assert np.linalg.norm(y - expect) <= 1e-12 * np.linalg.norm(expect)
        projected = class_coordinates(symmetrize(u, cfg, grid), cfg, grid, basis)
        assert np.linalg.norm(projected - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("cfg, grid", CLASS_CASES, ids=CLASS_CASE_IDS)
def test_seed_coordinates_match_the_symmetrized_seed(cfg, grid):
    """The solve's seed, the raw bump read through S^T E^T and scaled to a
    class-field peak of 1, equals the grid-symmetrized, sup-normalized bump
    read through S^T P E^T and scaled the same way."""
    space = class_space(cfg, grid)
    basis = space.basis

    def scaled(y):
        return y / np.max(np.abs(class_field(space.coefficients(y), cfg, grid)))

    u = seed_field(cfg, grid)
    sym = symmetrize(u, cfg, grid)
    expect = scaled(_averaged_coordinates(sym / np.max(np.abs(sym)), cfg, grid, basis))
    got = scaled(class_coordinates(u, cfg, grid, basis))
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_tensor_projection_refuses_an_element_that_splits_a_plane(monkeypatch):
    # coordinates 1 and 2 trade places: planes (0, 1) and (2, 3) are split
    split = LatticeElement(SignedPerm((0, 2, 1, 3), (1, 1, 1, 1)), 1)
    monkeypatch.setattr(variational, "lattice_subgroup",
                        lambda cfg: lattice_subgroup(cfg) + (split,))
    variational._tensor_action.cache_clear()
    try:
        with pytest.raises(VariationalError, match="splits a rotation plane"):
            class_basis(CFG4, GRID4)
    finally:
        variational._tensor_action.cache_clear()


@pytest.mark.parametrize("cfg, grid", CLASS_CASES + [(SymmetryConfig(6, 0, (0, 1)),
                                                      BallGrid(6, 5, 1.0))],
                         ids=CLASS_CASE_IDS + ["5^6-zero"])
def test_class_basis_is_orthonormal_and_spans_the_class(cfg, grid):
    """S^T S = I and S S^T is the tensor average; the {0} class has no column."""
    col, val, dim = class_basis(cfg, grid)
    s = np.zeros((col.size, dim + 1))
    s[np.arange(col.size), col] = val
    s = s[:, :dim]
    assert np.max(np.abs(s.T @ s - np.eye(dim)), initial=0.0) <= 1e-15
    rng = np.random.default_rng(23)
    for _ in range(2):
        c = rng.standard_normal(class_shape(cfg, grid))
        expect = tensor_average(c, cfg).ravel()
        assert np.linalg.norm(s @ (s.T @ c.ravel()) - expect) <= 1e-12 * np.linalg.norm(c)
    assert (dim == 0) == (cfg.m == (0, 1))


@pytest.mark.parametrize("npts", [9, 13, 41])
def test_nodes_of_one_plane_radius_read_one_profile_row(npts):
    """Plane nodes share a radius id exactly when they share a squared
    radius, so every node of one radius reads the same Q row, bit for bit."""
    ids, rows, _ = variational._plane_profile_basis(npts)
    sq = (np.arange(npts) - npts // 2) ** 2
    rad = (sq[:, None] + sq[None, :]).ravel()
    by_node = rows[ids]
    for radius in set(rad.tolist()):
        at = rad == radius
        assert len(set(ids[at].tolist())) == 1 and not np.any(ids[~at] == ids[at][0])
        assert np.array_equal(by_node[at], np.broadcast_to(by_node[at][0], by_node[at].shape))


@pytest.mark.parametrize("npts", range(5, 42, 2))
def test_plane_profile_basis_matches_the_svd_over_every_node(npts):
    """Q = Q_d[ids] spans what the SVD over all N^2 plane nodes spans, column
    for column up to sign, and is orthonormal over the plane nodes."""
    ids, rows, table = variational._plane_profile_basis(npts)
    q, expect = rows[ids], plane_profile_by_nodes(npts)
    assert q.shape == expect.shape and table.shape[1] == q.shape[1]
    signs = np.sign(np.sum(q * expect, axis=0))
    assert np.max(np.abs(q * signs - expect)) <= 1e-12 * np.max(np.abs(expect))
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-14


def test_solves_call_no_np_unique(monkeypatch):
    """The plane radii and the pairs of them are ranked by bincount and
    searchsorted: the first np.unique imports numpy.ma, which no stage of a
    solve needs, and sets a solve's resident peak."""
    def refused(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refused)
    for cache in (variational._plane_profile_basis, variational._tensor_action,
                  lattice._lattice_subgroup, lattice._axis_orbits):
        cache.cache_clear()
    solve(CFG4, GRID4, options=SolveOptions(max_iters=2))
    solve(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0), options=SolveOptions(max_iters=2))
    solve(CFG4, GRID4, params=params_for_config(CFG4, 3.0), options=SolveOptions(max_iters=2))


@pytest.mark.parametrize("cfg, grid", [
    (CFG4, GRID4), (SymmetryConfig(4, 0, (1,), "a_eq_b_nonzero"), BallGrid(4, 13, 1.0)),
    (SymmetryConfig(5, 0, (1,)), BallGrid(5, 7, 1.0)),
    (SymmetryConfig(6, 0, (1, 0), "a_eq_b_nonzero"), BallGrid(6, 5, 1.0)),
    (CFG4, BallGrid(4, 17, 1.0)), (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 7, 1.0))],
    ids=["9^4", "13^4-weighted", "7^5", "5^6-weighted", "17^4", "7^6"])
def test_class_hessian_matches_one_energy_pass_per_column(cfg, grid):
    """The plane-factored build, one term per lattice orbit of axes, is the
    masked, weighted p = 2 kinetic Hessian restricted to the class, and
    exactly symmetric."""
    space = class_space(cfg, grid)
    h = variational._class_hessian(space)
    expect = class_hessian_by_columns(space)
    assert np.max(np.abs(h - expect)) <= 1e-12 * np.max(np.abs(expect))
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("cfg, grid", [
    (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0)),
    (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 9, 1.0)),
    (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 13, 1.0)),
    (SymmetryConfig(5, 0, (1,)), BallGrid(5, 9, 1.0)), (CFG4, BallGrid(4, 21, 1.0))],
    ids=["5^6", "9^6", "13^6", "9^5", "21^4"])
def test_class_hessian_blocks_equal_the_per_tail_loop(cfg, grid):
    """Blocks of tail indices (several at 5^6 and 9^5, one at 13^6) add the
    terms a loop over single tail indices adds, in its order: H is equal bit
    for bit, so a solve's field is too."""
    space = class_space(cfg, grid)
    h = variational._class_hessian(space)
    assert np.array_equal(h, class_hessian_per_tail(space))


@pytest.mark.parametrize("cfg, grid", [(CFG4, GRID4),
                                       (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0))],
                         ids=["9^4", "5^6"])
def test_class_hessian_bins_one_shifted_plane_per_call(monkeypatch, cfg, grid):
    """Every plane axis of these classes lies in one lattice orbit, so the
    metric builds one pair term on a plane: one binning by pairs of radius
    ids, not one per plane axis."""
    space = class_space(cfg, grid)
    real, paired = variational._plane_radius_bins, []

    def counted(g, labels, sizes):
        paired.append(any(label is not space.ids for label in labels))
        return real(g, labels, sizes)

    monkeypatch.setattr(variational, "_plane_radius_bins", counted)
    variational._class_hessian(space)
    assert paired == [True]


def _trial_pass(cfg, grid, p=2.0):
    """The energy of cfg's regime at p and the solver exponent (halfway to
    p where the solver's shift would pass it) and the pass ``solve`` runs
    its trials through, its metric factored: the bin pass at p = 2, else
    the orbit pass."""
    params = params_for_config(cfg, p)
    q = params.q - 0.5 if params.q - 0.5 > p else (params.q + p) / 2.0
    energy = DiscreteEnergy(grid, params.with_exponent(q))
    trials = variational._trial_pass(energy, cfg)
    trials.factor_metric()
    return energy, trials


METRIC_CASES = [(CFG4, GRID4), (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0))]


@pytest.mark.parametrize("cfg, grid", METRIC_CASES, ids=["9^4", "5^6"])
def test_metric_direction_inverts_h_on_the_kept_eigenvectors(cfg, grid):
    """H direction(d) is d's component on the eigenvectors of H that the
    factoring keeps, within 1e-10 relative, and direction(d) is orthogonal
    to each one it cuts, those below METRIC_CUT of the largest eigenvalue
    (15 of 28 at 9^4, 54 of 60 at 5^6)."""
    _, trials = _trial_pass(cfg, grid)
    lam, vec = np.linalg.eigh(trials.hessian)
    kept = lam > variational.METRIC_CUT * lam[-1]
    assert 0 < np.count_nonzero(kept) < len(lam)
    for d in np.random.default_rng(32).standard_normal((3, len(lam))):
        step = trials.direction(d)
        part = vec[:, kept] @ (vec[:, kept].T @ d)
        assert np.linalg.norm(trials.hessian @ step - part) <= 1e-10 * np.linalg.norm(part)
        assert np.max(np.abs(vec[:, ~kept].T @ step)) <= 1e-10 * np.linalg.norm(step)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("cfg, grid", METRIC_CASES, ids=["9^4", "5^6"])
def test_a_factored_pass_runs_a_trial_and_keeps_h_only_at_p_two(cfg, grid, p):
    """Factoring the metric is all the setup a trial pass needs: right after
    it, a trial on the seed gives the quotient of the seed's class field and
    a finite metric step.  The bin pass keeps H, whose quadratic form is K
    at p = 2; the orbit pass holds no dim x dim array once factored."""
    energy, trials = _trial_pass(cfg, grid, p)
    dim = trials.basis[2]
    assert type(trials) is (variational._BinPass if p == 2.0 else _OrbitPass)
    assert hasattr(trials, "hessian") == (p == 2.0)
    assert any(isinstance(v, np.ndarray) and v.size == dim * dim
               for v in vars(trials).values()) == (p == 2.0)
    y = trials.read(seed_field(cfg, grid))
    values = trials.field(trials.coefficients(y))
    quot, grad, _ = trials.quotient_and_gradient(values, y)
    assert quot == pytest.approx(energy.quotient(to_cube(grid, values.take(trials.key))),
                                 rel=1e-12)
    step = trials.direction(trials.coordinates(grad))
    assert np.all(np.isfinite(step)) and np.any(step)


MAP_CASES = [(CFG4, GRID4), (CFG4, BallGrid(4, 21, 1.0)),
             (SymmetryConfig(5, 0, (1,)), BallGrid(5, 9, 1.0)),
             (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0)),
             (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 9, 1.0)),
             (SymmetryConfig(6, 0, (1, 0), "a_eq_b_zero"), BallGrid(6, 7, 1.0))]
MAP_IDS = ["9^4", "21^4", "9^5", "5^6", "9^6", "7^6-a_eq_b_zero"]


@pytest.mark.parametrize("cfg, grid", MAP_CASES, ids=MAP_IDS)
def test_bin_maps_match_the_cube_maps(cfg, grid):
    """On the interior E c is the bin tensor E_d c gathered through the bin
    key, and S^T E^T of a field that vanishes off the interior is the
    pull-back of its sums per bin: both match the contractions over the
    whole cube within 1e-12 relative, and the gathered field is 0 off the
    interior."""
    bins = class_space(cfg, grid)
    basis = bins.basis
    rng = np.random.default_rng(28)
    for _ in range(2):
        c = bins.coefficients(rng.standard_normal(basis[2]))
        got = to_cube(grid, bins.field(c).take(bins.key))  # as ``solve`` builds its field
        expect = class_field(c, cfg, grid) * grid.mask
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        assert not got[~grid.mask].any()
        u = to_cube(grid, rng.standard_normal(len(grid.interior)))
        expect = class_coordinates(u, cfg, grid, basis)
        assert np.linalg.norm(bins.read(u) - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_solve_contracts_no_grid_sized_tensor(monkeypatch, p):
    """No stage of a 4-D solve contracts a tensor with as many entries as
    the grid, in or out: E and E^T run on the plane-radius bins."""
    sizes = []
    real = variational._contract_planes

    def recorded(t, ms, *first):
        out = real(t, ms, *first)
        sizes.extend([t.size, out.size, *(m.size for m in ms)])
        return out

    monkeypatch.setattr(variational, "_contract_planes", recorded)
    report = solve(CFG4, GRID4, params=params_for_config(CFG4, p),
                   options=SolveOptions(max_iters=4))
    assert report.iterations == 4
    assert sizes and max(sizes) < math.prod(GRID4.shape)


# (5, 0, (1,)) has no a_eq_b_nonzero configuration: n = 5 fails its tail condition
BIN_CASES = [(SymmetryConfig(n, 0, m, regime), BallGrid(n, points, 1.0))
             for n, m, points in ((4, (1,), 13), (4, (1,), 21), (5, (1,), 9), (6, (1, 0), 7))
             for regime in REGIMES if (n, regime) != (5, "a_eq_b_nonzero")]


def _assert_pass_matches_the_grid_pass(cfg, grid, p, seed):
    """The trial pass gives the peak, quotient, B^(p/q) and class gradient
    of the interior energy pass on the class field followed by S^T E^T, on
    random class vectors, within 1e-12 relative."""
    energy, trials = _trial_pass(cfg, grid, p)
    basis = trials.basis
    rng = np.random.default_rng(seed)
    for _ in range(2):
        y = rng.standard_normal(basis[2])
        c = trials.coefficients(y)
        u = class_field(c, cfg, grid)
        peak = float(np.max(np.abs(u)))
        quot, grad, scale = quotient_and_gradient(energy, u / peak)
        d = class_coordinates(to_cube(grid, grad), cfg, grid, basis)
        values = trials.field(c)
        got_peak = float(np.max(np.abs(values)))
        got_quot, got_grad, got_scale = trials.quotient_and_gradient(values / got_peak,
                                                                    y / got_peak)
        got_d = trials.coordinates(got_grad)
        assert got_peak == pytest.approx(peak, rel=1e-12)
        assert got_quot == pytest.approx(quot, rel=1e-12)
        assert got_scale == pytest.approx(scale, rel=1e-12)
        assert np.linalg.norm(got_d - d) <= 1e-12 * np.linalg.norm(d)


@pytest.mark.parametrize("cfg, grid", BIN_CASES, ids=[
    f"{grid.points_per_axis}^{grid.n}-{cfg.regime}" for cfg, grid in BIN_CASES])
def test_bin_pass_matches_the_grid_pass(cfg, grid):
    """At p = 2 the pass in class coordinates on plane-radius bins is the
    interior energy pass on the class field."""
    _assert_pass_matches_the_grid_pass(cfg, grid, 2.0, 26)


ORBIT_CASES = [(SymmetryConfig(n, 0, m, regime), BallGrid(n, points, 1.0), p)
               for n, m, points in ((4, (1,), 13), (4, (1,), 17), (5, (1,), 7), (6, (1, 0), 7))
               for regime in REGIMES if (n, regime) != (5, "a_eq_b_nonzero")
               for p in (1.5, 3.0)]


@pytest.mark.parametrize("cfg, grid, p", ORBIT_CASES, ids=[
    f"{grid.points_per_axis}^{grid.n}-{cfg.regime}-p{p}" for cfg, grid, p in ORBIT_CASES])
def test_orbit_pass_matches_the_grid_pass(cfg, grid, p):
    """At p != 2 the kinetic sum over one interior node per lattice orbit,
    with its stencil and B read off the bins, is the interior energy pass
    on the class field; at p = 1.5 the 4-D exponents sit below 2, where
    |u|^(q-2) u must read 0 at u = 0."""
    _assert_pass_matches_the_grid_pass(cfg, grid, p, 31)


@pytest.mark.parametrize("cfg, grid, share, unit", [
    (CFG4, BallGrid(4, 21, 1.0), 0.5, "interior"),
    (SymmetryConfig(5, 0, (1,)), BallGrid(5, 11, 1.0), 0.25, "cube"),
    (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 9, 1.0), 0.25, "cube")],
    ids=["21^4", "11^5", "9^6"])
def test_bin_pass_trial_makes_no_grid_array(cfg, grid, share, unit):
    """One p = 2 line-search trial, from coordinates to the accepted class
    gradient, holds bin tensors only: below half an interior vector at
    21^4 and a quarter of a grid array at 11^5 and 9^6."""
    _, bins = _trial_pass(cfg, grid)
    y = np.random.default_rng(27).standard_normal(bins.basis[2])

    def trial():
        values = bins.field(bins.coefficients(y))
        peak = float(np.max(np.abs(values)))
        values /= peak
        bins.coordinates(bins.quotient_and_gradient(values, y / peak)[1])

    size = len(grid.interior) if unit == "interior" else math.prod(grid.shape)
    assert traced_peak(trial) <= share * 8 * size


@pytest.mark.parametrize("cfg, grid", [(SymmetryConfig(5, 0, (1,)), BallGrid(5, 11, 1.0)),
                                       (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 9, 1.0))],
                         ids=["11^5", "9^6"])
def test_gradient_pull_back_copies_no_grid_array(cfg, grid):
    """Reading the seed into the class holds its interior values (0.10 of a
    grid array at 11^5, 0.04 at 9^6), their sums per bin and the plane
    contractions of the pull-back that every accepted gradient shares, 0.12
    of a grid array at 11^5 and 0.07 at 9^6 in all: the contractions run
    leading plane first, so no transposed copy is made."""
    u = seed_field(cfg, grid)
    bins = class_space(cfg, grid)  # builds the class tables
    assert traced_peak(lambda: bins.read(u)) <= 0.15 * 8 * u.size


def _bits(certificates) -> list:
    """The certificates' outputs, floats as hex, so that -0.0 differs from 0.0."""
    equivariance, gap, cert = certificates
    return [v.hex() if isinstance(v, float) else v
            for v in (equivariance, gap, *dataclasses.astuple(cert))]


@pytest.mark.parametrize("cfg, grid", MAP_CASES, ids=MAP_IDS)
def test_end_of_run_certificates_hold_two_grid_arrays(cfg, grid):
    """symmetrize works in place, and the certificate pass, which reads the
    interior only, equals the whole-cube pass over each lattice element's
    view bit for bit, on a solved field, a symmetrized random field and the
    same field with one interior node broken.  It holds the interior values
    and then either their |.| for the argmax or n + 5.5 vectors of a block
    of nodes (the offsets, the images, a difference, the signed sum and
    their temporaries): 0.97 of a grid array at 9^5."""
    u = random_bumps(grid, np.random.default_rng(24))
    elements = lattice_subgroup(cfg)
    acc = np.zeros(grid.shape)
    for e in elements:
        acc = acc + e.sign * apply_perm_to_grid(u, e.perm)
    assert np.array_equal(symmetrize(u, cfg, grid), acc / len(elements))
    cube = 8 * math.prod(grid.shape)
    assert traced_peak(lambda: symmetrize(u, cfg, grid)) <= 2.05 * cube
    sym = symmetrize(u, cfg, grid)
    broken = sym.copy()
    broken.flat[grid.interior[len(grid.interior) // 3]] += 0.5
    solved = solve(cfg, grid, options=SolveOptions(max_iters=2)).field
    for w in (solved, sym, broken):
        assert _bits(grid_certificates(w, cfg, grid)) == _bits(view_certificates(w, cfg))
    equivariance, _, cert = grid_certificates(broken, cfg, grid)
    worst = max(float(np.max(np.abs(apply_perm_to_grid(broken, e.perm) - e.sign * broken)))
                for e in elements)
    assert equivariance == worst / float(np.max(np.abs(broken))) > 1e-3
    flip = next(e for e in elements if e.sign == -1)
    moved = apply_perm_to_grid(broken, flip.perm)
    assert cert.antisymmetry_residual == (float(np.max(np.abs(moved + broken)))
                                          / float(np.max(np.abs(broken))))
    inside = len(grid.interior)
    block = min(variational.CERTIFICATE_BLOCK, inside)
    bound = 8 * max(2 * inside, inside + (grid.n + 5.5) * block) + 2 ** 13
    assert traced_peak(lambda: grid_certificates(sym, cfg, grid)) <= bound
    assert np.array_equal(sym, symmetrize(u, cfg, grid))  # the field is unchanged


def test_certificates_refuse_a_field_nonzero_off_the_interior():
    """The certificates read the interior only, exact for a field that
    vanishes off it; one nonzero node off the interior is refused."""
    u = symmetrize(seed_field(CFG4, GRID4), CFG4, GRID4)
    assert grid_certificates(u, CFG4, GRID4)[2].certifies_sign_change
    u[0, 4, 4, 4] = 1e-3  # on the outer index layer
    with pytest.raises(VariationalError, match="off the interior"):
        grid_certificates(u, CFG4, GRID4)


def test_class_shape_counts_one_profile_axis_per_plane():
    assert class_shape(CFG4, BallGrid(4, 17, 1.0)) == (14, 14)
    assert class_shape(CFG4, BallGrid(4, 25, 1.0)) == (19, 19)
    assert class_shape(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 9, 1.0)) == (8, 8, 9, 9)


# --------------------------------------------------------------------------
# diagnostics: equivariance, sign certificates, seeds


def test_equivariance_residual_of_zero_field_is_zero():
    assert grid_certificates(np.zeros(GRID4.shape), CFG4, GRID4)[0] == 0.0


def test_equivariance_residual_detects_broken_symmetry():
    u = symmetrize(seed_field(CFG4, GRID4), CFG4, GRID4)
    assert grid_certificates(u, CFG4, GRID4)[0] <= 1e-12
    broken = u.copy()
    broken[1, 2, 3, 4] += 0.5
    assert grid_certificates(broken, CFG4, GRID4)[0] > 1e-3


def test_seed_field_is_normalized_masked_and_sign_changing():
    u = seed_field(CFG4, GRID4)
    assert np.max(np.abs(u)) == pytest.approx(1.0)
    assert np.all(u[~GRID4.mask] == 0.0)
    v = class_field(class_coefficients(u, CFG4, GRID4), CFG4, GRID4)  # the seed's class field
    assert v.min() < 0.0 < v.max()


@pytest.mark.parametrize("cfg, grid", [(CFG4, GRID4), (CFG4, BallGrid(4, 21, 1.0)),
                                       (SymmetryConfig(5, 0, (1,)), BallGrid(5, 9, 1.0)),
                                       (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 7, 1.0)),
                                       (CFG4, BallGrid(4, 9, 2.5))],
                         ids=["9^4", "21^4", "9^5", "7^6", "9^4-r2.5"])
def test_seed_matches_the_pointwise_sampler(cfg, grid):
    """The seed sums one squared-offset table per axis; it equals the bump
    sampled at every node's coordinates, bit for bit, also where h is not
    dyadic, and holds one grid array once the mask is built, plus the one
    ufunc buffer (np.getbufsize() entries) that numpy takes for a broadcast
    or casting operand: a whole grid at 9^4."""
    w = stabilizer_witness(cfg)
    center = variational.SEED_OFFSET * grid.radius * (w / np.linalg.norm(w))

    def bump(pts):
        d2 = np.sum((pts - center) ** 2, axis=1)
        return np.exp(-d2 / (2.0 * (variational.SEED_WIDTH * grid.radius) ** 2))

    expect = field_from_function(grid, bump)
    expect = expect / float(np.max(expect))
    assert seed_field(cfg, grid).tobytes() == expect.tobytes()  # bit for bit, signed zeros too
    buffer = 8 * np.getbufsize()
    assert traced_peak(lambda: seed_field(cfg, grid)) <= 1.1 * 8 * math.prod(grid.shape) + buffer


def test_sign_certificate_on_equivariant_field():
    u = symmetrize(seed_field(CFG4, GRID4), CFG4, GRID4)
    cert = grid_certificates(u, CFG4, GRID4)[2]
    assert cert.element_sign == -1
    assert cert.certifies_sign_change
    assert cert.min_value < 0.0 < cert.max_value
    assert cert.antisymmetry_residual <= 1e-12
    assert cert.mapped_value == pytest.approx(-cert.value, rel=1e-12)


def test_sign_certificate_needs_a_sign_reversing_element():
    pin_only = SymmetryConfig(4, 1, ())
    grid = GRID4
    values = np.exp(-np.sum(grid_points(grid) ** 2, axis=1)).reshape(grid.shape)
    with pytest.raises(UnsupportedConfigError):
        grid_certificates(values, pin_only, grid)


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


def _oracle_catmull_rom_matrix(t, size, radial):
    """The Catmull-Rom matrix by one np.add.at pass per stencil offset, as it
    was built before the single bincount."""
    base = np.floor(t).astype(int)
    f = t - base
    f2 = f * f
    f3 = f2 * f
    weights = (-0.5 * f3 + f2 - 0.5 * f, 1.5 * f3 - 2.5 * f2 + 1.0,
               -1.5 * f3 + 2.0 * f2 + 0.5 * f, 0.5 * f3 - 0.5 * f2)
    out = np.zeros((t.size, size))
    for offset, w in enumerate(weights):  # stencil offsets -1, 0, 1, 2
        idx = np.abs(base - 1 + offset) if radial else base - 1 + offset
        ok = (idx >= 0) & (idx < size)
        np.add.at(out, (np.arange(t.size), np.clip(idx, 0, size - 1)), np.where(ok, w, 0.0))
    return out


@pytest.mark.parametrize("radial", [True, False], ids=["radial", "line"])
def test_catmull_rom_matrix_is_the_per_offset_build_bit_for_bit(radial):
    """Positions on both sides of zero (a radial table reflects them), off
    both ends, on nodes and between them, including tiny tables whose
    stencils fold several offsets onto one entry."""
    rng = np.random.default_rng(21)
    for size in (1, 2, 3, 12, 40):
        t = np.concatenate([rng.uniform(-size - 4.0, size + 4.0, 3000),
                            np.arange(-size - 3.0, size + 3.5, 0.5)])
        got = _catmull_rom_matrix(t, size, radial)
        assert got.shape == (t.size, size)
        assert np.array_equal(got, _oracle_catmull_rom_matrix(t, size, radial))
    assert _catmull_rom_matrix(np.array([]), 5, radial).shape == (0, 5)


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
    planes = class_space(cfg, grid).planes
    rho = grid.h * np.arange(mid + 1)
    line = -grid.radius + grid.h * np.arange(npts)
    got = _class_profile(c, grid, planes, rho, line)
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
    assert np.max(np.abs(class_values(c, grid, grid_points(grid)) - u.ravel())) <= bound
    # even in the signed plane radius, as the estimate's derivative assumes
    off = rho + 0.3 * grid.h
    between = _class_profile(c, grid, planes, off, line)
    mirror = _class_profile(c, grid, planes, -off, line) - between
    assert np.max(np.abs(mirror)) <= bound
    # the profile's mesh as scattered points, each plane radius on a rotated ray
    mesh = np.meshgrid(*([off] * planes + [line] * (grid.n - 2 * planes)), indexing="ij")
    pts = np.zeros((between.size, grid.n))
    for k in range(planes):
        pts[:, 2 * k] = 0.6 * mesh[k].ravel()
        pts[:, 2 * k + 1] = -0.8 * mesh[k].ravel()
    for j, m in enumerate(mesh[planes:]):
        pts[:, 2 * planes + j] = m.ravel()
    assert np.max(np.abs(class_values(c, grid, pts) - between.ravel())) <= bound


def test_reduced_level_estimate_peaks_within_its_counted_tables():
    """The estimate holds at most the 3 profile tables that
    ``solve_peak_bytes`` counts for it: 0.375 MiB at 5^6."""
    cfg, grid = SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0)
    c = class_coefficients(seed_field(cfg, grid), cfg, grid)
    params = params_for_config(cfg)
    peak = traced_peak(
        lambda: reduced_level_estimate(c, cfg, grid, params.with_exponent(params.q - 0.5)))
    n_r = int(math.ceil(grid.radius / (grid.h / variational.REDUCED_REFINE)))
    assert peak <= 3 * 8 * n_r ** 2 * (2 * n_r) ** (grid.n - 4)


# --------------------------------------------------------------------------
# interpolated equivariance bias


@pytest.mark.parametrize("cfg, grid, low, high", [
    (CFG4, BallGrid(4, 13, 1.0), None, None),
    (SymmetryConfig(5, 0, (1,)), BallGrid(5, 7, 1.0), None, None),
    (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0), 1e-6, 1.0)],
    ids=["13^4", "7^5", "5^6"])
def test_interpolated_bias_is_the_tail_defect(cfg, grid, low, high):
    """A class profile is invariant under rotations inside each plane, so the
    bias is exactly 0 without an active tail; the active O(2) tail of
    (6, 0, (1, 0)) is only lattice-sampled, so there it is not."""
    c = class_coefficients(seed_field(cfg, grid), cfg, grid)
    bins = class_space(cfg, grid)
    bias = interpolated_equivariance_bias(c, bins)
    if low is None:
        assert bias == 0.0
    else:
        assert low < bias <= high
    assert interpolated_equivariance_bias(3.0 * c, bins) == pytest.approx(
        bias, rel=1e-9, abs=1e-15)
    assert interpolated_equivariance_bias(np.zeros_like(c), bins) == 0.0


@pytest.mark.parametrize("cfg, grid", [(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0)),
                                       (CFG4, BallGrid(4, 17, 1.0))], ids=["5^6", "17^4"])
def test_interpolated_bias_peaks_below_half_a_solve(cfg, grid):
    c = class_coefficients(seed_field(cfg, grid), cfg, grid)
    bins = class_space(cfg, grid)
    peak = traced_peak(lambda: interpolated_equivariance_bias(c, bins))
    assert peak <= 0.25 * solve_peak_bytes(grid)


@pytest.mark.parametrize("cfg, grid", [(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0)),
                                       (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 7, 1.0))],
                         ids=["5^6", "7^6"])
def test_interpolated_bias_matches_the_pointwise_read(cfg, grid):
    """The tail-factor read equals the pointwise read of the whole profile
    at moved interior nodes, for the seed's class coefficients and for the
    projection of a random field."""
    bins = class_space(cfg, grid)
    for u in (seed_field(cfg, grid), random_bumps(grid, np.random.default_rng(21))):
        c = class_coefficients(u, cfg, grid)
        bias = interpolated_equivariance_bias(c, bins)
        assert bias > 1e-6
        assert abs(bias - pointwise_bias(c, cfg, grid)) <= 1e-12


def _tail_rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


@pytest.mark.parametrize("grid", [BallGrid(6, 5, 1.0), BallGrid(6, 7, 1.0)], ids=["5^6", "7^6"])
def test_interpolated_bias_reads_a_fundamental_domain_of_the_tail(grid):
    """The tail defect is unchanged by the lattice's tail group on either
    side, so the angles over (0, pi/4], pi/4 included, read what 64 angles
    over [0, pi/2) read, and at least what 8 seeded Haar-random tails read."""
    cfg = SymmetryConfig(6, 0, (1, 0))
    bins = class_space(cfg, grid)
    dense = [_tail_rotation(k * math.pi / 128) for k in range(64)]
    rng = np.random.default_rng(0)
    haar = [random_element(cfg, rng).tail for _ in range(variational.INTERPOLATED_SAMPLES)]
    for u in (seed_field(cfg, grid), random_bumps(grid, np.random.default_rng(21))):
        c = class_coefficients(u, cfg, grid)
        bias = interpolated_equivariance_bias(c, bins)
        assert abs(bias - variational._tail_bias(c, bins, dense)) <= 1e-12
        assert bias >= variational._tail_bias(c, bins, haar)


@pytest.mark.parametrize("cfg, grid", [(CFG4, BallGrid(4, 13, 1.0)),
                                       (SymmetryConfig(5, 0, (1,)), BallGrid(5, 7, 1.0))],
                         ids=["13^4", "7^5"])
def test_interpolated_bias_without_an_active_tail_is_zero(cfg, grid):
    """The pointwise read gives rounding only where there is no active tail,
    and the tail-factor read gives exactly 0 there."""
    bins = class_space(cfg, grid)
    for u in (seed_field(cfg, grid), random_bumps(grid, np.random.default_rng(22))):
        c = class_coefficients(u, cfg, grid)
        assert pointwise_bias(c, cfg, grid) <= 1e-12
        assert interpolated_equivariance_bias(c, bins) == 0.0


def test_interpolated_bias_refuses_a_pinwheel_class():
    """Random pinwheel steps mix rotation planes, which a tail-only read
    would not see."""
    cfg = SymmetryConfig(4, 1, ())
    c = class_coefficients(seed_field(cfg, GRID4), cfg, GRID4)
    assert pointwise_bias(c, cfg, GRID4) > 1.0
    with pytest.raises(VariationalError, match="alpha = 0"):
        interpolated_equivariance_bias(c, class_space(cfg, GRID4))


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


@pytest.mark.parametrize("six", [False, True], ids=["9^4", "9^6"])
def test_reported_gap_is_of_the_returned_field(small_report, six):
    """The gap is max |P w - w| / sup |w| of the returned field w, P the
    grid ``symmetrize``, so it never exceeds the equivariance.  symmetrize
    sums |G| views of w, so it reads P w - w only to |G| ulps of sup |w|:
    1.2e-15 off the reported gap at 9^6, where |G| = 64."""
    cfg = SymmetryConfig(6, 0, (1, 0)) if six else CFG4
    grid = BallGrid(6, 9, 1.0) if six else GRID4
    report = solve(cfg, grid, options=SolveOptions(max_iters=4)) if six else small_report
    w = report.field
    gap = float(np.max(np.abs(symmetrize(w, cfg, grid) - w))) / float(np.max(np.abs(w)))
    ulps = len(lattice_subgroup(cfg)) * np.finfo(float).eps
    assert abs(report.symmetrization_gap - gap) <= ulps
    assert report.symmetrization_gap <= report.equivariance * (1 + 1e-12)


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


# energy histories of the metric descent: the 9^4 solve converges within
# its 40 iterations, below 103524.84, where the Barzilai-Borwein descent it
# replaced still stood after 600
PINNED_SMALL_HISTORY = (
    359244.33334870933, 181873.35763343636, 149873.22772371527, 141617.36510984536,
    138000.15097541778, 135015.98522730614, 131784.18944754754, 128134.32269433067,
    124120.98901922604, 119934.63995355098, 115862.13177355618, 112215.95377243993,
    109238.42488847376, 107029.16453207674, 105537.32302808164, 104614.34492788522,
    104085.58621227945, 103801.47472379412, 103656.38819947754, 103585.11084562488,
    103551.07695703575, 103535.1541836306, 103527.81051544697, 103524.45692100767,
    103522.93578828276, 103522.24899592373, 103521.93987175389, 103521.80102668676,
    103521.73875131214, 103521.7108456796, 103521.69834906621, 103521.692755245,
    103521.69025201073, 103521.68913202678, 103521.68863099275, 103521.68840687042,
    103521.6883066217, 103521.6882617828, 103521.68824172781)
PINNED_6D_HISTORY = (
    8.439651597439061e+24, 7.744398654227724e+23, 1.7051956976610568e+23, 7.174223244601938e+22)
# p = 3 runs its trials through the orbit pass.  Compared with ==: its class
# contractions (matmul) and the metric's eigh go through BLAS and LAPACK, so
# the last bits hold on the capture platform's OpenBLAS build and may differ
# on another.  Captured under the tier-1 command
# (PYTHONPATH=src python -m pytest -q) with OpenBLAS's default thread count,
# and the same under OPENBLAS_NUM_THREADS=1.
PINNED_P3_HISTORY = (
    1257.7338126749646, 443.0767147081383, 347.0764185734115, 301.32648769356615,
    276.6378019694368, 260.145788100692, 245.25912822864663)
# the same run with the regularised density (|g|^2 + 1e-16)^(p/2) - 1e-8^p,
# its trials through the orbit pass and then through the interior energy
# pass on the grid
REGULARISED_P3_HISTORY = (
    1257.7338126749585, 443.07671470816564, 347.076418573477, 301.32648769362413,
    276.63780196948323, 260.14578810073607, 245.25912822854917)
GRID_PASS_P3_HISTORY = (
    1257.733812674959, 443.0767147081623, 347.0764185734626, 301.3264876936096,
    276.63780196947, 260.1457881007214, 245.2591282285895)


def test_metric_descent_converges_along_its_pinned_history(small_report):
    assert small_report.iterations == 38
    assert small_report.stop_reason == "first variation tolerance" and small_report.converged
    assert small_report.energy_history == pytest.approx(PINNED_SMALL_HISTORY, rel=1e-10)
    assert small_report.energy_history[-1] < 103524.84
    assert small_report.class_dimension == 28
    six = solve(SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0),
                options=SolveOptions(max_iters=3))
    assert six.iterations == 3 and six.class_dimension == 60
    assert six.energy_history == pytest.approx(PINNED_6D_HISTORY, rel=1e-10)


def test_orbit_pass_keeps_its_pinned_history_at_p_three():
    report = solve(CFG4, GRID4, params=params_for_config(CFG4, 3.0),
                   options=SolveOptions(max_iters=6))
    assert report.iterations == 6
    assert report.energy_history == PINNED_P3_HISTORY
    assert report.energy_history == pytest.approx(REGULARISED_P3_HISTORY, rel=1e-10)
    assert report.energy_history == pytest.approx(GRID_PASS_P3_HISTORY, rel=1e-10)


@pytest.mark.parametrize("broken", ["certificate", "equivariance"])
def test_solver_refuses_a_candidate_that_breaks_its_promise(monkeypatch, broken):
    real = variational.grid_certificates

    def doctored(values, cfg, grid):
        equivariance, gap, cert = real(values, cfg, grid)
        if broken == "certificate":
            return equivariance, gap, dataclasses.replace(cert, min_value=0.0)
        return 2e-8, gap, cert

    monkeypatch.setattr(variational, "grid_certificates", doctored)
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
    assert len(scalars) == 18
    for name in scalars:
        assert summary[name.replace("_", " ")] == getattr(small_report, name), name
    assert len(summary) == 4 + 4 + len(scalars) + 4  # config, exponents, scalars, sign


def test_descent_makes_no_grid_symmetrization(monkeypatch):
    """No stage of a solve symmetrizes on the grid, and the package has no
    grid symmetrization: the seed and each accepted step's gradient are
    read through the bin pull-back S^T E_d^T alone, and the end-of-run
    certificates read the returned field on the interior nodes, through no
    grid-shaped view."""
    assert not hasattr(variational, "symmetrize")
    views = []
    real_view = variational.apply_perm_to_grid

    def counted_view(values, perm):
        if values.shape == GRID4.shape:
            views.append(perm)
        return real_view(values, perm)

    monkeypatch.setattr(variational, "apply_perm_to_grid", counted_view)
    for iters in (2, 8):
        views.clear()
        report = solve(CFG4, GRID4, options=SolveOptions(max_iters=iters))
        assert report.iterations == iters
        assert len(views) == 0


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
    uv = u.ravel()[GRID4.interior]
    _, _, _, gb = DiscreteEnergy(GRID4, params).evaluate(uv)
    assert np.all(np.isfinite(gb))
    assert np.all(gb[uv == 0.0] == 0.0)
    if q >= 2.0:
        w_pot = GRID4.weight_values(params.potential_weight_exponent)
        plain = q * GRID4.cell_volume * w_pot * np.abs(uv) ** (q - 2.0) * uv
        assert np.array_equal(gb, plain)


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


@pytest.mark.parametrize("radius", [1e5, 1e30])
def test_solver_lands_on_the_nehari_manifold_far_from_unit_radius(radius):
    """At p = 3 the returned field lies on the Nehari manifold at any radius
    and its level is the last history level: the density |g|^p has no
    regulariser whose scale the differences could fall below."""
    report = solve(CFG4, BallGrid(4, 9, radius), params=params_for_config(CFG4, 3.0),
                   options=SolveOptions(max_iters=6))
    assert report.nehari_residual <= 1e-12
    assert report.level == pytest.approx(report.energy_history[-1], rel=1e-12)


@pytest.mark.parametrize("name, value", [
    ("max_iters", 3.0), ("max_iters", True), ("max_iters", -1), ("max_iters", math.nan),
    ("checkpoint_every", 1.5), ("checkpoint_every", False), ("checkpoint_every", -2)])
def test_solve_options_refuse_counts_that_are_not_integers(name, value):
    with pytest.raises(VariationalError, match=f"^{name} must be an integer >= 0, got "):
        SolveOptions(**{name: value})
    assert getattr(SolveOptions(**{name: np.int64(3)}), name) == 3  # numpy integers are ints


@pytest.mark.parametrize("name, value", [
    ("tol", True), ("tol", "1e-5"), ("tol", None), ("subcritical_shift", False),
    ("subcritical_shift", "0.5"), ("subcritical_shift", [0.5])])
def test_solve_options_refuse_settings_that_are_not_numbers(name, value):
    """tol = True would read as 1.0, and a string would raise a bare TypeError."""
    with pytest.raises(VariationalError, match=f"^{name} must be a number, got "):
        SolveOptions(**{name: value})
    options = SolveOptions(**{name: 1})  # an int within the float range is a number
    assert getattr(options, name) == 1.0 and type(getattr(options, name)) is float


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


@pytest.mark.parametrize("cfg, grid, p", [(CFG4, BallGrid(4, 13, 1.0), 2.0),
                                          (CFG4, BallGrid(4, 21, 1.0), 2.0),
                                          (SymmetryConfig(5, 0, (1,)), BallGrid(5, 9, 1.0), 2.0),
                                          (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 5, 1.0), 2.0),
                                          (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 7, 1.0), 2.0),
                                          (CFG4, BallGrid(4, 13, 1.0), 3.0),
                                          (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 7, 1.0), 3.0),
                                          (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 9, 1.0), 2.0)],
                         ids=["13^4", "21^4", "9^5", "5^6", "7^6", "13^4-p3", "7^6-p3", "9^6"])
def test_peak_estimate_matches_the_traced_peak(cfg, grid, p):
    """At p = 3 the trace includes the orbit pass's table build."""
    peak = traced_peak(lambda: solve(cfg, grid, params=params_for_config(cfg, p),
                                     options=SolveOptions(max_iters=4)))
    assert 0.75 <= peak / solve_peak_bytes(grid, class_basis(cfg, grid)[2]) <= 1.0


def test_refusal_counts_the_untraced_eigh_workspace(monkeypatch):
    """Physical memory above ``solve_peak_bytes`` but below it plus eigh's
    LAPACK workspace, 2.35 dim^2 floats that tracing cannot see, refuses
    the solve once its class dimension is known."""
    have = solve_peak_bytes(GRID4, 28) + 8 * 28 * 28
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": have}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(VariationalError, match="physical memory"):
        solve(CFG4, GRID4, options=SolveOptions(max_iters=1))


@pytest.mark.parametrize("n, points", [(2, 5), (3, 11), (4, 9), (4, 21), (5, 9), (6, 7)])
def test_interior_count_is_the_mask_count(n, points):
    grid = BallGrid(n, points, 2.5)
    assert variational._interior_count(grid) == len(grid.interior)


def test_grid_caches_no_float_cube():
    """A grid caches its axis, boolean mask, interior indices and neighbour
    tables; no coordinate, radius or float mask array outlives a solve."""
    grid = BallGrid(4, 9, 1.0)
    solve(CFG4, grid, options=SolveOptions(max_iters=4))
    assert grid.mask.dtype == bool
    assert not [key for key, value in vars(grid).items() if isinstance(value, np.ndarray)
                and value.shape == grid.shape and value.dtype.kind == "f"]


@pytest.mark.parametrize("cfg, grid", [(CFG4, BallGrid(4, 13, 1.0)),
                                       (CFG4, BallGrid(4, 21, 1.0)),
                                       (SymmetryConfig(6, 0, (1, 0)), BallGrid(6, 7, 1.0))],
                         ids=["13^4", "21^4", "7^6"])
def test_returned_field_is_equivariant(cfg, grid):
    """The reported equivariance is that of the returned field w = t u mask,
    which holds on grids whose spacing is not dyadic only because the
    lattice keeps the mask."""
    report = solve(cfg, grid, options=SolveOptions(max_iters=4))
    assert report.equivariance == grid_certificates(report.field, cfg, grid)[0]
    assert report.equivariance <= 1e-12
    assert report.symmetrization_gap <= report.equivariance * (1 + 1e-12)


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
    _save_checkpoint(cp, CFG4, GRID4, params_for_config(CFG4), math.nan, 3, 0.1,
                     np.linspace(1.0, 2.0, 28), [1.0])
    with pytest.raises(VariationalError, match="different exponent"):
        solve(CFG4, GRID4, options=SolveOptions(max_iters=4), resume_from=cp)


def test_resume_rejects_a_vanishing_checkpoint_field(tmp_path):
    cp = tmp_path / "zero.ckpt"
    params = params_for_config(CFG4)
    q_solver = params.q - 0.5
    _save_checkpoint(cp, CFG4, GRID4, params, q_solver, 3, 0.1, np.zeros(28), [1.0])
    with pytest.raises(VariationalError):
        solve(CFG4, GRID4, resume_from=cp)


def test_load_checkpoint_refuses_coefficients_outside_the_class_shape(tmp_path):
    # the class of CFG4 at 9^4 has dimension 28; its coefficient tensor is 8 x 8
    params = params_for_config(CFG4)
    q_solver = params.q - 0.5
    for name, shape in [("grid", GRID4.shape), ("short", (27,)), ("tensor", (8, 8))]:
        cp = tmp_path / f"{name}.ckpt"
        _save_checkpoint(cp, CFG4, GRID4, params, q_solver, 3, 0.1, np.ones(shape), [1.0])
        with pytest.raises(VariationalError, match="class dimension"):
            load_checkpoint(cp)


def test_solver_builds_the_lattice_subgroup_once():
    build = lattice._lattice_subgroup
    build.cache_clear()
    for regime in REGIMES:
        solve(SymmetryConfig(6, 0, (1, 0), regime), BallGrid(6, 5, 1.0),
              options=SolveOptions(max_iters=1))
    assert build.cache_info().misses == 1


def test_solver_refuses_the_zero_class(monkeypatch):
    # one block of odd complex width: the circle averages force f = -f; the
    # seed read refuses it before the metric is built
    cfg = SymmetryConfig(6, 0, (0, 1))
    built, real = [], variational._class_hessian

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(variational, "_class_hessian", counted)
    with pytest.raises(UnsupportedConfigError, match="working class is"):
        solve(cfg, BallGrid(6, 5, 1.0), options=SolveOptions(max_iters=1))
    assert not built


# descent states the solver never writes: a relative step outside (0, 1], an
# iteration that is not an int >= 0, a history that is not a non-empty list of
# positive finite levels
UNWRITTEN_STATES = [("step", 0.0), ("step", -1.0), ("step", math.nan), ("step", math.inf),
                    ("step", 1.5), ("iteration", -1), ("iteration", 2.5), ("iteration", True),
                    ("history", []), ("history", [0.0]), ("history", [2.0, -1.0]),
                    ("history", [math.nan]), ("history", [math.inf]), ("history", "1"),
                    ("history", {"0": 1.0})]


def _corrupt_checkpoints(tmp_path):
    """A garbage file, a header without n, a truncated payload, and a header
    per state in UNWRITTEN_STATES."""
    good = tmp_path / "good.ckpt"
    params = params_for_config(CFG4)
    q_solver = params.q - 0.5
    _save_checkpoint(good, CFG4, GRID4, params, q_solver, 3, 0.1, np.linspace(1.0, 2.0, 28), [1.0])
    header, payload = good.read_bytes().split(b"\n", 1)
    no_n = json.loads(header)
    del no_n["n"]
    files = {"garbage": b"\xff\xfe\x00garbage" + bytes(range(256)),
             "missing-n": json.dumps(no_n).encode() + b"\n" + payload,
             "truncated": good.read_bytes()[:-5]}
    for i, (key, value) in enumerate(UNWRITTEN_STATES):
        files[f"{key}-{i}"] = (json.dumps({**json.loads(header), key: value}).encode()
                               + b"\n" + payload)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return [tmp_path / name for name in files]


@pytest.mark.parametrize("key, value", [
    ("n", 4.7), ("points_per_axis", "9"), ("radius", True), ("step", "0.5"), ("step", True),
    ("solver_exponent", "3.5"), ("solver_exponent", False), ("history", ["1e3", True]),
    ("history", [True]), ("p", "2"), ("a", False), ("b", "0.3")],
    ids=["n-float", "points-str", "radius-bool", "step-str", "step-bool", "exponent-str",
         "exponent-bool", "history-str", "history-bool", "p-str", "a-bool", "b-str"])
def test_load_checkpoint_refuses_header_values_it_would_coerce(tmp_path, key, value):
    """Converted, each value reads as a state the solver writes (n: 4.7 as
    4, a history entry true as 1.0), so only its JSON type is wrong."""
    cp = tmp_path / "state.ckpt"
    params = params_for_config(CFG4)
    q_solver = params.q - 0.5
    _save_checkpoint(cp, CFG4, GRID4, params, q_solver, 3, 0.5, np.linspace(1.0, 2.0, 28), [1e3])
    assert load_checkpoint(cp)["step"] == 0.5
    header, payload = cp.read_bytes().split(b"\n", 1)
    cp.write_bytes(json.dumps({**json.loads(header), key: value}).encode() + b"\n" + payload)
    with pytest.raises(VariationalError, match="unusable checkpoint"):
        load_checkpoint(cp)


def test_load_checkpoint_refuses_a_grid_that_cannot_fit(tmp_path):
    # a header claiming 40001 points per axis over one coefficient: its
    # class tables alone would not fit in memory
    path = tmp_path / "huge.ckpt"
    params = params_for_config(CFG4)
    _save_checkpoint(path, CFG4, GRID4, params, params.q - 0.5, 3, 0.1, np.ones(1), [1.0])
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(header), "points_per_axis": 40001}).encode()
                     + b"\n" + payload)

    def load():
        with pytest.raises(VariationalError, match="physical memory"):
            load_checkpoint(path)

    basis = variational._plane_profile_basis
    basis.cache_clear()
    assert traced_peak(load) < 2 ** 20
    assert basis.cache_info().currsize == 0  # no class table was built


def test_load_checkpoint_rejects_corrupt_files(tmp_path):
    for path in _corrupt_checkpoints(tmp_path):
        with pytest.raises(VariationalError):
            load_checkpoint(path)


def test_load_checkpoint_accepts_the_states_the_solver_writes(tmp_path):
    """The bounds of UNWRITTEN_STATES are tight: a full step, iteration 0 and
    a one-level history load."""
    cp = tmp_path / "edge.ckpt"
    params = params_for_config(CFG4)
    q_solver = params.q - 0.5
    _save_checkpoint(cp, CFG4, GRID4, params, q_solver, 0, 1.0, np.linspace(1.0, 2.0, 28), [1e-300])
    state = load_checkpoint(cp)
    assert (state["iteration"], state["step"], state["history"]) == (0, 1.0, [1e-300])


def test_checkpoint_writes_leave_no_temporary_file(tmp_path):
    cp = tmp_path / "state.ckpt"
    solve(CFG4, GRID4, options=SolveOptions(max_iters=3, checkpoint_path=str(cp),
                                            checkpoint_every=1))
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
    state = load_checkpoint(cp)
    assert state["coordinates"].shape == (28,) and state["iteration"] == 3
    header = json.loads(cp.read_bytes().split(b"\n", 1)[0])
    assert header["shape"] == [28] and header["version"] == 5 and "arrays" not in header


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
