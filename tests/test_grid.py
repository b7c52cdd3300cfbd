"""Masked ball grids: geometry, quadrature, differences, persistence."""

import json
import math

import numpy as np
import pytest

from cknsym.grid import (
    BallGrid,
    GridError,
    backward_diffs,
    field_from_function,
    forward_diffs,
    load_field,
    save_field,
    write_arrays,
)
from cknsym.variational import DiscreteEnergy, ProblemParams


@pytest.mark.parametrize("kwargs", [
    {"n": 0, "points_per_axis": 9},
    {"n": 7, "points_per_axis": 9},
    {"n": 3, "points_per_axis": 8},
    {"n": 3, "points_per_axis": 3},
    {"n": 3, "points_per_axis": 9, "radius": 0.0},
    {"n": 3, "points_per_axis": 9, "radius": -1.0},
    {"n": 4, "points_per_axis": 9, "radius": 1e100},   # h**n overflows
    {"n": 4, "points_per_axis": 9, "radius": 1e-100},  # h**n underflows to 0
    {"n": 4, "points_per_axis": 9, "radius": math.inf},
    {"n": 4, "points_per_axis": 9, "radius": math.nan},
])
def test_invalid_grids_rejected(kwargs):
    with pytest.raises(GridError):
        BallGrid(**kwargs)


def test_axis_is_symmetric_with_origin_node():
    grid = BallGrid(2, 9, radius=2.0)
    assert grid.axis[0] == -2.0 and grid.axis[-1] == 2.0
    assert grid.axis[4] == 0.0
    assert grid.h == pytest.approx(0.5)
    assert grid.shape == (9, 9)


def test_mask_excludes_outer_layer_and_matches_radii():
    grid = BallGrid(3, 11)
    assert np.array_equal(grid.mask, grid.radii < grid.radius)
    for ax in range(3):
        sl = [slice(None)] * 3
        for idx in (0, -1):
            sl[ax] = idx
            assert not grid.mask[tuple(sl)].any()


def test_mask_is_flip_symmetric():
    grid = BallGrid(3, 9)
    for ax in range(3):
        assert np.array_equal(grid.mask, np.flip(grid.mask, axis=ax))


def test_weight_values_unit_exponent_and_origin_floor():
    grid = BallGrid(4, 9)
    w = grid.weight_values(1.0)
    # origin cell representative: midpoint between center and farthest corner
    origin = (4, 4, 4, 4)
    assert w[origin] == pytest.approx(1.0 / (grid.h * math.sqrt(4) / 4.0))
    neighbor = (5, 4, 4, 4)
    assert w[neighbor] == pytest.approx(1.0 / grid.h)
    assert np.array_equal(grid.weight_values(0.0), np.ones(grid.shape))


def test_quadrature_recovers_ball_volume():
    grid = BallGrid(3, 41)
    vol = DiscreteEnergy(grid, ProblemParams(3, 2.0, 0.0, 0.0)).potential(np.ones(grid.shape))
    assert vol == pytest.approx(4.0 * math.pi / 3.0, rel=0.02)


def test_weighted_quadrature_matches_analytic_radial_integral():
    # integral of |x|^(-1) over the unit ball in 3 dimensions is 2 pi; q = 4, so b q = 1
    grid = BallGrid(3, 41)
    val = DiscreteEnergy(grid, ProblemParams(3, 2.0, 0.0, 0.25)).potential(np.ones(grid.shape))
    assert val == pytest.approx(2.0 * math.pi, rel=0.02)


def test_field_from_function_vanishes_outside_ball():
    grid = BallGrid(2, 9)
    f = field_from_function(grid, lambda pts: np.ones(len(pts)))
    assert np.array_equal(f != 0.0, grid.mask)


def test_differences_exact_on_linear_data():
    grid = BallGrid(2, 9)
    u = 3.0 * grid.coords[0] - 2.0 * grid.coords[1]
    fw = forward_diffs(grid, u)
    bw = backward_diffs(grid, u)
    inner = (slice(1, -1),) * 2
    assert np.allclose(fw[0][inner], 3.0, atol=1e-12)
    assert np.allclose(fw[1][inner], -2.0, atol=1e-12)
    assert np.allclose(bw[0][inner], 3.0, atol=1e-12)
    assert np.allclose(bw[1][inner], -2.0, atol=1e-12)


def test_backward_is_shifted_forward():
    rng = np.random.default_rng(7)
    grid = BallGrid(3, 9)
    u = rng.standard_normal(grid.shape)
    fw = forward_diffs(grid, u)
    bw = backward_diffs(grid, u)
    for ax in range(3):
        assert np.allclose(bw[ax], np.roll(fw[ax], 1, axis=ax), atol=1e-13)


def test_field_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = BallGrid(3, 9)
    values = rng.standard_normal(grid.shape) * grid.mask_f
    path = tmp_path / "field.dat"
    save_field(path, grid, values)
    grid2, loaded = load_field(path)
    assert grid2 == grid
    assert np.array_equal(loaded, values)


def test_save_field_rejects_shape_mismatch(tmp_path):
    grid = BallGrid(2, 9)
    with pytest.raises(GridError):
        save_field(tmp_path / "bad.dat", grid, np.zeros((3, 3)))


def test_load_field_rejects_corrupt_files(tmp_path):
    grid = BallGrid(2, 9)
    path = tmp_path / "field.dat"
    save_field(path, grid, np.zeros(grid.shape))

    not_field = tmp_path / "other.dat"
    not_field.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(GridError):
        load_field(not_field)

    truncated = tmp_path / "short.dat"
    truncated.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(GridError):
        load_field(truncated)

    garbled = tmp_path / "garbled.dat"
    garbled.write_bytes(b"\xff\xfe not json\n" + b"\x00" * 64)
    with pytest.raises(GridError):
        load_field(garbled)

    # a shape key (which only non-grid arrays carry) that is negative or not the grid's
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    for shape in ([-1, -1], [3, 3]):
        reshaped = tmp_path / "reshaped.dat"
        reshaped.write_bytes(json.dumps({**header, "shape": shape}).encode() + b"\n"
                             + bytes(8 * abs(math.prod(shape))))
        with pytest.raises(GridError):
            load_field(reshaped)


def test_field_header_format_is_stable(tmp_path):
    path = tmp_path / "field.dat"
    save_field(path, BallGrid(2, 9), np.zeros((9, 9)))
    header = path.read_bytes().split(b"\n", 1)[0]
    assert header == (b'{"dtype": "<f8", "format": "cknsym-field", "n": 2, '
                      b'"points_per_axis": 9, "radius": 1.0, "version": 1}')


def test_failed_write_keeps_the_previous_file(tmp_path):
    grid = BallGrid(2, 9)
    path = tmp_path / "field.dat"
    save_field(path, grid, np.ones(grid.shape))
    before = path.read_bytes()
    unconvertible = np.full(grid.shape, "x", dtype=object)
    with pytest.raises(ValueError):
        write_arrays(path, "cknsym-field", 1, grid, [np.zeros(grid.shape), unconvertible])
    assert path.read_bytes() == before
