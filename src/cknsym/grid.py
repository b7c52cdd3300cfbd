"""Cartesian ball grids: masked cube discretizations with exact shift algebra.

Fields live on a uniform grid over the cube [-radius, radius]^n and are
forced to zero outside the open inscribed ball.  The point count per axis is
odd so the origin is a node and every coordinate flip is an exact index
reversal; the outermost index layer always lies outside the ball, which
makes np.roll a safe (exact) shift: wraparound only ever transports zeros.

Differences come in forward/backward pairs with exact adjoints, so energy
gradients can be assembled without any boundary bookkeeping.  Quadrature is
midpoint; radial weights |x|^(-c) are tabulated with the radius floored at
h*sqrt(n)/4 (the midpoint between the origin cell's center and its farthest
corner) so the origin cell carries a finite representative value instead of
a singularity.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

MAX_DIM = 6
FIELD_FORMAT = "cknsym-field"
FIELD_VERSION = 1


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class BallGrid:
    n: int
    points_per_axis: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_DIM:
            raise GridError(f"dimension must be an integer in 1..{MAX_DIM}, got {self.n}")
        if not isinstance(self.points_per_axis, int) or self.points_per_axis < 5:
            raise GridError(f"points_per_axis must be an integer >= 5, got {self.points_per_axis}")
        if self.points_per_axis % 2 == 0:
            raise GridError("points_per_axis must be odd so the origin is a node")
        if not self.radius > 0:
            raise GridError(f"radius must be positive, got {self.radius}")

    @cached_property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.points_per_axis)

    @property
    def h(self) -> float:
        return 2.0 * self.radius / (self.points_per_axis - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.n

    @cached_property
    def coords(self) -> np.ndarray:
        """Shape (n,) + shape; coords[i] is the i-th coordinate at every node."""
        grids = np.meshgrid(*([self.axis] * self.n), indexing="ij")
        return np.stack(grids)

    @cached_property
    def radii(self) -> np.ndarray:
        return np.sqrt(np.sum(self.coords ** 2, axis=0))

    @cached_property
    def mask(self) -> np.ndarray:
        m = self.radii < self.radius
        for ax in range(self.n):
            edge = [slice(None)] * self.n
            for idx in (0, -1):
                edge[ax] = idx
                if m[tuple(edge)].any():
                    raise GridError("interior reaches the outer index layer")
        return m

    @cached_property
    def mask_f(self) -> np.ndarray:
        return self.mask.astype(float)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    def points(self) -> np.ndarray:
        """All nodes as an (N^n, n) array, C order."""
        return self.coords.reshape(self.n, -1).T

    def weight_values(self, exponent: float) -> np.ndarray:
        """|x|^(-exponent), regularized on the origin cell.

        The origin node is evaluated at the midpoint between the cell center
        and its farthest corner, i.e. at radius h*sqrt(n)/4, which keeps the
        quadrature finite and refines consistently.  Every other node sits at
        radius >= h and is unaffected.
        """
        if exponent == 0.0:
            return np.ones(self.shape)
        r = np.maximum(self.radii, self.h * math.sqrt(self.n) / 4.0)
        return r ** (-exponent)

    def quadrature(self, values: np.ndarray, weight_exponent: float = 0.0) -> float:
        v = values * self.mask_f
        if weight_exponent != 0.0:
            v = v * self.weight_values(weight_exponent)
        return float(self.cell_volume * np.sum(v))


def field_from_function(grid: BallGrid, fn) -> np.ndarray:
    """Sample fn at interior nodes (zero outside); fn maps (m, n) points to m values."""
    pts = grid.points()
    vals = np.asarray(fn(pts), dtype=float).reshape(grid.shape)
    return np.where(grid.mask, vals, 0.0)


def forward_diffs(grid: BallGrid, values: np.ndarray) -> np.ndarray:
    """Stack of (u(x + h e_i) - u(x)) / h over axes, shape (n,) + grid.shape."""
    h = grid.h
    return np.stack([(np.roll(values, -1, axis=i) - values) / h for i in range(grid.n)])


def backward_diffs(grid: BallGrid, values: np.ndarray) -> np.ndarray:
    h = grid.h
    return np.stack([(values - np.roll(values, 1, axis=i)) / h for i in range(grid.n)])


# --------------------------------------------------------------------------
# persistence: one JSON header line, then raw little-endian float64, C order.
# Fields and solver checkpoints share this container; they differ only in
# the format tag, the array count, the array shape and the extra header keys.


def write_arrays(path: str | Path, fmt: str, version: int, grid: BallGrid,
                 fields: Sequence[np.ndarray], **extra) -> None:
    """Write same-shaped arrays under one header, replacing ``path`` atomically.

    The header records the array count as ``arrays`` when it is not 1, and
    the array shape as ``shape`` when it is not the grid's.  The bytes go to
    a sibling temporary file first, so a run killed mid-write leaves the
    previous file intact.
    """
    shape = fields[0].shape
    if any(values.shape != shape for values in fields):
        raise GridError(f"the arrays of one file must share one shape, got {shape} and others")
    header = {"format": fmt, "version": version, "n": grid.n,
              "points_per_axis": grid.points_per_axis, "radius": grid.radius,
              "dtype": "<f8", **extra}
    if len(fields) != 1:
        header["arrays"] = len(fields)
    if shape != grid.shape:
        header["shape"] = list(shape)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for values in fields:
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
    os.replace(tmp, path)


def read_arrays(path: str | Path, fmt: str, version: int,
                counts: tuple[int, ...] = (1,)) -> tuple[dict, BallGrid, list[np.ndarray]]:
    """Header, grid and arrays of a ``write_arrays`` file; GridError if malformed.

    ``counts`` lists the array counts (header key ``arrays``) the caller accepts.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GridError(f"unreadable {fmt} header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise GridError(f"not a {fmt} file")
    if header.get("version") != version:
        raise GridError(f"unsupported {fmt} version {header.get('version')!r}")
    try:
        grid = BallGrid(int(header["n"]), int(header["points_per_axis"]),
                        float(header["radius"]))
        count = int(header.get("arrays", 1))
        shape = tuple(int(k) for k in header.get("shape", grid.shape))
        if min(shape, default=0) < 0:
            raise ValueError(f"negative shape {list(shape)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise GridError(f"malformed {fmt} header: {exc!r}") from exc
    if count not in counts:
        raise GridError(f"{fmt} file holds {count} arrays, expected one of {counts}")
    size = math.prod(shape)
    if len(payload) != count * size * 8:
        raise GridError(f"{fmt} payload has {len(payload)} bytes, expected {count * size * 8}")
    flat = np.frombuffer(payload, dtype="<f8")
    arrays = [flat[i * size:(i + 1) * size].reshape(shape).copy() for i in range(count)]
    return header, grid, arrays


def save_field(path: str | Path, grid: BallGrid, values: np.ndarray) -> None:
    if values.shape != grid.shape:
        raise GridError(f"field shape {values.shape} does not match grid {grid.shape}")
    write_arrays(path, FIELD_FORMAT, FIELD_VERSION, grid, [values])


def load_field(path: str | Path) -> tuple[BallGrid, np.ndarray]:
    _, grid, arrays = read_arrays(path, FIELD_FORMAT, FIELD_VERSION)
    if arrays[0].shape != grid.shape:
        raise GridError(f"field shape {arrays[0].shape} does not match grid {grid.shape}")
    return grid, arrays[0]
