"""Cartesian ball grids: masked cube discretizations with exact shift algebra.

Fields live on a uniform grid over the cube [-radius, radius]^n and are
forced to zero outside the open inscribed ball.  The point count per axis is
odd so the origin is a node and every coordinate flip is an exact index
reversal; the outermost index layer always lies outside the ball, which
makes np.roll a safe (exact) shift: wraparound only ever transports zeros.

Differences come in forward/backward pairs with exact adjoints, so energy
gradients can be assembled without any boundary bookkeeping.  The roll
stencils ``forward_diffs``/``backward_diffs`` give them over the whole cube;
the energy pass reads the same differences on interior nodes only, through
the cached ``interior`` indices and ``neighbours`` tables, where a
neighbour off the interior points at a zero sentinel.  Quadrature is midpoint; radial weights
|x|^(-c) are tabulated on the interior with the radius floored at h*sqrt(n)/4
(the midpoint between the origin cell's center and its farthest corner) so
the origin cell carries a finite representative value instead of a singularity.

A grid caches only its ``axis``, boolean ``mask``, ``interior`` indices and
``neighbours``: the index squares behind the mask and the weights, like the
seed's squared distance, are sums of per-axis tables (``axis_sum``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .kvdoc import exact_float, exact_int

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
        object.__setattr__(self, "n", exact_int(self.n, GridError, (
            f"dimension must be an integer in 1..{MAX_DIM}, got {{!r}}"), 1, MAX_DIM))
        object.__setattr__(self, "points_per_axis", exact_int(self.points_per_axis, GridError, (
            "points_per_axis must be an integer >= 5, got {!r}"), 5))
        if self.points_per_axis % 2 == 0:
            raise GridError("points_per_axis must be odd so the origin is a node")
        # products, not powers: a float power raises on overflow, a product reads inf
        if not (0.0 < self.radius < math.inf and 0.0 < math.prod([self.h] * self.n) < math.inf
                and 0.0 < self.n * self.radius * self.radius < math.inf):
            raise GridError(f"radius must be finite, with h**n and n*radius**2 "
                            f"positive finite floats, got {self.radius}")

    @cached_property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.points_per_axis)

    @property
    def h(self) -> float:
        return 2.0 * self.radius / (self.points_per_axis - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.n

    def axis_sum(self, tables: list[np.ndarray]) -> np.ndarray:
        """The grid array of tables[0][k_0] + ... + tables[n-1][k_{n-1}] at node
        k, summed in axis order, in place, one broadcast axis at a time."""
        npts = self.points_per_axis
        out = np.zeros(self.shape)
        for i, table in enumerate(tables):
            out += table.reshape((npts,) + (1,) * (self.n - 1 - i))
        return out

    def _index_squares(self) -> np.ndarray:
        """|k|^2 at each node, k its index offset from the centre: exact in
        floats, so every signed coordinate permutation keeps it, the weights
        (of h |k|) and ``mask`` (|k| < (N - 1) / 2, off the outer layer)."""
        npts = self.points_per_axis
        return self.axis_sum([(np.arange(npts, dtype=float) - npts // 2) ** 2] * self.n)

    @cached_property
    def mask(self) -> np.ndarray:
        return self._index_squares() < ((self.points_per_axis - 1) // 2) ** 2

    @cached_property
    def interior(self) -> np.ndarray:
        """Flat C-order indices of the M interior nodes, ascending."""
        return np.flatnonzero(self.mask)

    @cached_property
    def neighbours(self) -> np.ndarray:
        """Shape (2, n, M): [0, i] and [1, i] hold the position in the
        interior vector of each interior node's forward and backward
        neighbour along axis i, or M when that neighbour is not interior.

        Interior nodes never touch the outer index layer, so a flat index
        step is an exact neighbour step, as the roll stencils assume.
        """
        inside = self.interior
        size = len(inside)
        position = np.full(math.prod(self.shape), size)
        position[inside] = np.arange(size)
        tables = np.empty((2, self.n, size), dtype=np.intp)
        for i in range(self.n):
            step = self.points_per_axis ** (self.n - 1 - i)
            position.take(inside + step, out=tables[0, i])
            position.take(inside - step, out=tables[1, i])
        return tables

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    def weight_values(self, exponent: float) -> np.ndarray:
        """|x|^(-exponent) = (h |k|)^(-exponent) at the M interior nodes, in
        ``interior`` order, regularized on the origin cell.

        The origin node is evaluated at the midpoint between the cell center
        and its farthest corner, i.e. at radius h*sqrt(n)/4, which keeps the
        quadrature finite and refines consistently.  Every other node sits at
        radius >= h and is unaffected.
        """
        if exponent == 0.0:
            return np.ones(len(self.interior))
        r = np.sqrt(self._index_squares().take(self.interior)) * self.h
        return np.maximum(r, self.h * math.sqrt(self.n) / 4.0) ** (-exponent)


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
# the format tag, the array shape and the extra header keys.


def write_array(path: str | Path, fmt: str, version: int, grid: BallGrid,
                values: np.ndarray, **extra) -> None:
    """Write one array under a header, replacing ``path`` atomically.

    The header records the array shape as ``shape`` when it is not the
    grid's.  The bytes go to a sibling temporary file first, so a run killed
    mid-write leaves the previous file intact.
    """
    header = {"format": fmt, "version": version, "n": grid.n,
              "points_per_axis": grid.points_per_axis, "radius": grid.radius,
              "dtype": "<f8", **extra}
    if values.shape != grid.shape:
        header["shape"] = list(values.shape)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
    os.replace(tmp, path)


def read_array(path: str | Path, fmt: str, version: int) -> tuple[dict, BallGrid, np.ndarray]:
    """Header, grid and array of a ``write_array`` file; GridError if
    malformed, a number of the wrong JSON type included."""
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
        radius = exact_float(header["radius"], GridError, "radius must be a number, got {!r}")
        grid = BallGrid(header["n"], header["points_per_axis"], radius)
        shape = tuple(exact_int(k, GridError, "shape entries must be integers >= 0, got {!r}", 0)
                      for k in header.get("shape", grid.shape))
    except (KeyError, TypeError, ValueError) as exc:
        raise GridError(f"malformed {fmt} header: {exc!r}") from exc
    if len(payload) != math.prod(shape) * 8:
        raise GridError(f"{fmt} payload has {len(payload)} bytes, "
                        f"expected {math.prod(shape) * 8}")
    return header, grid, np.frombuffer(payload, dtype="<f8").reshape(shape).copy()


def save_field(path: str | Path, grid: BallGrid, values: np.ndarray) -> None:
    if values.shape != grid.shape:
        raise GridError(f"field shape {values.shape} does not match grid {grid.shape}")
    write_array(path, FIELD_FORMAT, FIELD_VERSION, grid, values)


def load_field(path: str | Path) -> tuple[BallGrid, np.ndarray]:
    _, grid, values = read_array(path, FIELD_FORMAT, FIELD_VERSION)
    if values.shape != grid.shape:
        raise GridError(f"field shape {values.shape} does not match grid {grid.shape}")
    return grid, values
