"""Grid-exact finite subgroups realised as signed coordinate permutations.

Symmetrizing a field stored on a uniform Cartesian grid can only be an exact
projection when every sampled group element maps grid nodes to grid nodes.
On a cube grid that singles out the signed permutations: quarter-turn
rotations per complex pair, the conjugating cycles (which permute and flip
coordinates), the even pinwheel steps, and arbitrary signed permutations of
the tail.  Restricting the sample this way is what lets the discrete
symmetrization be idempotent and the discrete equivariance residual sit at
machine precision; finer rotation samples only interpolate and are used as
bias diagnostics, never as the projection.

An element is stored as ``out[i] = signs[i] * x[source[i]]`` together with
the value of the sign character on the group element it realises.  Nothing
here restates the group action: each element is a canonical element of
``cknsym.symmetry`` with quarter-turn angles, the permutations of its
factors are read off ``to_matrix`` and their signs off ``phi``, so the
projection and the diagnostics act through the same encoding of the group.  A solve reads it on nodes only
through ``interior_images``; ``apply_perm_to_grid`` gives whole-array views.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .symmetry import (
    GroupOperationError,
    SymmetryConfig,
    make_element,
    make_layout,
    phi,
    to_matrix,
    twist_order,
)


@dataclass(frozen=True)
class SignedPerm:
    source: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.source)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SignedPerm":
        """The signed permutation a matrix realises within 1e-12; refuses any other."""
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GroupOperationError(f"need a square matrix, got shape {m.shape}")
        rows = np.arange(m.shape[0])
        source = np.argmax(np.abs(m), axis=1)
        exact = np.zeros_like(m)
        exact[rows, source] = np.sign(m[rows, source])
        if (np.max(np.abs(m - exact)) > 1e-12
                or sorted(source.tolist()) != rows.tolist()):
            raise GroupOperationError("matrix is not a signed permutation")
        return cls(tuple(source.tolist()), tuple(int(s) for s in exact[rows, source]))


@dataclass(frozen=True)
class LatticeElement:
    perm: SignedPerm
    sign: int  # value of the sign character


def lattice_subgroup(cfg: SymmetryConfig) -> tuple[LatticeElement, ...]:
    """Enumerate the grid-exact sampling subgroup with its character values.

    The elements are the canonical group elements whose rotation angles are
    quarter turns: pinwheel steps {0, 2^alpha} (the only steps that are
    signed permutations, all of sign +1), every canonical twist per block,
    and every signed permutation of an active tail.  Each factor's elements
    are read once, with every other factor at the identity: the signed
    permutation of its span off ``to_matrix``, which is refused unless it is
    grid-exact, and its sign off ``phi``.  An element is a product of one
    element per factor; the factors act on disjoint spans in coordinate
    order, so its permutation joins theirs and its sign, ``phi`` being a
    character, is the product of theirs.  The pinwheel varies slowest, then
    the blocks in layout order, then the tail; within a factor the step or
    twist varies slower than the angle.  Built once per (n, alpha, m): the
    regime does not enter the group.
    """
    return _lattice_subgroup(cfg.n, cfg.alpha, cfg.m)


@functools.cache
def _lattice_subgroup(n: int, alpha: int, m: tuple[int, ...]) -> tuple[LatticeElement, ...]:
    cfg = SymmetryConfig(n, alpha, m)  # a_less_b admits every admissible (n, alpha, m)
    layout = make_layout(cfg)
    quarters = [k * math.pi / 2.0 for k in range(4)]
    unit = [(0, 0.0)] * len(layout.blocks)  # every block factor at the identity
    factors = []  # (span, the factor's elements with every other factor the identity)
    if layout.pinwheel is not None:
        factors.append((slice(layout.pinwheel.start, layout.pinwheel.stop),
                        [make_element(cfg, pinwheel=(step, a))
                         for step in (0, 1 << cfg.alpha) for a in quarters]))
    for k, span in enumerate(layout.blocks):
        factors.append((slice(span.start, span.stop),
                        [make_element(cfg, blocks=tuple(unit[:k] + [(t, a)] + unit[k + 1:]))
                         for t in range(twist_order(span.j)) for a in quarters]))
    if layout.tail_dim:  # a width-1 tail holds the identity only
        d, tails = layout.tail_dim, [None]
        if layout.tail_active:
            tails = [np.diag(flips) @ np.eye(d)[list(perm)]
                     for perm in itertools.permutations(range(d))
                     for flips in itertools.product((1, -1), repeat=d)]
        factors.append((slice(layout.tail_start, n), [make_element(cfg, tail=t) for t in tails]))
    elements = [((), (), 1)]  # (source, signs, character) on the factors so far
    for span, factor in factors:
        local = [(SignedPerm.from_matrix(to_matrix(g)[span, span]), phi(g)) for g in factor]
        read = [(tuple(span.start + i for i in p.source), p.signs, c) for p, c in local]
        elements = [(src + s, sgn + t, c * d) for src, sgn, c in elements for s, t, d in read]
    return tuple(LatticeElement(SignedPerm(src, sgn), c) for src, sgn, c in elements)


def axis_orbits(cfg: SymmetryConfig) -> dict[int, int]:
    """The orbits of the coordinate axes under the sampling subgroup, as
    {least axis: size} in axis order.  The subgroup is a group, so axis i's
    orbit is the set of source[i] over its elements.  Built once per
    (n, alpha, m), as the subgroup is."""
    return dict(_axis_orbits(cfg.n, cfg.alpha, cfg.m))


@functools.cache
def _axis_orbits(n: int, alpha: int, m: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    elements = _lattice_subgroup(n, alpha, m)
    least = [min(e.perm.source[i] for e in elements) for i in range(n)]
    return tuple((a, least.count(a)) for a in sorted(set(least)))


def interior_images(cfg: SymmetryConfig, grid, nodes: slice = slice(None)):
    """Each sampling element g with the flat C-order index of g x for every
    interior node x (or those at ``nodes`` in ``interior``), in ``interior``
    order: g keeps the interior, so over all nodes this is a permutation of
    ``interior``.  One exact float product of the offsets about the centre."""
    npts, n, inside = grid.points_per_axis, grid.n, grid.interior[nodes]
    strides = [npts ** (n - 1 - i) for i in range(n)]
    offsets = np.empty((n, len(inside)))  # axis-major: the product streams each row
    for i in range(n):
        offsets[i] = inside // strides[i] % npts - npts // 2
    for e in lattice_subgroup(cfg):  # (g x)_i = s_i x_source[i]: x_source[i] weighs s_i strides[i]
        weights = [float(s * t) for _, s, t in sorted(zip(e.perm.source, e.perm.signs, strides))]
        image = (weights @ offsets).astype(np.intp)
        image += (npts ** n - 1) // 2  # the centre's index
        yield e, image


def apply_perm_to_grid(values: np.ndarray, perm: SignedPerm) -> np.ndarray:
    """Compose a grid field with a signed permutation: out(x) = values(g x).

    Requires a grid symmetric about the origin along every axis (odd point
    count), so that flipping a coordinate is exactly an index reversal.  The
    result is a view of ``values`` and must not be written into.
    """
    flip_axes = [a for a, s in enumerate(perm.signs) if s < 0]
    v = np.flip(values, axis=flip_axes) if flip_axes else values
    return np.transpose(v, axes=sorted(range(perm.n), key=perm.source.__getitem__))

