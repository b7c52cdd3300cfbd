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
the value of the sign character on the group element it realises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .symmetry import (
    GroupOperationError,
    SymmetryConfig,
    make_layout,
    twist_order,
)


@dataclass(frozen=True)
class SignedPerm:
    source: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.source)

    def apply_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return np.asarray(self.signs) * x[..., list(self.source)]

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for i, (src, s) in enumerate(zip(self.source, self.signs)):
            m[i, src] = s
        return m


def identity_perm(n: int) -> SignedPerm:
    return SignedPerm(tuple(range(n)), (1,) * n)


def compose_perms(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """Signed permutation of x -> a(b(x))."""
    if a.n != b.n:
        raise GroupOperationError("signed permutations of different sizes")
    source = tuple(b.source[a.source[i]] for i in range(a.n))
    signs = tuple(a.signs[i] * b.signs[a.source[i]] for i in range(a.n))
    return SignedPerm(source, signs)


def _embed(n: int, start: int, local: SignedPerm) -> SignedPerm:
    src = list(range(n))
    sgn = [1] * n
    for i in range(local.n):
        src[start + i] = start + local.source[i]
        sgn[start + i] = local.signs[i]
    return SignedPerm(tuple(src), tuple(sgn))


def _sync_quarter_turn(width: int) -> SignedPerm:
    src, sgn = [], []
    for _ in range(width):
        base = len(src)
        src += [base + 1, base]
        sgn += [-1, 1]
    return SignedPerm(tuple(src), tuple(sgn))


def _async_quarter_turn() -> SignedPerm:
    # (z1, z2) -> (i z1, -i z2) on interleaved (x1, y1, x2, y2)
    return SignedPerm((1, 0, 3, 2), (-1, 1, 1, -1))


def _conj_cycle_perm(width: int) -> SignedPerm:
    # (z_1..z_w) -> (-conj(z_w), conj(z_1..z_{w-1}))
    src = [2 * width - 2, 2 * width - 1]
    sgn = [-1, 1]
    for i in range(width - 1):
        src += [2 * i, 2 * i + 1]
        sgn += [1, -1]
    return SignedPerm(tuple(src), tuple(sgn))


def _powers(base: SignedPerm, count: int) -> list[SignedPerm]:
    out = [identity_perm(base.n)]
    for _ in range(count - 1):
        out.append(compose_perms(base, out[-1]))
    return out


@dataclass(frozen=True)
class LatticeElement:
    perm: SignedPerm
    sign: int  # value of the sign character


def lattice_subgroup(cfg: SymmetryConfig, rotation_order: int = 4) -> tuple[LatticeElement, ...]:
    """Enumerate the grid-exact sampling subgroup with its character values.

    ``rotation_order`` picks how many rotation steps per circle factor are
    kept (1, 2 or 4; only multiples of a quarter turn act exactly on a cube
    grid).  When a block of even complex width is present the order must be
    even, because the canonical fold turns twist overflow into a half-turn.
    The pinwheel factor contributes only the steps that are signed
    permutations (multiples of ``2^alpha``), all of which have sign +1.
    Tail factors of width >= 2 contribute every signed permutation.
    """
    if rotation_order not in (1, 2, 4):
        raise GroupOperationError("rotation_order must be 1, 2, or 4 for grid-exact sampling")
    layout = make_layout(cfg)
    if rotation_order == 1 and (layout.pinwheel is not None
                                or any((s.j + 1) % 2 == 0 for s in layout.blocks)):
        raise GroupOperationError(
            "rotation_order 1 is not closed when a squared cycle is a half-turn")
    n = cfg.n
    factors: list[list[tuple[SignedPerm, int]]] = []

    if layout.pinwheel is not None:
        quarter = _embed(n, 0, _async_quarter_turn())
        rot_steps = _powers(quarter, 4)[:: (4 // rotation_order)]
        # pinwheel step 2^alpha; its square is the asynchronous half-turn,
        # already among the rotations, so only two cycle powers are new
        cyc = _embed(n, 0, _conj_cycle_perm(2))
        mixes = _powers(cyc, 2)
        factors.append([(compose_perms(c, r), 1) for c in mixes for r in rot_steps])

    for span in layout.blocks:
        width = span.j + 1
        quarter = _embed(n, span.start, _sync_quarter_turn(width))
        rot_steps = _powers(quarter, 4)[:: (4 // rotation_order)]
        cyc = _embed(n, span.start, _conj_cycle_perm(width))
        twists = _powers(cyc, twist_order(span.j))
        factors.append([
            (compose_perms(c, r), -1 if t % 2 else 1)
            for t, c in enumerate(twists) for r in rot_steps
        ])

    if layout.tail_dim >= 2:
        d = layout.tail_dim
        tail_elems = []
        for perm in itertools.permutations(range(d)):
            for flips in itertools.product((1, -1), repeat=d):
                local = SignedPerm(perm, flips)
                tail_elems.append((_embed(n, layout.tail_start, local), 1))
        factors.append(tail_elems)

    elements = [LatticeElement(identity_perm(n), 1)]
    for factor in factors:
        elements = [
            LatticeElement(compose_perms(e.perm, p), e.sign * s)
            for e in elements for (p, s) in factor
        ]
    return tuple(elements)


def apply_perm_to_grid(values: np.ndarray, perm: SignedPerm) -> np.ndarray:
    """Compose a grid field with a signed permutation: out(x) = values(g x).

    Requires a grid symmetric about the origin along every axis (odd point
    count), so that flipping a coordinate is exactly an index reversal.
    """
    flip_axes = [a for a, s in enumerate(perm.signs) if s < 0]
    v = np.flip(values, axis=flip_axes) if flip_axes else values
    inv = [0] * perm.n
    for i, src in enumerate(perm.source):
        inv[src] = i
    return np.ascontiguousarray(np.transpose(v, axes=inv))

