"""Sign-equivariant variational solver on masked ball grids.

The continuum functional is J(u) = (1/p) int |grad u|^p |x|^(-a p)
- (1/q) int |u|^q |x|^(-b q), with q tied to (p, a, b) so that both terms
scale identically under u -> lam^gamma u(lam x).  On the grid the kinetic
term averages forward and backward difference stacks, which keeps the p = 2
energy exactly invariant under every signed coordinate permutation and
suppresses checkerboard modes for all p.  Minimization runs inside the cone
of fields that transform by the sign character under the grid-exact sampling
subgroup: the iterate lives in class coordinates and is never re-projected
on the grid, its field is rescaled onto the discrete Nehari manifold, and
steps are accepted only on strict energy decrease, so the reported energy
history is monotone by construction.  Each gradient is pulled back into the
class by the subgroup's signed average on the coefficient tensor; the grid
``symmetrize`` serves only the seed and the end-of-run certificates.

Sign-changing structure is certified, not assumed: the returned report
exhibits a lattice element of character -1 together with the node where it
forces u(g x) = -u(x) != 0.  Configurations whose sampling subgroup has no
character -1 element (pinwheel level >= 1 with no blocks: the sign-reversing
steps are not signed permutations) are rejected up front rather than solved
without a certificate.

Rotation angles finer than quarter turns act exactly on a class's
Catmull-Rom profile inside each rotation plane, but not on an active
orthogonal tail; the tail's off-lattice defect enters a reported bias, never
the projection.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .grid import (
    BallGrid,
    backward_diffs,
    field_from_function,
    forward_diffs,
    read_arrays,
    write_arrays,
)
from .kvdoc import format_kv, format_value
from .lattice import SignedPerm, apply_perm_to_grid, lattice_subgroup
from .symmetry import (
    SymmetryConfig,
    config_to_pairs,
    make_layout,
    random_element,
    stabilizer_witness,
)

CHECKPOINT_FORMAT = "cknsym-checkpoint"
CHECKPOINT_VERSION = 2

# line search: smallest trial step relative to the step cap, halvings per
# step, and the growth of a spectral step whose curvature test fails
MIN_STEP = 1e-10
MAX_BACKTRACKS = 40
STEP_GROWTH = 1.25
INTERPOLATED_SAMPLES = 8  # random full-group elements in the bias diagnostic
REDUCED_REFINE = 4  # profile table step of the reduced level: grid step / 4
KINETIC_EPS = 1e-8  # kinetic-density regularisation for p != 2


class VariationalError(ValueError):
    pass


class UnsupportedConfigError(VariationalError):
    """The requested configuration cannot be certified on this discretization."""


@dataclass(frozen=True)
class ProblemParams:
    """Exponents of the weighted functional; q is derived unless overridden."""

    n: int
    p: float = 2.0
    a: float = 0.0
    b: float = 0.0
    q: float | None = None

    def __post_init__(self) -> None:
        if not 1.0 < self.p < self.n:
            raise VariationalError(f"need 1 < p < n, got p={self.p}, n={self.n}")
        if not 0.0 <= self.a < (self.n - self.p) / self.p:
            raise VariationalError(
                f"need 0 <= a < (n-p)/p = {(self.n - self.p) / self.p}, got a={self.a}")
        if not self.a <= self.b < self.a + 1.0:
            raise VariationalError(f"need a <= b < a+1, got a={self.a}, b={self.b}")
        if self.q is None:
            object.__setattr__(self, "q", self.critical_exponent)
        if not self.q > self.p:
            raise VariationalError(f"need q > p, got q={self.q}, p={self.p}")

    @property
    def critical_exponent(self) -> float:
        return self.n * self.p / (self.n - self.p * (1.0 + self.a - self.b))

    @property
    def gamma(self) -> float:
        return (self.n - self.p * (1.0 + self.a)) / self.p

    @property
    def grad_weight_exponent(self) -> float:
        return self.a * self.p

    @property
    def potential_weight_exponent(self) -> float:
        return self.b * self.q

    def with_exponent(self, q: float) -> "ProblemParams":
        return ProblemParams(self.n, self.p, self.a, self.b, q)


def params_for_config(cfg: SymmetryConfig, p: float = 2.0,
                      weight_strength: float = 0.3) -> ProblemParams:
    """Regime-consistent default exponents for a configuration's dimension."""
    s = weight_strength
    if not 0 < s < 1:
        raise VariationalError(f"weight_strength must be in (0, 1), got {s}")
    if cfg.regime == "a_eq_b_zero":
        return ProblemParams(cfg.n, p, 0.0, 0.0)
    cap = (cfg.n - p) / p
    if cfg.regime == "a_eq_b_nonzero":
        ab = s * min(1.0, cap / 2.0)
        return ProblemParams(cfg.n, p, ab, ab)
    return ProblemParams(cfg.n, p, 0.0, s)


@dataclass(frozen=True)
class SolveOptions:
    """The solver's settings.  Every field except ``checkpoint_path`` is also
    a ``cknsym solve`` key, with the default given here."""

    max_iters: int = 400
    tol: float = 1e-5  # relative first-variation tolerance, dimensionless
    initial_step: float = 0.2  # relative displacement per accepted step
    subcritical_shift: float = 0.5
    seed_offset: float = 0.55
    seed_width: float = 0.18
    checkpoint_path: str | None = None
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        # written as "not 0 < x < inf" so that NaN is refused too
        for name in ("tol", "initial_step", "subcritical_shift", "seed_width"):
            if not 0 < getattr(self, name) < math.inf:
                raise VariationalError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("max_iters", "checkpoint_every"):
            if not getattr(self, name) >= 0:
                raise VariationalError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not math.isfinite(self.seed_offset):
            raise VariationalError(f"seed_offset must be finite, got {self.seed_offset}")


class DiscreteEnergy:
    """J and its exact discrete gradient on a masked ball grid.

    The kinetic density is psi(g) = (|g|^2 + eps^2)^(p/2) - eps^p with
    eps = 0 for p = 2 and KINETIC_EPS otherwise, so the density
    vanishes at zero gradient and stays differentiable at p < 2.  Gradients
    are assembled with the exact difference adjoints and are zero off the
    interior mask, making them true derivatives of the discrete value:
    finite-difference tests hold to square-root machine precision.

    ``evaluate`` is the one energy pass: one build of the difference stacks
    on the interior nodes (through the grid's neighbour tables) yields K, B
    and both node gradients as interior vectors; the other methods are
    views, and ``gradient`` scatters its vector onto the grid.  ``kinetic``
    keeps the roll stencils over the whole cube as the reference the
    interior pass reproduces bit for bit.
    """

    def __init__(self, grid: BallGrid, params: ProblemParams):
        if params.n != grid.n:
            raise VariationalError(f"params dimension {params.n} != grid dimension {grid.n}")
        self.grid = grid
        self.params = params
        self.eps = 0.0 if params.p == 2.0 else KINETIC_EPS

    @cached_property
    def _w_grad(self) -> np.ndarray:
        return self.grid.weight_values(self.params.grad_weight_exponent) * self.grid.mask_f

    @cached_property
    def _w_grad_in(self) -> np.ndarray:
        return self.grid.weight_values(self.params.grad_weight_exponent).take(self.grid.interior)

    @cached_property
    def _w_pot_in(self) -> np.ndarray:
        return self.grid.weight_values(self.params.potential_weight_exponent).take(
            self.grid.interior)

    @cached_property
    def _cube(self) -> np.ndarray:
        return np.zeros(self.grid.shape)

    def _cube_sum(self, values: np.ndarray) -> np.float64:
        """np.sum of the cube holding values on the interior and 0 elsewhere.

        The sum runs over the whole cube, not the interior vector, because
        numpy's pairwise summation order depends on where the terms sit:
        this keeps K and B bit-identical to the full-cube sums of the roll
        stencils.  The cube's off-interior zeros are never written.
        """
        self._cube.reshape(-1)[self.grid.interior] = values
        return np.sum(self._cube)

    def _to_cube(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.shape)
        out.reshape(-1)[self.grid.interior] = values
        return out

    def _psi(self, sq: np.ndarray) -> np.ndarray:
        p = self.params.p
        if self.eps == 0.0:  # p == 2
            return sq
        return (sq + self.eps ** 2) ** (p / 2.0) - self.eps ** p

    def _sigma(self, sq: np.ndarray) -> np.ndarray:
        # d psi / d sq, times 2: the vector factor in the kinetic gradient
        p = self.params.p
        if self.eps == 0.0:  # p == 2
            return np.ones_like(sq)
        return (sq + self.eps ** 2) ** ((p - 2.0) / 2.0)

    def _stacks(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """Masked field, forward and backward stacks over the whole cube by
        the roll stencils, and their nodewise |.|^2: the reference."""
        g = self.grid
        u = u * g.mask_f  # off-ball values are gauge: the form reads zeros there
        fw = forward_diffs(g, u)
        bw = backward_diffs(g, u)
        return u, fw, bw, np.sum(fw * fw, axis=0), np.sum(bw * bw, axis=0)

    def _interior_stacks(self, u: np.ndarray) -> tuple[np.ndarray, ...]:
        """The interior values of u with a zero sentinel appended (length
        M + 1), the forward and backward stacks (n, M) and their |.|^2.

        Every neighbour off the interior reads the sentinel, which is what
        the masked field holds there, so each entry is the roll stencil's
        value at that node, in the same operation order.
        """
        g = self.grid
        fwd, bwd = g.neighbours
        ue = np.zeros(fwd.shape[1] + 1)
        uv = ue[:-1]
        np.reshape(u, g.shape).take(g.interior, out=uv, mode="clip")
        fw = (ue.take(fwd) - uv) / g.h
        bw = (uv - ue.take(bwd)) / g.h
        return ue, fw, bw, np.sum(fw * fw, axis=0), np.sum(bw * bw, axis=0)

    def _kinetic(self, sf: np.ndarray, sb: np.ndarray) -> float:
        """K from the interior squared norms."""
        dens = self._psi(sf) + self._psi(sb)
        return float(0.5 * self.grid.cell_volume * self._cube_sum(self._w_grad_in * dens))

    def _potential(self, uv: np.ndarray) -> float:
        """B from the interior values."""
        q = self.params.q
        return float(self.grid.cell_volume * self._cube_sum(self._w_pot_in * np.abs(uv) ** q))

    def evaluate(self, u: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(K, B, dK/du, dB/du) from one build of the interior difference stacks;
        the gradients are interior vectors (length M, in ``grid.interior``
        order), as both vanish off the interior."""
        g = self.grid
        q = self.params.q
        fwd, bwd = g.neighbours
        ue, fw, bw, sf, sb = self._interior_stacks(u)
        uv = ue[:-1]
        wf = self._sigma(sf) * self._w_grad_in
        wb = self._sigma(sb) * self._w_grad_in
        gk_f = np.zeros(uv.shape)
        gk_b = np.zeros(uv.shape)
        te = np.zeros(ue.shape)  # one weighted axis, with the zero sentinel
        t = te[:-1]
        for i in range(g.n):  # the difference adjoints, one weighted axis at a time
            np.multiply(wf, fw[i], out=t)
            gk_f += (te.take(bwd[i]) - t) / g.h
            np.multiply(wb, bw[i], out=t)
            gk_b += (t - te.take(fwd[i])) / g.h
        del fw, bw, wf, wb, te, t  # spent: the rest of the pass reads only uv, sf and sb
        gk = gk_f + gk_b
        gk *= 0.5 * self.params.p * g.cell_volume
        # |u|^(q-2) u reads 0 at u = 0 for every q: 0 ** (q - 2) is inf for q < 2
        gb = q * g.cell_volume * self._w_pot_in * np.power(
            np.abs(uv), q - 2.0, out=np.ones(uv.shape), where=uv != 0.0) * uv
        return self._kinetic(sf, sb), self._potential(uv), gk, gb

    def kinetic(self, u: np.ndarray) -> float:
        _, _, _, sf, sb = self._stacks(u)
        dens = self._psi(sf) + self._psi(sb)
        return float(0.5 * self.grid.cell_volume * np.sum(self._w_grad * dens))

    def potential(self, u: np.ndarray) -> float:
        return self._potential(np.reshape(u, self.grid.shape).take(self.grid.interior))

    def value(self, u: np.ndarray) -> float:
        return self.kinetic(u) / self.params.p - self.potential(u) / self.params.q

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """d value / d node as a grid field, exactly; vanishes off the interior mask."""
        _, _, gk, gb = self.evaluate(u)
        return self._to_cube(gk / self.params.p - gb / self.params.q)

    def quotient(self, u: np.ndarray) -> float:
        """Scale-invariant ratio K / B^(p/q); its minimizers are the Nehari ones."""
        k = self.kinetic(u)
        b = self.potential(u)
        if not (k > 0 and b > 0):
            raise VariationalError("quotient needs a nonzero field inside the ball")
        return k / b ** (self.params.p / self.params.q)

    def quotient_and_gradient(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """The quotient and its node gradient, an interior vector, from one energy pass."""
        k, b, gk, gb = self.evaluate(u)
        if not (k > 0 and b > 0):
            raise VariationalError("quotient needs a nonzero field inside the ball")
        r = self.params.p / self.params.q
        return k / b ** r, (gk - r * (k / b) * gb) / b ** r

    def level_from_quotient(self, quotient: float) -> float:
        """J value on the Nehari manifold along the ray realizing the quotient."""
        p, q = self.params.p, self.params.q
        try:
            return (1.0 / p - 1.0 / q) * quotient ** (q / (q - p))
        except OverflowError:  # a float power raises where a product reads inf
            return math.inf

    def nehari_scale(self, u: np.ndarray) -> float:
        """t > 0 with d/dt J(t u) = 0; closed form polished by Newton when eps > 0.

        The polish works on the precomputed interior squared difference
        stacks, so each iteration is elementwise arithmetic, not a gradient
        assembly.
        """
        g = self.grid
        ue, _, _, sf, sb = self._interior_stacks(u)
        k = self._kinetic(sf, sb)
        b = self._potential(ue[:-1])
        if not (k > 0 and b > 0):
            raise VariationalError("Nehari scaling needs a nonzero field inside the ball")
        p, q = self.params.p, self.params.q
        try:
            t = (k / b) ** (1.0 / (q - p))
        except OverflowError:  # a float power raises where a product reads inf
            return math.inf
        if self.eps == 0.0:
            return float(t)
        e2 = self.eps ** 2

        def slope(tv: float) -> float:
            kf = (tv * tv * sf + e2) ** ((p - 2.0) / 2.0) * sf
            kb = (tv * tv * sb + e2) ** ((p - 2.0) / 2.0) * sb
            kin = 0.5 * g.cell_volume * float(self._cube_sum(self._w_grad_in * (kf + kb)))
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

    def nehari_project(self, u: np.ndarray) -> np.ndarray:
        return self.nehari_scale(u) * u


# --------------------------------------------------------------------------
# symmetrization and certificates


def symmetrize(values: np.ndarray, cfg: SymmetryConfig, grid: BallGrid) -> np.ndarray:
    """Average sign(g) * u(g x) over the sampling subgroup: an exact projection."""
    elements = lattice_subgroup(cfg)
    acc = np.zeros(grid.shape)
    for e in elements:
        moved = apply_perm_to_grid(values, e.perm)
        if e.sign > 0:
            acc += moved
        else:
            acc -= moved
    return acc / len(elements)


def _catmull_rom_matrix(t: np.ndarray, size: int, radial: bool) -> np.ndarray:
    """Row i: the Catmull-Rom (Keys' cubic convolution) weights that read a
    unit-step table of ``size`` samples at position t[i], in table steps.  A
    radial table reflects its indices through zero; others are zero past the ends."""
    base = np.floor(t).astype(np.intp)
    f = t - base
    f2 = f * f
    f3 = f2 * f
    weights = np.empty((t.size, 4))  # one row per position, stencil offsets -1, 0, 1, 2
    weights[:, 0] = -0.5 * f3 + f2 - 0.5 * f
    weights[:, 1] = 1.5 * f3 - 2.5 * f2 + 1.0
    weights[:, 2] = -1.5 * f3 + 2.0 * f2 + 0.5 * f
    weights[:, 3] = 0.5 * f3 - 0.5 * f2
    del f, f2, f3
    idx = base[:, None] + np.arange(-1, 3)
    del base
    if radial:
        np.abs(idx, out=idx)
    weights[(idx < 0) | (idx >= size)] = 0.0
    np.clip(idx, 0, size - 1, out=idx)
    idx += np.arange(0, t.size * size, size)[:, None]  # flat index into the (t.size, size) rows
    # bincount adds each bin's weights in input order, offsets ascending
    # within a row, so every entry is summed as four per-offset passes would
    return np.bincount(idx.ravel(), weights.ravel(), minlength=t.size * size).reshape(t.size, size)


@functools.cache
def _plane_profile_basis(points_per_axis: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis Q (N^2 x r) of the circle-invariant 2-plane slices
    and the table factor A (n_rad x r) with Q = B A.

    A slice is circle-invariant when its node values depend only on the
    plane radius.  The admissible radial profiles are cubic interpolants of
    a table with step h (reflected evenly through zero), evaluated at each
    node's plane radius; stacking those evaluations gives a tall matrix B,
    and Q is its left singular vectors with singular values above 1e-6 of
    the largest.  Q Q^T is the least-squares projector onto the profiles,
    the discrete circle average in the node inner product.  A = V_k S_k^-1,
    so the profile of Q c interpolates the radial table A c.  Cached per
    axis geometry.
    """
    npts = points_per_axis
    h = 2.0 * radius / (npts - 1)
    axis = -radius + h * np.arange(npts)
    n_rad = int(math.ceil(math.sqrt(2.0) * radius / h)) + 4
    basis = _catmull_rom_matrix(np.hypot(axis[:, None], axis[None, :]).ravel() / h,
                                n_rad, radial=True)
    left, sing, right_t = np.linalg.svd(basis, full_matrices=False)
    keep = sing > 1e-6 * sing[0]
    return left[:, keep], right_t[keep].T / sing[keep]


# --------------------------------------------------------------------------
# class coordinates: a class field is E c, where E contracts each rotation
# plane's axis of c with Q; the planes are the coordinate pairs (0, 1), (2, 3),
# ... ahead of the tail.  E is orthonormal, and lattice elements carry planes
# onto planes keeping plane radii, so each element g acting on the grid
# satisfies g E = E R_g for a signed permutation R_g of the tensor's axes:
# E^T symmetrize = (signed average of R_g) E^T, an average on the tensor.


def _class_basis(cfg: SymmetryConfig, grid: BallGrid) -> tuple[np.ndarray, int]:
    """The plane profile basis Q and the number of rotation planes."""
    return (_plane_profile_basis(grid.points_per_axis, grid.radius)[0],
            make_layout(cfg).tail_start // 2)


@functools.cache
def _tensor_action(cfg: SymmetryConfig, planes: int) -> tuple[tuple[SignedPerm, float], ...]:
    """The sampling subgroup's signed average as it acts on class
    coefficients: pairs (R, w) with sum_R w R c = E^T symmetrize(E c).

    Element g carries plane k onto plane source[2k] // 2, unsigned (Q rows
    depend only on the plane radius), and tail axis j onto tail axis
    source[j] with sign signs[j].  Elements inducing the same R are merged,
    w summing their characters over the group order; R with w = 0 are
    dropped, so a {0} class has no pairs.  VariationalError if an element
    splits a rotation plane.
    """
    elements = lattice_subgroup(cfg)
    weights: dict[SignedPerm, int] = {}
    for e in elements:
        src, sgn = e.perm.source, e.perm.signs
        pairs = [sorted(src[2 * k:2 * k + 2]) for k in range(planes)]
        # planes onto planes; the permutation then keeps the tail on the tail
        if any(lo % 2 or hi != lo + 1 or hi >= 2 * planes for lo, hi in pairs):
            raise VariationalError(f"lattice element {e.perm} splits a rotation plane of {cfg}")
        perm = SignedPerm(tuple(lo // 2 for lo, _ in pairs)
                          + tuple(s - planes for s in src[2 * planes:]),
                          (1,) * planes + sgn[2 * planes:])
        weights[perm] = weights.get(perm, 0) + e.sign
    return tuple((perm, w / len(elements)) for perm, w in weights.items() if w)


def _tensor_average(coefficients: np.ndarray, cfg: SymmetryConfig, planes: int) -> np.ndarray:
    """The sampling subgroup's signed average applied to class coefficients."""
    acc = np.zeros(coefficients.shape)
    for perm, w in _tensor_action(cfg, planes):
        acc += w * apply_perm_to_grid(coefficients, perm)
    return acc


def _contract_planes(t: np.ndarray, m: np.ndarray, planes: int) -> np.ndarray:
    """Contract each leading plane axis of t with m's second axis, last plane
    first; each result axis goes in front, so the axes keep their order."""
    for _ in range(planes):
        t = np.tensordot(m, t, axes=([1], [planes - 1]))
    return t


def class_shape(cfg: SymmetryConfig, grid: BallGrid) -> tuple[int, ...]:
    """Shape of a class-coefficient tensor: r per rotation plane, N per tail axis."""
    q, planes = _class_basis(cfg, grid)
    return (q.shape[1],) * planes + (grid.points_per_axis,) * (grid.n - 2 * planes)


def class_field(coefficients: np.ndarray, cfg: SymmetryConfig, grid: BallGrid) -> np.ndarray:
    """The grid field E c of class coefficients c."""
    q, planes = _class_basis(cfg, grid)
    return _contract_planes(coefficients, q, planes).reshape(grid.shape)


def class_coefficients(values: np.ndarray, cfg: SymmetryConfig, grid: BallGrid) -> np.ndarray:
    """The coefficients of u's orthogonal projection onto the class.

    E^T symmetrize(u) in exact arithmetic, computed as E^T u followed by the
    sampling subgroup's signed average on the coefficient tensor, so no
    grid-sized copy of u is permuted.
    """
    q, planes = _class_basis(cfg, grid)
    npts = grid.points_per_axis
    split = (npts * npts,) * planes + (npts,) * (grid.n - 2 * planes)
    return _tensor_average(_contract_planes(np.reshape(values, split), q.T, planes), cfg, planes)


def _axis_weights(grid: BallGrid, x: np.ndarray, plane: bool) -> np.ndarray:
    """Row i reads one axis of class coefficients at x[i]: a plane radius
    through the radial table factor A, or a tail coordinate off its grid line."""
    if plane:
        table = _plane_profile_basis(grid.points_per_axis, grid.radius)[1]
        return _catmull_rom_matrix(x / grid.h, table.shape[0], radial=True) @ table
    return _catmull_rom_matrix((x + grid.radius) / grid.h, grid.points_per_axis, radial=False)


def _class_profile(coefficients: np.ndarray, grid: BallGrid, rho: np.ndarray,
                   line: np.ndarray) -> np.ndarray:
    """The class field E c on the product of the plane radii rho (one axis per
    rotation plane, its second coordinate 0) and the tail coordinates line."""
    planes = grid.n - coefficients.ndim  # c has one axis per plane and per tail axis
    prof = coefficients
    for ax in range(coefficients.ndim):  # each contraction moves the read axis last
        w = _axis_weights(grid, rho if ax < planes else line, ax < planes)
        prof = np.tensordot(prof, w, axes=([0], [1]))
    return prof


def _table_derivative(f: np.ndarray, axis: int, h: float, even_start: bool) -> np.ndarray:
    """Fourth-order central derivative on a half-step-offset uniform table.

    even_start reflects the two leading samples through zero (a radius axis
    of an angle-averaged field is even in the signed radius); otherwise both
    ends continue with zeros, matching fields that decay inside the table.
    """
    arr = np.moveaxis(f, axis, 0)
    zeros = np.zeros((2,) + arr.shape[1:])
    front = arr[1::-1] if even_start else zeros
    g = np.concatenate([front, arr, zeros], axis=0)
    out = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def reduced_level_estimate(coefficients: np.ndarray, cfg: SymmetryConfig, grid: BallGrid,
                           params: ProblemParams) -> float:
    """Nehari level of the class field E c re-quadratured through the rotation reduction.

    A class field depends only on one radius per rotation plane plus the
    tail coordinates, so its energy reduces to an integral over that
    low-dimensional profile with a product-of-radii Jacobian.  The class's
    own Catmull-Rom profile is read off c on a table REDUCED_REFINE times
    finer than the grid, differentiated with fourth-order stencils, rescaled
    onto the Nehari manifold of the re-quadratured functional, and its level
    (1/p - 1/q) * kinetic is returned.  Far less quadrature error than the
    cube-grid level when the minimizer has features a few cells wide.

    The Nehari rescale raises the kinetic/potential ratio to the power
    p/(q - p), so on grids too coarse to resolve the profile (or with q
    close to p) the estimate degrades much faster than the cube-grid level;
    treat it as a refinement-study diagnostic, not a certified value.
    """
    planes = make_layout(cfg).tail_start // 2
    h_f = grid.h / REDUCED_REFINE
    n_r = int(math.ceil(grid.radius / h_f))
    rho = (np.arange(n_r) + 0.5) * h_f
    line = -grid.radius + (np.arange(2 * n_r) + 0.5) * h_f
    prof = _class_profile(coefficients, grid, rho, line)
    mesh = np.meshgrid(*([rho] * planes + [line] * (grid.n - 2 * planes)),
                       indexing="ij", sparse=True)

    grad_sq = sum(_table_derivative(prof, ax, h_f, even_start=ax < planes) ** 2
                  for ax in range(prof.ndim))
    radius_sq = sum(m * m for m in mesh)
    jac = np.where(radius_sq <= grid.radius * grid.radius, math.prod(mesh[:planes]), 0.0)
    r = np.sqrt(radius_sq)
    w_grad = jac * r ** params.grad_weight_exponent  # r ** 0.0 is exactly 1
    w_pot = jac * r ** params.potential_weight_exponent
    cell = (2.0 * math.pi) ** planes * h_f ** prof.ndim
    p, q = params.p, params.q
    kin = cell * float(np.sum(grad_sq ** (p / 2.0) * w_grad))
    pot = cell * float(np.sum(np.abs(prof) ** q * w_pot))
    if pot <= 0.0 or kin <= 0.0:
        raise VariationalError("reduced quadrature degenerate: a profile integral reads 0 "
                               "(a zero profile, or one that underflows)")
    try:
        t = (kin / pot) ** (1.0 / (q - p))
        return (1.0 / p - 1.0 / q) * t ** p * kin
    except OverflowError:  # a float power raises where a product reads inf
        return math.inf


def equivariance_residual(values: np.ndarray, cfg: SymmetryConfig) -> float:
    """Worst |u(g x) - sign(g) u(x)| over sampling elements, relative to sup |u|."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    worst = 0.0
    for e in lattice_subgroup(cfg):
        moved = apply_perm_to_grid(values, e.perm)
        worst = max(worst, float(np.max(np.abs(moved - e.sign * values))))
    return worst / peak


def interpolated_equivariance_bias(coefficients: np.ndarray, cfg: SymmetryConfig,
                                   grid: BallGrid) -> float:
    """Worst |E c(g x) - phi(g) E c(x)| / sup |E c| over interior nodes x and
    INTERPOLATED_SAMPLES seeded random full-group elements g, for in-class c.

    At alpha = 0, g moves plane radii only by the plane permutation of its
    twists, as the lattice element with the same twists and character does;
    c is fixed by the sampling subgroup's average, and a class profile is
    invariant under rotations inside each plane.  So with R the tail rotation
    of g, E c(g x) - phi(g) E c(x) = phi(g) (E T_R c - E c)(x), where T_R c
    reads the tail axes of c at R x_tail: exactly 0 without an active tail,
    else the off-lattice defect of the tail, which the class samples only on
    the lattice.  VariationalError at alpha > 0: pinwheel steps mix planes.
    """
    if cfg.alpha > 0:
        raise VariationalError(f"the interpolated bias needs alpha = 0, got {cfg.alpha}")
    if not cfg.tail_active:
        return 0.0
    peak = float(np.max(np.abs(class_field(coefficients, cfg, grid))))
    if peak == 0.0:
        return 0.0
    d = cfg.tail_dim
    flat = coefficients.reshape(coefficients.shape[:-d] + (-1,))  # the tail axes as one
    nodes = np.indices((grid.points_per_axis,) * d).reshape(d, -1).T * grid.h - grid.radius
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(INTERPOLATED_SAMPLES):
        rows = np.ones((len(nodes), 1))  # row k reads the tail of c at R times tail node k
        for x in (nodes @ random_element(cfg, rng).tail.T).T:
            rows = (rows[:, :, None] * _axis_weights(grid, x, False)[:, None]).reshape(len(x), -1)
        moved = (flat @ rows.T).reshape(coefficients.shape)
        diff = class_field(moved - coefficients, cfg, grid).take(grid.interior)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst / peak


@dataclass(frozen=True)
class SignCertificate:
    """A node and a character -1 sampling element exhibiting the sign change.

    ``antisymmetry_residual`` is max |u(g x) + u(x)| over nodes divided by
    sup |u|, so it is comparable across solution amplitudes.
    """

    node_index: tuple[int, ...]
    value: float
    mapped_value: float
    element_sign: int
    antisymmetry_residual: float
    max_value: float
    min_value: float

    @property
    def certifies_sign_change(self) -> bool:
        return (self.element_sign == -1
                and self.value != 0.0
                and self.max_value > 0.0 > self.min_value)


def sign_certificate(values: np.ndarray, cfg: SymmetryConfig) -> SignCertificate:
    flips = [e for e in lattice_subgroup(cfg) if e.sign == -1]
    if not flips:
        raise UnsupportedConfigError(
            "sampling subgroup has no sign-reversing element; a sign change "
            "cannot be certified on this grid")
    e = flips[0]
    idx = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    moved = apply_perm_to_grid(values, e.perm)
    peak = float(np.max(np.abs(values)))
    return SignCertificate(
        node_index=tuple(int(i) for i in idx),
        value=float(values[idx]),
        mapped_value=float(moved[idx]),
        element_sign=e.sign,
        antisymmetry_residual=float(np.max(np.abs(moved + values))) / max(peak, 1e-300),
        max_value=float(values.max()),
        min_value=float(values.min()),
    )


# --------------------------------------------------------------------------
# seeding


def seed_field(cfg: SymmetryConfig, grid: BallGrid,
               offset: float = SolveOptions.seed_offset,
               width: float = SolveOptions.seed_width) -> np.ndarray:
    """Symmetrized Gaussian bump along the stabilizer witness direction.

    The witness is fixed only by character +1 elements, so the signed
    average cannot cancel the bump at its own center.
    """
    w = stabilizer_witness(cfg)
    w = w / np.linalg.norm(w)
    center = offset * grid.radius * w

    def bump(pts: np.ndarray) -> np.ndarray:
        d2 = np.sum((pts - center) ** 2, axis=1)
        return np.exp(-d2 / (2.0 * (width * grid.radius) ** 2))

    u = field_from_function(grid, bump)
    u = symmetrize(u, cfg, grid)
    peak = float(np.max(np.abs(u)))
    if peak <= 0.0:
        raise VariationalError("symmetrized seed vanished; widen the bump or move its center")
    return u / peak


# --------------------------------------------------------------------------
# the solver


@dataclass(frozen=True)
class SolveReport:
    config: SymmetryConfig
    params: ProblemParams
    solver_exponent: float
    grid_points: int
    converged: bool
    stop_reason: str
    iterations: int
    energy: float
    level: float
    level_estimate: float
    kinetic: float
    potential: float
    nehari_residual: float
    grad_norm: float
    relative_residual: float
    min_relative_residual: float
    equivariance: float
    interpolated_bias: float
    symmetrization_gap: float
    certificate: SignCertificate
    energy_history: tuple[float, ...]
    field: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def monotone(self) -> bool:
        h = self.energy_history
        return all(h[i + 1] < h[i] for i in range(len(h) - 1))


def report_to_doc(report: SolveReport) -> str:
    """The config and exponents, one line per scalar report field (key: the
    field name with spaces), then the sign certificate."""
    cert = report.certificate
    pairs = config_to_pairs(report.config, report.config.regime)
    pairs.update((key, format_value(getattr(report.params, key))) for key in ("p", "a", "b", "q"))
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, (int, float, str)):
            pairs[f.name.replace("_", " ")] = format_value(value)
    pairs.update({
        "sign max": format_value(cert.max_value),
        "sign min": format_value(cert.min_value),
        "sign residual": format_value(cert.antisymmetry_residual),
        "sign certified": format_value(cert.certifies_sign_change),
    })
    return format_kv(pairs)


def _save_checkpoint(path: str | Path, cfg: SymmetryConfig, grid: BallGrid,
                     solver_exponent: float, iteration: int, step: float,
                     c: np.ndarray, history: list[float],
                     prev_c: np.ndarray | None = None,
                     prev_d: np.ndarray | None = None) -> None:
    # the spectral-step memory is part of the solver state: restoring it
    # makes a resumed run retrace the uninterrupted trajectory
    arrays = [c] if prev_c is None else [c, prev_c, prev_d]
    write_arrays(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, grid, arrays,
                 alpha=cfg.alpha, m=list(cfg.m), regime=cfg.regime,
                 solver_exponent=solver_exponent, iteration=iteration, step=step,
                 history=[float(v) for v in history])


def load_checkpoint(path: str | Path) -> dict:
    """A checkpoint's solver state; VariationalError if the file is malformed,
    its grid cannot fit or its coefficients are not of the class shape."""
    try:
        header, grid, arrays = read_arrays(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                                           counts=(1, 3))
        cfg = SymmetryConfig(grid.n, header["alpha"], tuple(header["m"]),
                             regime=header["regime"])
        state = {"solver_exponent": float(header["solver_exponent"]),
                 "iteration": int(header["iteration"]), "step": float(header["step"]),
                 "history": [float(v) for v in header["history"]]}
    except (KeyError, TypeError, ValueError) as exc:
        raise VariationalError(f"unusable checkpoint {path}: {exc}") from exc
    _refuse_unfit(grid)  # the class shape of a huge grid would not fit either
    if arrays[0].shape != class_shape(cfg, grid):
        raise VariationalError(f"unusable checkpoint {path}: coefficient shape "
                               f"{arrays[0].shape} is not the class shape {class_shape(cfg, grid)}")
    prev_c, prev_d = (arrays[1], arrays[2]) if len(arrays) == 3 else (None, None)
    return {"config": cfg, "grid": grid, "coefficients": arrays[0],
            "prev_coefficients": prev_c, "prev_direction": prev_d, **state}


def _relative_residual(c: np.ndarray, d: np.ndarray, quot: float) -> float:
    """Dimensionless first-variation size of the quotient at c; d is its in-class gradient."""
    return float(np.sqrt(np.sum(d * d) * np.sum(c * c)) / quot)


def _interior_count_bound(grid: BallGrid) -> int:
    """Nodes k with |k|^2 <= ((N - 1) / 2)^2 in index units: the interior
    count plus the sphere's own nodes, which rounding may leave out, counted
    through the distribution of |k|^2 without building the mask.  Past 257
    points per axis (a 4-D cube array alone is then 35 GB) N^n stands in."""
    half = (grid.points_per_axis - 1) // 2
    if half > 128:
        return math.prod(grid.shape)
    top = half * half
    counts = np.zeros(top + 1, dtype=np.int64)
    counts[0] = 1
    for _ in range(grid.n):  # add one axis: shift the distribution by each k^2
        nxt = np.zeros_like(counts)
        for k in range(-half, half + 1):
            nxt[k * k:] += counts[:top + 1 - k * k]
        counts = nxt
    return int(counts.sum())


def solve_peak_bytes(grid: BallGrid) -> int:
    """An upper bound on the bytes a solve holds at its peak.

    Counted from the code in grid arrays of N^n floats, interior vectors of
    M = ``_interior_count_bound`` entries and reduced-level profile tables,
    with the boolean mask counted as a full array and an index as a float:
    - the grid's coordinates, radii, mask and float mask: n + 3 arrays; its
      interior indices and neighbour tables: (2n + 1) M;
    - the energy's two interior weights, 2 M, and its summation array: 1;
    - the solver: the iterate's field and its Nehari rescaling at the end;
      in the descent, a trial's field, or the pull-back's scattered gradient
      and the transposed copy its plane contraction makes: 2;
    - the largest of three stages:
      - the end-of-run certificates: the symmetrization gap and the
        equivariance residual hold 3 arrays each, the interpolated bias at
        most 2 and 2 M (a class field, its contraction's temporaries);
      - the reduced level estimate: 10 profile tables of n_r^2 (2 n_r)^(n - 4)
        entries, n_r = 2(N - 1) (two rotation planes, the fewest any
        accepted class averages);
      - a line-search trial's energy pass, on interior vectors only: its
        stacks, temporaries, two gradients and the quotient gradient's
        temporaries peak at (2n + 10) M;
    - the seven class-coefficient tensors (c, d, their previous values, the
      trial, s, y; at most N^(n-2) entries each) and the plane tables fit in
      the mask's unused 7/8; the lattice subgroup (38 KB for (6, 0, (1, 0)))
      and the other caches in a fixed 64 KiB.
    The other stages (seeding, class maps) peak lower.  A whole solve traced
    with tracemalloc, after numpy.random's first-use import, peaks at 0.93
    of this bound at 13^4, 0.94 at 21^4, 0.92 to 0.94 at 7^5 to 11^5, 0.92
    at 5^6 and 7^6, and 0.95 (0.54 GiB) at 13^6.
    """
    cube = math.prod(grid.shape)
    inside = _interior_count_bound(grid)
    n_r = int(math.ceil(grid.radius / (grid.h / REDUCED_REFINE)))  # as reduced_level_estimate
    tables = n_r ** 2 * (2 * n_r) ** max(grid.n - 4, 0)
    stage = max(3 * cube, 10 * tables, (2 * grid.n + 10) * inside)
    return ((grid.n + 6) * cube + (2 * grid.n + 3) * inside + stage) * 8 + 2 ** 16


def _refuse_unfit(grid: BallGrid) -> None:
    """VariationalError when ``solve_peak_bytes`` exceeds physical memory."""
    need = solve_peak_bytes(grid)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise VariationalError(
            f"a solve on {grid.points_per_axis}^{grid.n} nodes needs about {need / 2 ** 30:.3g} "
            f"GiB, more than the {have / 2 ** 30:.3g} GiB of physical memory")


def solve(cfg: SymmetryConfig, grid: BallGrid, params: ProblemParams | None = None,
          options: SolveOptions = SolveOptions(),
          resume_from: str | Path | None = None) -> SolveReport:
    """Minimize J over the sign-equivariant cone on the Nehari manifold.

    The iteration descends the scale-invariant quotient K / B^(p/q) on
    sup-normalized fields; along each ray the quotient determines the Nehari
    energy through a strictly increasing map, so the recorded energy history
    is the (monotone) sequence of Nehari levels of the iterates.  Working on
    normalized fields sidesteps the large Nehari amplitudes that appear when
    the solver exponent sits close to p.  The returned field is the final
    iterate rescaled onto the Nehari manifold.

    The iterate lives in the coordinates of the working class, the range of
    the circle averages over all rotation planes and the exact lattice
    symmetrization: the iterate, direction, spectral-step memory and
    checkpoint are class coefficients, a grid field is built only for each
    trial's energy pass, and the iterate is never re-projected on the grid.
    The circle averages keep minimizing sequences inside the
    rotation-invariant profiles the continuum symmetry demands; without them
    a coarse lattice admits spurious isolated concentration bumps whose
    discrete energy undercuts the symmetric level and drifts under
    refinement.  The level estimate reads the final coefficients through the
    class's own profile and the interpolated bias reads their tail factor;
    neither resamples the grid field.

    Each line-search trial costs one energy pass, which yields its quotient
    and, if accepted, the next gradient as an interior vector.  That vector
    is scattered onto the grid once and pulled back into the class by E^T
    and the sampling subgroup's signed average on the coefficient tensor
    (``class_coefficients``); the grid ``symmetrize`` runs only on the seed
    and for the end-of-run symmetrization gap.  A class that projects the seed
    below 1e-8 of its peak is {0} (the circle averages force f = -f on a
    block of odd complex width) and is refused as unsupported.  A grid
    whose ``solve_peak_bytes`` exceed physical memory is refused before
    anything is allocated.  A candidate whose sign change is not certified
    or whose equivariance residual exceeds 1e-8 is refused, not reported.

    Deterministic: the seed is closed-form, the loop draws no randomness,
    and reruns with identical inputs produce identical reports.  The solver
    exponent is the critical one minus ``subcritical_shift``; the reported
    level uses the solver exponent.
    """
    if params is None:
        params = params_for_config(cfg)
    if params.n != cfg.n or params.n != grid.n:
        raise VariationalError("config, params, and grid dimensions disagree")
    _refuse_unfit(grid)
    if not any(e.sign == -1 for e in lattice_subgroup(cfg)):
        raise UnsupportedConfigError(
            "no sign-reversing sampling element exists for this configuration "
            "(pinwheel-only symmetry reverses sign off the grid lattice); "
            "a sign-changing minimizer cannot be certified on a cube grid")
    q_solver = params.q - options.subcritical_shift
    if q_solver <= params.p:
        raise VariationalError(
            f"subcritical shift {options.subcritical_shift} pushes the exponent "
            f"below p: {q_solver} <= {params.p}")
    work = params.with_exponent(q_solver)
    energy = DiscreteEnergy(grid, work)

    if resume_from is not None:
        state = load_checkpoint(resume_from)
        if state["config"] != cfg or state["grid"] != grid:
            raise VariationalError("checkpoint does not match the requested problem")
        if abs(state["solver_exponent"] - q_solver) > 1e-12:
            raise VariationalError("checkpoint was produced with a different exponent")
        c = state["coefficients"]
        if float(np.max(np.abs(c))) == 0.0:
            raise VariationalError("checkpoint field vanishes")
        start_iter = state["iteration"]
        step = state["step"]
        history = list(state["history"])
        prev_c, prev_d = state["prev_coefficients"], state["prev_direction"]
    else:
        # the seed is sup-normalized (peak 1) and is not kept
        c = class_coefficients(seed_field(cfg, grid, options.seed_offset, options.seed_width),
                               cfg, grid)
        peak = float(np.max(np.abs(class_field(c, cfg, grid))))
        if peak <= 1e-8:
            raise UnsupportedConfigError(
                f"the working class is {{0}}: projecting the seed onto it (circle "
                f"averages, then lattice symmetrization) leaves {peak:.2g} "
                f"of its peak, so there is no sign-changing candidate to certify")
        c = c / peak
        start_iter = 0
        step = 0.0  # set from the first gradient below
        prev_c = prev_d = None

    # a trial's grid field is built from its sup-normalized coefficients, so
    # the field of a resumed iterate is the one its gradient was taken at
    quot, gv = energy.quotient_and_gradient(class_field(c, cfg, grid))
    if resume_from is None:
        history = [energy.level_from_quotient(quot)]
    # in-class gradient; the residual is measured on it
    d = class_coefficients(energy._to_cube(gv), cfg, grid)
    if step <= 0.0:
        step = options.initial_step * float(np.linalg.norm(c) / np.linalg.norm(d))
    min_rel = math.inf
    rel = math.inf
    stop_reason = "max iterations"
    it = start_iter
    for it in range(start_iter + 1, options.max_iters + 1):
        rel = _relative_residual(c, d, quot)
        min_rel = min(min_rel, rel)
        if rel < options.tol:
            stop_reason = "first variation tolerance"
            it -= 1
            break
        # spectral (Barzilai-Borwein) step with an Armijo safeguard
        if prev_c is not None:
            s = c - prev_c
            y = d - prev_d
            sy = float(np.sum(s * y))
            if sy > 0.0:
                step = float(np.sum(s * s)) / sy
            else:
                step *= STEP_GROWTH
        cap = 10.0 * float(np.linalg.norm(c) / np.linalg.norm(d))
        floor = MIN_STEP * cap
        # clamp: a collapsed spectral step must not skip the line search
        trial_step = min(max(step, floor), cap)
        # d is the orthogonal projection of the quotient gradient onto the
        # class, so the quotient's slope along d is |d|^2
        slope = float(np.sum(d * d))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            if trial_step < floor:
                break
            # step along the in-class direction from the unmoved base point:
            # the trial tends to c as the step shrinks, so backtracking always
            # terminates while the slope is positive
            trial = c - trial_step * d
            peak = float(np.max(np.abs(class_field(trial, cfg, grid))))
            if peak > 0.0:
                trial = trial / peak
                try:
                    val, gv = energy.quotient_and_gradient(class_field(trial, cfg, grid))
                except VariationalError:
                    val = math.inf
                if val < quot - 1e-4 * trial_step * slope:
                    prev_c, prev_d = c, d
                    d = class_coefficients(energy._to_cube(gv), cfg, grid)
                    c, quot, accepted = trial, val, True
                    history.append(energy.level_from_quotient(val))
                    step = trial_step
                    break
            trial_step /= 2.0
        if not accepted:
            stop_reason = "no descent direction at minimal step"
            it -= 1
            break
        if (options.checkpoint_path and options.checkpoint_every
                and it % options.checkpoint_every == 0):
            _save_checkpoint(options.checkpoint_path, cfg, grid, q_solver,
                             it, step, c, history, prev_c, prev_d)

    if options.checkpoint_path:
        _save_checkpoint(options.checkpoint_path, cfg, grid, q_solver,
                         it, step, c, history, prev_c, prev_d)

    del gv  # spent: d holds its class coefficients
    # d is still the in-class quotient gradient at the final iterate
    rel = _relative_residual(c, d, quot)
    min_rel = min(min_rel, rel)
    u = class_field(c, cfg, grid)
    p, q = work.p, work.q
    # on an extreme radius the Nehari amplitude, and with it the energies of
    # w, can leave the float range: such a candidate is refused below, so
    # numpy's overflow warnings are not wanted while it is measured
    with np.errstate(over="ignore", invalid="ignore"):
        w = energy.nehari_project(u) * grid.mask_f
        # one energy pass gives every end-of-run scalar of w
        kin_w, pot_w, grad_w, gb_w = energy.evaluate(w)
        grad_w /= p  # d J / d node, in place: gk / p - gb / q
        grad_w -= gb_w / q
        del gb_w
        grad_norm = float(np.sqrt(energy._cube_sum(grad_w * grad_w) / grid.cell_volume))
        del grad_w
        level_estimate = reduced_level_estimate(c, cfg, grid, work)
    # a Nehari scale of inf or 0 shows as a kinetic and potential of nan or 0
    out_of_range = [name for name, value in (
        ("kinetic", kin_w), ("potential", pot_w), ("level estimate", level_estimate),
        ("energy history", max(history))) if not 0.0 < value < math.inf]
    if not math.isfinite(grad_norm):
        out_of_range.append("gradient norm")
    if out_of_range:
        raise VariationalError(
            f"at radius {grid.radius:g} these values of the candidate are "
            f"not positive finite floats: {', '.join(out_of_range)}; rescale the problem "
            f"to a radius nearer 1")
    sym_gap = float(np.max(np.abs(symmetrize(u, cfg, grid) - u)))
    cert = sign_certificate(w, cfg)
    equivariance = equivariance_residual(u, cfg)
    if not cert.certifies_sign_change or equivariance > 1e-8:
        raise VariationalError(
            f"the candidate breaks the solver's promise: sign change certified "
            f"{format_value(cert.certifies_sign_change)}, equivariance residual "
            f"{equivariance:.3g} (bound 1e-8)")
    converged = stop_reason == "first variation tolerance" or rel < 10 * options.tol
    return SolveReport(
        config=cfg,
        params=params,
        solver_exponent=q_solver,
        grid_points=grid.points_per_axis,
        converged=converged,
        stop_reason=stop_reason,
        iterations=it - start_iter,
        energy=kin_w / p - pot_w / q,
        level=(1.0 / p - 1.0 / q) * kin_w,
        level_estimate=level_estimate,
        kinetic=kin_w,
        potential=pot_w,
        nehari_residual=abs(kin_w - pot_w) / max(kin_w, pot_w),
        grad_norm=grad_norm,
        relative_residual=rel,
        min_relative_residual=min_rel,
        equivariance=equivariance,
        interpolated_bias=interpolated_equivariance_bias(c, cfg, grid),
        symmetrization_gap=sym_gap,
        certificate=cert,
        energy_history=tuple(history),
        field=w,
    )
