"""Sign-equivariant variational solver on masked ball grids.

The continuum functional is J(u) = (1/p) int |grad u|^p |x|^(-a p)
- (1/q) int |u|^q |x|^(-b q), with q tied to (p, a, b) so that both terms
scale identically under u -> lam^gamma u(lam x).  On the grid the kinetic
term averages the densities |g|^p of the forward and backward difference
stacks, which keeps the p = 2 energy exactly invariant under every signed
coordinate permutation and suppresses checkerboard modes for all p; as in
the continuum, K is p-homogeneous and B q-homogeneous, exactly.
Minimization runs inside the cone of fields that transform by the sign
character under the grid-exact sampling subgroup: the iterate lives in
orthonormal class coordinates and is never re-projected on the grid, its
field is rescaled onto the discrete Nehari manifold by the closed-form
scale t^(q - p) = K / B, and steps are accepted only on strict energy
decrease, so the reported energy history is monotone by construction.
Each step is a Sobolev gradient step (Neuberger): the class gradient
preconditioned by the p = 2 kinetic Hessian restricted to the class (Wang
and Zhou), which at p = 2 makes the full step nonlinear inverse iteration.
The orbit basis S of the class is the only projector the solve applies,
and the class maps E and E^T run on plane-radius bins only (``_BinPass``):
the seed and every accepted gradient are read so, and the certificates
read the returned field, zero off the interior, at the lattice's images of
it (``grid_certificates``).  No line-search trial builds a grid field
(symmetric criticality, Palais): B is a weighted sum over the bins, and K
is the quadratic form of that Hessian at p = 2, else a weighted sum over
one interior node per orbit (``_OrbitPass``).

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
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .grid import (
    BallGrid,
    backward_diffs,
    forward_diffs,
    read_array,
    write_array,
)
from .kvdoc import exact_float, exact_int, format_kv, format_value, physical_memory
from .lattice import SignedPerm, apply_perm_to_grid, axis_orbits, interior_images, lattice_subgroup
from .symmetry import (
    SymmetryConfig,
    config_to_pairs,
    make_layout,
    stabilizer_witness,
)

CHECKPOINT_FORMAT = "cknsym-checkpoint"
CHECKPOINT_VERSION = 5  # 4 did not record the problem's p, a and b

MIN_STEP = 1e-10  # the line search halves the relative step down to this
METRIC_CUT = 1e-6  # metric eigenvalues below this share of the largest carry no energy
INTERPOLATED_SAMPLES = 8  # tail angles in the bias diagnostic, evenly over (0, pi/4]
REDUCED_REFINE = 4  # profile table step of the reduced level: grid step / 4
SEED_OFFSET = 0.55  # seed bump center along the witness, in radii
SEED_WIDTH = 0.18  # seed bump standard deviation, in radii
CERTIFICATE_BLOCK = 8192  # interior nodes per certificate block: its vectors stay cache-sized
HESSIAN_BLOCK = 8192  # metric terms per block of tail indices, at least one index's
WEIGHT_STRENGTH = 0.3  # b of the default weights; a = b scales it under a_eq_b_nonzero


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
        object.__setattr__(self, "n", exact_int(
            self.n, VariationalError, "n must be an integer >= 2, got {!r}", 2))
        for name in ("p", "a", "b") if self.q is None else ("p", "a", "b", "q"):
            object.__setattr__(self, name, exact_float(
                getattr(self, name), VariationalError, f"{name} must be a number, got {{!r}}"))
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


def params_for_config(cfg: SymmetryConfig, p: float = 2.0) -> ProblemParams:
    """Regime-consistent default exponents for a configuration's dimension."""
    if cfg.regime == "a_eq_b_zero":
        return ProblemParams(cfg.n, p, 0.0, 0.0)
    if cfg.regime == "a_eq_b_nonzero":
        ab = WEIGHT_STRENGTH * min(1.0, (cfg.n - p) / p / 2.0)
        return ProblemParams(cfg.n, p, ab, ab)
    return ProblemParams(cfg.n, p, 0.0, WEIGHT_STRENGTH)


@dataclass(frozen=True)
class SolveOptions:
    """The solver's settings; every field but ``checkpoint_path`` is also a
    ``cknsym solve`` key with this default.  The seed and first step are fixed."""

    max_iters: int = 400
    tol: float = 1e-5  # relative first-variation tolerance, dimensionless
    subcritical_shift: float = 0.5
    checkpoint_path: str | None = None
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        for name in ("tol", "subcritical_shift"):
            value = exact_float(getattr(self, name), VariationalError,
                                f"{name} must be a number, got {{!r}}")
            # written as "not 0 < x < inf" so that NaN is refused too
            if not 0 < value < math.inf:
                raise VariationalError(f"{name} must be finite and > 0, got {value}")
            object.__setattr__(self, name, value)
        for name in ("max_iters", "checkpoint_every"):
            exact_int(getattr(self, name), VariationalError,
                      f"{name} must be an integer >= 0, got {{!r}}", 0)


class DiscreteEnergy:
    """J and its exact discrete gradient on a masked ball grid.

    The kinetic density is psi(|g|^2) = |g|^p at every p, so K(t u) =
    t^p K(u) and B(t u) = t^q B(u) exactly, and the Nehari scale of a ray
    is the closed form t^(q - p) = K / B.  Its derivative factor
    |g|^(p - 2) is read as 1 where g = 0, where it only ever multiplies a
    zero difference (for p > 1, |g|^(p - 2) g tends to 0 there).  Gradients
    are assembled with the exact difference adjoints and vanish off the
    interior mask, making them true derivatives of the discrete value:
    finite-difference tests hold to square-root machine precision.

    ``evaluate`` is the one energy pass: one build of the difference stacks
    on the interior nodes (through the grid's neighbour tables) yields K, B
    and both node gradients from an interior vector, summed over interior
    vectors.  ``kinetic`` and ``potential`` read a grid field, the kinetic
    through the roll stencils over the whole cube; no solve runs them.
    ``solve`` runs ``evaluate`` on the end-of-run field only.
    """

    def __init__(self, grid: BallGrid, params: ProblemParams):
        if params.n != grid.n:
            raise VariationalError(f"params dimension {params.n} != grid dimension {grid.n}")
        self.grid = grid
        self.params = params

    @cached_property
    def _w_grad_in(self) -> np.ndarray:
        return self.grid.weight_values(self.params.grad_weight_exponent)

    @cached_property
    def _w_pot_in(self) -> np.ndarray:
        return self.grid.weight_values(self.params.potential_weight_exponent)

    def _psi(self, sq: np.ndarray) -> np.ndarray:
        return sq ** (self.params.p / 2.0)

    def _sigma(self, sq: np.ndarray) -> np.ndarray:
        # d psi / d sq, times 2: the vector factor in the kinetic gradient, 1 at sq = 0
        return np.power(sq, (self.params.p - 2.0) / 2.0, out=np.ones(sq.shape), where=sq != 0.0)

    def _potential(self, uv: np.ndarray) -> float:
        """B from the interior values."""
        return float(self.grid.cell_volume * np.sum(self._w_pot_in * np.abs(uv) ** self.params.q))

    def evaluate(self, uv: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """(K, B, dK/du, dB/du) from one build of the interior difference
        stacks, for the interior values uv (length M, in ``grid.interior``
        order); the gradients are interior vectors too, as both vanish off
        the interior.

        The values carry a zero sentinel (length M + 1) that every neighbour
        off the interior reads, which is what the masked field holds there,
        so each stack entry is the roll stencil's value at that node, in the
        same operation order.  The stacks are built one at a time, the
        backward one negated: its squares and the terms of its adjoint are
        the same bits.
        """
        g = self.grid
        q = self.params.q
        fwd, bwd = g.neighbours
        ue = np.append(uv, 0.0)
        te = np.zeros(ue.shape)  # one weighted axis, with the zero sentinel
        t = te[:-1]
        sq, parts = [], []  # per stack: the nodewise |.|^2 and the kinetic gradient
        for ahead, behind in ((fwd, bwd), (bwd, fwd)):
            d = (ue.take(ahead) - uv) / g.h
            sq.append(np.sum(d * d, axis=0))
            wd = self._sigma(sq[-1]) * self._w_grad_in
            parts.append(np.zeros(uv.shape))
            for i in range(g.n):  # the difference adjoint, one weighted axis at a time
                np.multiply(wd, d[i], out=t)
                parts[-1] += (te.take(behind[i]) - t) / g.h
            del d, wd  # before the next stack is built
        gk = parts[0] + parts[1]
        gk *= 0.5 * self.params.p * g.cell_volume
        # |u|^(q-2) u reads 0 at u = 0 for every q: 0 ** (q - 2) is inf for q < 2
        gb = q * g.cell_volume * self._w_pot_in * np.power(
            np.abs(uv), q - 2.0, out=np.ones(uv.shape), where=uv != 0.0) * uv
        dens = self._psi(sq[0]) + self._psi(sq[1])
        return (float(0.5 * g.cell_volume * np.sum(self._w_grad_in * dens)),
                self._potential(uv), gk, gb)

    def kinetic(self, u: np.ndarray) -> float:
        g = self.grid
        u = u * g.mask  # off-ball values are gauge: the form reads zeros there
        sf, sb = (np.sum(d * d, axis=0) for d in (forward_diffs(g, u), backward_diffs(g, u)))
        w = np.zeros(g.shape)  # the gradient weights, zero off the interior
        w.reshape(-1)[g.interior] = self._w_grad_in
        return float(0.5 * g.cell_volume * np.sum(w * (self._psi(sf) + self._psi(sb))))

    def potential(self, u: np.ndarray) -> float:
        return self._potential(np.reshape(u, self.grid.shape).take(self.grid.interior))

    def quotient(self, u: np.ndarray) -> float:
        """Scale-invariant ratio K / B^(p/q); its minimizers are the Nehari ones."""
        k = self.kinetic(u)
        b = self.potential(u)
        if not (k > 0 and b > 0):
            raise VariationalError("quotient needs a nonzero field inside the ball")
        return k / b ** (self.params.p / self.params.q)

    def level_from_quotient(self, quotient: float) -> float:
        """J value on the Nehari manifold along the ray realizing the quotient."""
        p, q = self.params.p, self.params.q
        try:
            return (1.0 / p - 1.0 / q) * quotient ** (q / (q - p))
        except OverflowError:  # a float power raises where a product reads inf
            return math.inf


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
def _plane_profile_basis(points_per_axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each plane node's radius id, the rows Q_d (R x r) of the orthonormal
    plane profile basis Q = Q_d[ids] at the R distinct plane radii, and the
    table factor A (n_rad x r) with Q_d = B_d A.

    A slice is circle-invariant when its node values depend only on the
    plane radius.  The admissible radial profiles are cubic interpolants of
    a table with step h (reflected evenly through zero); B_d reads them at
    the plane radii, and Q_d is the left singular vectors of sqrt(count) B_d
    (singular values above 1e-6 of the largest) over sqrt(count), count the
    nodes per radius.  So a radius's nodes read one row, Q^T Q = I, and
    Q Q^T is the least-squares projector onto the profiles, the discrete
    circle average in the node inner product.  A = V_k S_k^-1, so the
    profile of Q c interpolates the radial table A c.  Radii are ranked by
    bincount and searchsorted, which a solve runs anyway: the first
    np.unique imports numpy.ma, 0.3-0.44 MB resident after a 9^4 solve.
    """
    npts = points_per_axis
    n_rad = int(math.ceil(math.sqrt(2.0) * (npts - 1) / 2.0)) + 4
    sq = (np.arange(npts) - npts // 2) ** 2
    rad = (sq[:, None] + sq[None, :]).ravel()  # each plane node's squared radius, in steps
    distinct = np.flatnonzero(np.bincount(rad))  # the R squared radii, ascending
    ids = np.searchsorted(distinct, rad)
    weight = np.sqrt(np.bincount(ids))[:, None]
    basis = weight * _catmull_rom_matrix(np.sqrt(distinct), n_rad, radial=True)
    left, sing, right_t = np.linalg.svd(basis, full_matrices=False)
    keep = sing > 1e-6 * sing[0]
    # C order: the metric's contractions took 1.45x as long on LAPACK's F-order rows
    return ids, np.ascontiguousarray(left[:, keep] / weight), right_t[keep].T / sing[keep]


# --------------------------------------------------------------------------
# class coordinates: a class field is E c, where E contracts each rotation
# plane's axis of c with Q; the planes are the coordinate pairs (0, 1), (2, 3),
# ... ahead of the tail.  E is orthonormal, and lattice elements carry planes
# onto planes keeping plane radii, so each element g acting on the grid
# satisfies g E = E R_g for a signed permutation R_g of the tensor's axes:
# E^T A = P E^T, A the signed lattice average on the grid and P that of R_g
# on the tensor.  P is an orthogonal projector whose range the orbit basis S
# spans, so S^T P = S^T.


@functools.cache
def _tensor_action(n: int, alpha: int, m: tuple[int, ...]) -> tuple[tuple[SignedPerm, float], ...]:
    """The sampling subgroup of (n, alpha, m) (any regime) as it acts on
    class coefficients: pairs (R, w) with sum_R w R c = E^T A E c, A the
    signed lattice average on the grid.

    Element g carries plane k onto plane source[2k] // 2, unsigned (Q rows
    depend only on the plane radius), and tail axis j onto tail axis
    source[j] with sign signs[j].  Elements inducing the same R are merged,
    w summing their characters over the group order; R with w = 0 are
    dropped, so a {0} class has no pairs.  VariationalError if an element
    splits a rotation plane.
    """
    cfg = SymmetryConfig(n, alpha, m)
    elements, planes = lattice_subgroup(cfg), make_layout(cfg).tail_start // 2
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


def _contract_planes(t: np.ndarray, ms: list[np.ndarray], first: int = 0) -> np.ndarray:
    """Contract axis first + k of t with the second axis of ms[k], leading
    axis first; each result axis takes its place, so no axis moves and no
    operand is copied.  The first axes batch: each index of them is
    contracted by the same products as a tensor without them."""
    shape = t.shape
    for k, m in enumerate(ms, start=first):
        t = np.matmul(m, t.reshape(math.prod(shape[:k]), shape[k], -1))
        shape = shape[:k] + (m.shape[0],) + shape[k + 1:]
    return t.reshape(shape)


def class_shape(cfg: SymmetryConfig, grid: BallGrid) -> tuple[int, ...]:
    """Shape of a class-coefficient tensor: r per rotation plane, N per tail axis."""
    planes, npts = make_layout(cfg).tail_start // 2, grid.points_per_axis
    return (_plane_profile_basis(npts)[1].shape[1],) * planes + (npts,) * (grid.n - 2 * planes)


def class_basis(cfg: SymmetryConfig, grid: BallGrid) -> tuple[np.ndarray, np.ndarray, int]:
    """An orthonormal basis S of the class in coefficient space, as
    (col, val, dim) over the flat coefficient indices: S y = val * y[col]
    (col = dim and val = 0 where no column reaches).  The tensor action
    permutes indices, so the projector P onto the class has rank 1 on an
    orbit O whose stabilizer the character fixes, else 0; its column is
    P e_o / |P e_o| for the least index o of O: +-1/sqrt(|O|) on O.
    """
    shape = class_shape(cfg, grid)
    labels = np.arange(math.prod(shape))
    action = _tensor_action(cfg.n, cfg.alpha, cfg.m)
    moved = [apply_perm_to_grid(labels.reshape(shape), perm).ravel() for perm, _ in action]
    low = np.min(moved or [labels], axis=0)  # each orbit's least index
    proj = sum((w * (row == low) for (_, w), row in zip(action, moved)), np.zeros(labels.size))
    keep = (norm := proj[low]) > 1e-9  # |P e_o|^2 of each index's orbit: 0, or at least 1/|G|
    roots = np.flatnonzero(keep & (low == labels))
    col = np.where(keep, np.searchsorted(roots, low), len(roots))
    return col, np.where(keep, proj / np.sqrt(np.where(keep, norm, 1.0)), 0.0), len(roots)


def _plane_radius_bins(grid: BallGrid, labels: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """Each interior node's bin, flat in C order over (label on each plane,
    ..., tail index): labels[k] labels plane k's N^2 nodes by ints below
    sizes[k].  Labelled by plane radius ids, a bin's nodes share Q rows."""
    npts = grid.points_per_axis
    key, tails = 0, npts ** (grid.n - 2 * len(labels))
    for k, (label, size) in enumerate(zip(labels, sizes)):
        node = grid.interior // (tails * npts ** (2 * (len(labels) - 1 - k))) % npts ** 2
        key = key * size + label.take(node)
    return key * tails + grid.interior % tails


def _class_hessian(space: "_BinPass") -> np.ndarray:
    """H = S^T E^T L E S, L the Hessian of the masked, w_grad-weighted p = 2
    kinetic form: a diagonal term and, per axis k, a term over the interior
    pairs (x, x + e_k).  E is Q_d[ids] on each rotation plane and the
    identity on the tail, so a term summed over plane nodes a against
    Q[a, i] Q[a', i'] (a' = a + e_k on the plane holding k, else a) is
    binned by the radius ids at a, or by the pairs of ids at a and a', and
    couples coefficients whose tail indices agree, or differ by e_k on a
    tail axis.  S gathers it into G, a block of tail indices at a time
    (HESSIAN_BLOCK entries or one index, in tail-index order, so G sums as a
    loop over single indices would); with the diagonal term halved,
    H = G + G^T is exactly symmetric.  Lattice elements keep the
    mask and weights and carry axis k's pairs onto those of each axis in its
    orbit: the pair terms and the diagonal's neighbour sums are built for
    one axis per orbit, times its size.  ``space``: the pass holding the
    class space, S, the radius-id bins and the energy whose weights L reads."""
    g, ids, rows, planes = space.grid, space.ids, space.rows, space.planes
    col, val, dim = space.basis
    npts, (size, r) = g.points_per_axis, rows.shape
    tails = npts ** (g.n - 2 * planes)
    col, val = (np.ascontiguousarray(a.reshape(-1, tails).T) for a in (col, val))  # tail first
    fwd, bwd = g.neighbours
    w = np.append(space.energy._w_grad_in, 0.0) * (g.cell_volume / g.h ** 2)  # zero sentinel
    same = (rows[:, :, None] * rows[:, None, :]).reshape(size, r * r).T
    ij, ji = (-1,) + (r, 1) * planes, (-1,) + (1, r) * planes  # i and i' of each plane's pair axes
    acc = np.zeros((dim + 1) ** 2)
    span = max(1, HESSIAN_BLOCK // r ** (2 * planes))  # tail indices per block
    orbits = axis_orbits(space.cfg)
    for k in (None, *orbits):
        values = (0.5 * (2 * g.n * w[:-1] + sum(s * (w.take(fwd[a]) + w.take(bwd[a]))
                                                for a, s in orbits.items())) if k is None else
                  np.where(fwd[k] < len(w) - 1, -orbits[k] * (w[:-1] + w.take(fwd[k])), 0.0))
        tables, sizes, bins = [same] * planes, [size] * planes + [tails], space.key
        if k is not None and k < 2 * planes:  # on its plane, bin by the pair of radius ids
            e = npts if k % 2 == 0 else 1  # the flat step a -> a + e_k on the plane
            pair = ids * size  # the ids at a and a + e_k; a plane's last e nodes are outer
            pair[:-e] += ids[e:]
            seen = np.flatnonzero(np.bincount(pair))
            labels = [ids] * planes
            labels[k // 2] = np.searchsorted(seen, pair)
            tables[k // 2] = (rows[seen // size, :, None] * rows[seen % size, None, :]
                              ).reshape(len(seen), r * r).T
            sizes[k // 2] = len(seen)
            bins = _plane_radius_bins(g, labels, sizes[:-1])
        binned = np.bincount(bins, values, minlength=math.prod(sizes)).reshape(sizes)
        del values, bins
        step = npts ** (g.n - 1 - k) if k is not None and k >= 2 * planes else 0
        for lo in range(0, tails - step, span):  # past the last tail index no pair is interior
            t = slice(lo, min(lo + span, tails - step))
            u = slice(t.start + step, t.stop + step)
            pairs = col[t].reshape(ij) * (dim + 1) + col[u].reshape(ji)  # tail index first
            part = _contract_planes(np.moveaxis(binned[..., t], -1, 0), tables, 1)
            part = part.reshape(pairs.shape)
            part *= val[t].reshape(ij)
            part *= val[u].reshape(ji)
            np.add.at(acc, pairs.ravel(), part.ravel())
            del part, pairs  # before the next block builds its own
    h = acc.reshape(dim + 1, dim + 1)[:dim, :dim]
    return h + h.T


class _BinPass:
    """The class space of cfg on the energy's grid (the plane radius ``ids``,
    the profile rows Q_d, the plane count, the coefficient ``shape``, the orbit
    ``basis`` S and the interior's radius-id bin ``key``), its maps and a
    trial's pass at p = 2: ``coefficients`` gives S y, ``field`` values whose
    largest |.| is the field's peak, ``read`` a grid field's class coordinates,
    ``quotient_and_gradient(values, y)`` the quotient, its gradient and
    B^(p/q), ``coordinates`` a gradient's, ``direction`` its metric step.

    E c depends on each node only through its plane radii and tail index,
    so the class field is U = E_d c on the bins, E_d contracting each plane
    axis with Q_d, the rows of Q at the distinct plane radii: on the
    interior E c is U gathered through the bin key, and E^T of a field
    vanishing off it is E_d^T of its sums per bin.  The cube is a product
    of planes and tail lines, so every bin holds a node: max |U| is the grid
    field's peak.  K = y^T H y / 2 exactly, H the p = 2 kinetic Hessian in
    the class, which ``factor_metric`` builds and keeps.  B is
    h^n sum W |U|^q, W the interior potential weights summed per bin (zero
    on bins off the ball), and its class gradient is S^T E_d^T of
    q h^n W |U|^(q-2) U.  A trial makes no grid- or interior-sized array.
    """

    def __init__(self, energy: DiscreteEnergy, cfg: SymmetryConfig):
        self.energy, self.cfg, self.p, self.q = energy, cfg, energy.params.p, energy.params.q
        self.grid = g = energy.grid
        self.ids, self.rows, _ = _plane_profile_basis(g.points_per_axis)
        self.planes, self.shape = make_layout(cfg).tail_start // 2, class_shape(cfg, g)
        self.basis = class_basis(cfg, g)
        self.key = _plane_radius_bins(g, [self.ids] * self.planes, [len(self.rows)] * self.planes)
        bins = (len(self.rows),) * self.planes + self.shape[self.planes:]
        self.weights = np.bincount(self.key, energy._w_pot_in * g.cell_volume,
                                   minlength=math.prod(bins)).reshape(bins)

    def factor_metric(self) -> None:
        """The metric H (``_class_hessian``) on its eigenvalues above METRIC_CUT
        of the largest: the cut directions leave the ball and carry no energy."""
        self.hessian = _class_hessian(self)
        lam, vec = np.linalg.eigh(self.hessian)
        keep = lam > METRIC_CUT * lam[-1]
        self.lam, self.vec = lam[keep], vec[:, keep]

    def direction(self, d: np.ndarray) -> np.ndarray:  # H^+ d, on the kept eigenvectors
        return self.vec @ ((self.vec.T @ d) / self.lam)

    def coefficients(self, y: np.ndarray) -> np.ndarray:  # S y
        col, val, _ = self.basis
        return (val * np.append(y, 0.0).take(col)).reshape(self.shape)

    def field(self, coefficients: np.ndarray) -> np.ndarray:
        return _contract_planes(coefficients, [self.rows] * self.planes)

    def read(self, values: np.ndarray) -> np.ndarray:  # S^T E^T u, u zero off the interior
        sums = np.bincount(self.key, np.reshape(values, -1).take(self.grid.interior),
                           minlength=self.weights.size)
        return self._pull_back(sums.reshape(self.weights.shape))

    def _kinetic(self, values: np.ndarray, y: np.ndarray) -> tuple:  # K, and H y for its gradient
        hy = self.hessian @ y
        return 0.5 * float(y @ hy), hy

    def quotient_and_gradient(self, values: np.ndarray, y: np.ndarray) -> tuple:
        k, gk = self._kinetic(values, y)
        # then h^n W |U|^(q-2) U, reading 0 at U = 0: 0 ** (q - 2) is inf for q < 2
        gb = np.power(np.abs(values), self.q - 2.0, out=np.ones(values.shape),
                      where=values != 0.0)
        gb *= values
        gb *= self.weights
        b = float(gb.ravel() @ values.ravel())
        if not (k > 0 and b > 0):
            raise VariationalError("quotient needs a nonzero field inside the ball")
        scale = b ** (self.p / self.q)
        # (dK/dy - (p / q) (K / B) dB/dy) / B^(p/q), and dB/dy = q S^T E_d^T gb
        return k / scale, (gk, gb, self.p * k / b, scale), scale

    def _pull_back(self, binned: np.ndarray) -> np.ndarray:  # S^T E_d^T
        col, val, dim = self.basis
        pulled = _contract_planes(binned, [self.rows.T] * self.planes).ravel()
        return np.bincount(col, val * pulled, minlength=dim + 1)[:dim]

    def coordinates(self, gradient) -> np.ndarray:
        hy, gb, factor, scale = gradient
        return (hy - factor * self._pull_back(gb)) / scale


def _trial_pass(energy: DiscreteEnergy, cfg: SymmetryConfig) -> _BinPass:
    if energy.params.p == 2.0:
        return _BinPass(energy, cfg)
    from .orbits import _OrbitPass  # here, so a p = 2 solve never compiles the orbit pass
    return _OrbitPass(energy, cfg)


def _axis_weights(grid: BallGrid, x: np.ndarray, plane: bool) -> np.ndarray:
    """Row i reads one axis of class coefficients at x[i]: a plane radius
    through the radial table factor A, or a tail coordinate off its grid line."""
    if plane:
        table = _plane_profile_basis(grid.points_per_axis)[2]
        return _catmull_rom_matrix(x / grid.h, table.shape[0], radial=True) @ table
    return _catmull_rom_matrix((x + grid.radius) / grid.h, grid.points_per_axis, radial=False)


def _class_profile(coefficients: np.ndarray, grid: BallGrid, planes: int, rho: np.ndarray,
                   line: np.ndarray) -> np.ndarray:
    """The class field E c on the product of the plane radii rho (one axis per
    rotation plane, its second coordinate 0) and the tail coordinates line."""
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
    prof = _class_profile(coefficients, grid, planes, rho, line)
    mesh = np.meshgrid(*([rho] * planes + [line] * (grid.n - 2 * planes)),
                       indexing="ij", sparse=True)
    p, q = params.p, params.q
    # prof and the kinetic integrand dens are the only whole tables: the rest
    # is built on 8 slabs, so its temporaries stay within one more table
    dens = np.empty(prof.shape)
    step = -(-prof.shape[1] // 8)
    for lo in range(0, prof.shape[1], step):  # along axis 0, on slabs across axis 1
        dens[:, lo:lo + step] = _table_derivative(prof[:, lo:lo + step], 0, h_f, planes > 0) ** 2
    step = -(-len(prof) // 8)
    for lo in range(0, len(prof), step):  # the other axes, then in place, across axis 0
        at = slice(lo, lo + step)
        f, d, part = prof[at], dens[at], [mesh[0][at], *mesh[1:]]
        for ax in range(1, prof.ndim):
            d += _table_derivative(f, ax, h_f, ax < planes) ** 2
        radius_sq = sum(m * m for m in part)
        jac = np.where(radius_sq <= grid.radius * grid.radius, math.prod(part[:planes]), 0.0)
        r = np.sqrt(radius_sq, out=radius_sq)
        d **= p / 2.0
        d *= jac * r ** params.grad_weight_exponent  # r ** 0.0 is exactly 1
        np.abs(f, out=f)
        f **= q
        f *= jac * r ** params.potential_weight_exponent
        del radius_sq, jac, r  # before the next slab's derivatives
    cell = (2.0 * math.pi) ** planes * h_f ** prof.ndim
    kin = cell * float(np.sum(dens))
    pot = cell * float(np.sum(prof))
    if pot <= 0.0 or kin <= 0.0:
        raise VariationalError("reduced quadrature degenerate: a profile integral reads 0 "
                               "(a zero profile, or one that underflows)")
    try:
        t = (kin / pot) ** (1.0 / (q - p))
        return (1.0 / p - 1.0 / q) * t ** p * kin
    except OverflowError:  # a float power raises where a product reads inf
        return math.inf


def interpolated_equivariance_bias(coefficients: np.ndarray, space: _BinPass) -> float:
    """Worst |E c(g x) - phi(g) E c(x)| / sup |E c| over interior nodes x and
    full-group elements g whose tail rotates its first two axes by
    theta_k = (k + 1) pi / (4 INTERPOLATED_SAMPLES), k < INTERPOLATED_SAMPLES,
    for c in the class ``space``, read on its bins: the peak over all, the
    differences over interior ones.

    At alpha = 0, g moves plane radii only by the plane permutation of its
    twists, as the lattice element with the same twists and character does;
    c is fixed by the sampling subgroup's average, and a class profile is
    invariant under rotations inside each plane.  So with R the tail rotation
    of g, E c(g x) - phi(g) E c(x) = phi(g) (E T_R c - E c)(x), where T_R c
    reads the tail axes of c at R x_tail: exactly 0 without an active tail,
    else the off-lattice defect of the tail, which the class samples only on
    the lattice.  The defect is unchanged when a lattice tail element acts
    before or after R (it keeps c and the interior), and that group holds
    the quarter turns and the reflections: on an O(2) tail every value the
    group gives is taken at an angle in (0, pi/4], which theta_k samples,
    pi/4 among them.  A wider
    tail is read in its first coordinate plane, which its lattice carries
    onto every other.  VariationalError at alpha > 0: pinwheel steps mix
    planes.
    """
    cfg = space.cfg
    if cfg.alpha > 0:
        raise VariationalError(f"the interpolated bias needs alpha = 0, got {cfg.alpha}")
    if not cfg.tail_active:
        return 0.0
    rotations = []
    for k in range(INTERPOLATED_SAMPLES):
        theta = (k + 1) * math.pi / (4 * INTERPOLATED_SAMPLES)
        rotation = np.eye(cfg.tail_dim)
        rotation[:2, :2] = ((math.cos(theta), -math.sin(theta)), (math.sin(theta), math.cos(theta)))
        rotations.append(rotation)
    return _tail_bias(coefficients, space, rotations)


def _tail_bias(coefficients: np.ndarray, space: _BinPass, rotations: list[np.ndarray]) -> float:
    """max |E T_R c - E c| / sup |E c| over interior nodes and the tail
    matrices R in ``rotations``, T_R c reading the tail axes of c at R x_tail."""
    peak = float(np.max(np.abs(space.field(coefficients))))
    if peak == 0.0:
        return 0.0
    grid = space.grid
    inside = np.bincount(space.key, minlength=space.weights.size).reshape(space.weights.shape) > 0
    d = len(rotations[0])
    flat = coefficients.reshape(coefficients.shape[:-d] + (-1,))  # the tail axes as one
    nodes = np.indices((grid.points_per_axis,) * d).reshape(d, -1).T * grid.h - grid.radius
    worst = 0.0
    for rotation in rotations:
        rows = np.ones((len(nodes), 1))  # row k reads the tail of c at R times tail node k
        for x in (nodes @ rotation.T).T:
            rows = (rows[:, :, None] * _axis_weights(grid, x, False)[:, None]).reshape(len(x), -1)
        moved = (flat @ rows.T).reshape(coefficients.shape)
        worst = max(worst, float(np.max(np.abs(space.field(moved - coefficients)[inside]))))
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


def grid_certificates(values: np.ndarray, cfg: SymmetryConfig,
                      grid: BallGrid) -> tuple[float, float, SignCertificate]:
    """(equivariance, symmetrization gap, sign certificate) of u, relative to
    sup |u|, from one pass over the sampling subgroup on blocks of interior
    nodes (``interior_images``).  Element g gives diff = u(g x) - sign(g) u(x):
    the equivariance is the worst max |diff|, the gap max |A u - u| (A the
    signed lattice average, a projection: A u - u is the mean of sign(g)
    diff, so the gap never exceeds the equivariance), and the first
    character -1 element's max |diff| is the certificate's residual.  Exact, as every element keeps
    the interior, for a u that vanishes off it; VariationalError on another."""
    elements = lattice_subgroup(cfg)
    flip = next((j for j, e in enumerate(elements) if e.sign < 0), None)
    if flip is None:
        raise UnsupportedConfigError(
            "sampling subgroup has no sign-reversing element; a sign change "
            "cannot be certified on this grid")
    u = values.take(grid.interior)
    if np.count_nonzero(u) != np.count_nonzero(values):
        raise VariationalError("the field is nonzero off the interior, which the certificates skip")
    k = int(np.argmax(np.abs(u)))  # ``interior`` ascends: the grid's first maximum
    peak = float(abs(u[k])) or 1.0  # a zero field reads 0 throughout
    tops, gap = [0.0] * len(elements), 0.0  # each element's max |diff|, the gap's max
    for lo in range(0, len(u), CERTIFICATE_BLOCK):  # a block of interior nodes at a time
        block = slice(lo, lo + CERTIFICATE_BLOCK)
        acc = np.zeros_like(u[block])  # the block's sum of sign(g) diff
        for j, (e, image) in enumerate(interior_images(cfg, grid, block)):
            diff = values.take(image)
            if j == flip and lo <= k < lo + CERTIFICATE_BLOCK:
                mapped = float(diff[k - lo])
            diff -= e.sign * u[block]  # sign(g) = +-1: every product is exact
            acc += e.sign * diff
            tops[j] = max(tops[j], float(abs(diff).max()))
        gap = max(gap, float(abs(acc).max()))
    idx = np.unravel_index(grid.interior[k], values.shape)
    cert = SignCertificate(node_index=tuple(map(int, idx)), value=float(u[k]),
                           mapped_value=mapped, element_sign=-1,
                           antisymmetry_residual=tops[flip] / peak,
                           max_value=float(values.max()), min_value=float(values.min()))
    return max(tops) / peak, gap / len(elements) / peak, cert


# --------------------------------------------------------------------------
# seeding


def seed_field(cfg: SymmetryConfig, grid: BallGrid) -> np.ndarray:
    """Masked Gaussian bump along the stabilizer witness direction, peak 1.

    It is not projected: ``solve`` reads it through S^T E^T on the bins.
    The witness is fixed only by character +1 elements, so the signed
    average cannot cancel the bump at its own center; the circle averages
    can, which ``solve`` refuses as the {0} class.  It holds one grid array:
    |x - c|^2, summed from one table per axis, then the rest in place.
    """
    w = stabilizer_witness(cfg)
    w = w / np.linalg.norm(w)
    center = SEED_OFFSET * grid.radius * w
    u = grid.axis_sum([(grid.axis - c) ** 2 for c in center])
    u /= -2.0 * (SEED_WIDTH * grid.radius) ** 2
    np.exp(u, out=u)
    u *= grid.mask
    return np.divide(u, np.max(u), out=u)


# --------------------------------------------------------------------------
# the solver


@dataclass(frozen=True)
class SolveReport:
    config: SymmetryConfig
    params: ProblemParams
    solver_exponent: float
    grid_points: int
    class_dimension: int
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
                     params: ProblemParams, solver_exponent: float, iteration: int,
                     step: float, y: np.ndarray, history: list[float]) -> None:
    # the coordinates and the last relative step are the whole descent state;
    # the problem is named by its config, grid, p, a, b and solver exponent
    write_array(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, grid, y,
                 alpha=cfg.alpha, m=list(cfg.m), regime=cfg.regime,
                 p=params.p, a=params.a, b=params.b,
                 solver_exponent=solver_exponent, iteration=iteration, step=step,
                 history=[float(v) for v in history])


def load_checkpoint(path: str | Path) -> dict:
    """A checkpoint's solver state and its problem's p, a and b;
    VariationalError if the file is malformed (a number written as a bool
    or a string included), holds a state the solver never writes (a step
    outside (0, 1], an iteration that is not an int >= 0, a history that is
    not a non-empty list of positive finite levels), its grid cannot fit or
    its coordinates do not span the class."""
    try:
        header, grid, y = read_array(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
        cfg = SymmetryConfig(grid.n, header["alpha"], tuple(header["m"]),
                             regime=header["regime"])
        if not isinstance(header["history"], list):
            raise ValueError(f"history must be a list, got {header['history']!r}")
        state = {key: exact_float(header[key], ValueError, f"{key} must be a number, got {{!r}}")
                 for key in ("p", "a", "b", "solver_exponent", "step")}
        state["iteration"] = exact_int(header["iteration"], ValueError,
                                       "iteration must be an integer >= 0, got {!r}", 0)
        state["history"] = [exact_float(v, ValueError, "history entries must be numbers, got {!r}")
                            for v in header["history"]]
        # written as "not 0 < x" so that NaN is refused too
        if not 0.0 < state["step"] <= 1.0:
            raise ValueError(f"step must be finite and in (0, 1], got {state['step']}")
        if not (state["history"] and all(0.0 < v < math.inf for v in state["history"])):
            raise ValueError("history must be a non-empty list of positive finite floats")
    except (KeyError, TypeError, ValueError) as exc:
        raise VariationalError(f"unusable checkpoint {path}: {exc}") from exc
    _refuse_unfit(grid)  # the class tables of a huge grid would not fit either
    dim = class_basis(cfg, grid)[2]
    if y.shape != (dim,):
        raise VariationalError(f"unusable checkpoint {path}: coordinate shape {y.shape} "
                               f"is not the class dimension ({dim},)")
    return {"config": cfg, "grid": grid, "coordinates": y, **state}


def _relative_residual(c: np.ndarray, d: np.ndarray, quot: float) -> float:
    """Dimensionless first-variation size of the quotient at c; d is its in-class gradient."""
    return float(np.sqrt(np.sum(d * d) * np.sum(c * c)) / quot)


def _interior_count(grid: BallGrid) -> int:
    """M, the nodes k with |k|^2 < ((N - 1) / 2)^2, counted through the
    distribution of |k|^2 without building the mask.  Past 257 points per
    axis (a 4-D cube array alone is then 35 GB) N^n stands in."""
    half = (grid.points_per_axis - 1) // 2
    if half > 128:
        return math.prod(grid.shape)
    top = half * half
    counts = np.zeros(top, dtype=np.int64)
    counts[0] = 1
    for _ in range(grid.n):  # add one axis: shift the distribution by each k^2
        nxt = np.zeros_like(counts)
        for k in range(-half + 1, half):
            nxt[k * k:] += counts[:top - k * k]
        counts = nxt
    return int(counts.sum())


def solve_peak_bytes(grid: BallGrid, dim: int = 0) -> int:
    """An upper bound on the bytes a solve holds at its peak, for a class of
    dimension dim (0 leaves out the class metric).

    Counted from the code in grid arrays of N^n floats, interior vectors of
    M = ``_interior_count`` entries and reduced-level profile tables of
    n_r^2 (2 n_r)^(n - 4) entries, n_r = 2(N - 1) (two rotation planes, the
    fewest any accepted class averages), with an index counted as a float:
    - held throughout: the boolean mask, 1/8, and the class tensors (each
      at most N^(n-2) entries) and plane tables in as much again; the
      interior indices and neighbour tables, (2n + 1) M; the energy's two
      weights, 2 M; the bin key, or at the end the field's interior values,
      M; the lattice subgroup (38 KB for (6, 0, (1, 0))) and other caches in
      a fixed 64 KiB; then the largest of four phases:
      - 1 array (the seed, the float index squares behind the mask, or the
        neighbour build's index cube) and 3 vectors (the seed's interior
        values, and at p != 2 the orbit pass's least nodes and stabilizers);
      - the metric, after the seed is read: H, dim^2, and either its build,
        at most 2n + 5 vectors or, above 4-D, 3 arrays of a block of
        HESSIAN_BLOCK terms (a 4-D class has one tail index, and one index's
        terms, where they are more, stay below those vectors), or eigh's
        eigenvectors (or H + H^T), dim^2,
        and 8 vectors (H's weights, the orbit pass's tables and a trial's
        arrays at p != 2), then 128 KiB of ufunc buffers for H + H^T;
      - the end of the run, on interior vectors: the energy pass, one
        difference stack at a time, (2n + 5) M, or the reduced level
        estimate, 3 tables (the profile, its kinetic integrand, slices of
        the rest);
      - the certificates: the returned field, built last, 1, and the |.| of
        its interior values, M, or n + 6 vectors of a block of
        CERTIFICATE_BLOCK nodes (or of M, if fewer).
    eigh's LAPACK workspace (about 2.35 dim^2 more, untraced) is not
    counted.  A 4-iteration solve traced with tracemalloc (it imports no
    numpy.random) peaks at 0.68 (p = 2) and 0.46 (p = 3) of this bound at
    9^4, 0.87 to 0.96 at 13^4 to 25^4, 0.85 to 0.95 at 7^5 to 11^5 and 0.80
    to 0.94 at 5^6 to 11^6, at p = 2 and p = 3; a 3-iteration 13^6 solve at
    0.84.
    """
    cube = math.prod(grid.shape)
    inside = _interior_count(grid)
    n_r = int(math.ceil(grid.radius / (grid.h / REDUCED_REFINE)))  # as reduced_level_estimate
    tables = n_r ** 2 * (2 * n_r) ** max(grid.n - 4, 0)
    stage = (2 * grid.n + 5) * inside  # the energy pass, or the metric's build
    build = max(stage, 3 * HESSIAN_BLOCK if grid.n > 4 else 0)
    block = min(CERTIFICATE_BLOCK, inside)
    phase = max(cube + 3 * inside, dim * dim + max(build, dim * dim + 8 * inside) + 2 ** 14,
                stage, 3 * tables, cube + max(inside, (grid.n + 6) * block))
    return int((cube / 4 + (2 * grid.n + 4) * inside + phase) * 8) + 2 ** 16


def _refuse_unfit(grid: BallGrid, dim: int = 0) -> None:
    """VariationalError when ``solve_peak_bytes`` and eigh's untraced LAPACK
    workspace (2.35 dim^2 floats, measured) exceed physical memory."""
    need = solve_peak_bytes(grid, dim) + int(2.35 * 8 * dim * dim)
    have = physical_memory()
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
    the solver exponent sits close to p.  The end of a run holds interior
    vectors: the final class field's interior values, rescaled in place
    onto the Nehari manifold by the closed-form scale t^(q - p) = K / B of
    the last pass (K and B are exactly p- and q-homogeneous), give every
    end-of-run scalar in one energy pass; the returned field is built last.

    The iterate lives in the coordinates y of the working class, the range
    of the circle averages over all rotation planes and the exact lattice
    symmetrization, with coefficients c = S y in the orthonormal orbit basis
    S, which the trial pass builds once with the rest of the class space:
    the iterate, direction and checkpoint are class coordinates, and the
    iterate is never re-projected on the grid.  The seed is read, before
    the metric is built, and each trial's peak and B
    and the returned field are built, on plane-radius bins: no stage
    contracts a grid-sized tensor.
    The circle averages keep minimizing sequences inside the
    rotation-invariant profiles the continuum symmetry demands; without them
    a coarse lattice admits spurious isolated concentration bumps whose
    discrete energy undercuts the symmetric level and drifts under
    refinement.  The level estimate reads the final coefficients through the
    class's own profile and the interpolated bias reads their tail factor on
    the bins; neither resamples the grid field.

    Armijo runs on the quotient along -H^+ g, the trial pass's metric step
    (``direction``), with slope g . H^+ g, from the step rho B^(p/q), where
    rho is the last accepted relative step (1, a full metric step, on a
    fresh solve), halving down to MIN_STEP.  Each trial costs one pass,
    whose gradient, if accepted, is pulled back into class coordinates
    through the bins.  The equivariance, the
    symmetrization gap and the sign certificate of the returned field come
    from one pass on the interior (``grid_certificates``), exact as w is 0
    off it and every element keeps it.  A class that projects the seed
    below 1e-8 of its peak is {0} (the circle averages force f = -f on a
    block of odd complex width) and is refused as unsupported, before the
    metric is built.  A grid whose ``solve_peak_bytes`` exceed
    physical memory is refused before anything is allocated.  A candidate
    whose sign change is not certified or whose returned field's
    equivariance residual exceeds 1e-8 is refused, not reported.

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
        theirs, ours = (state["p"], state["a"], state["b"]), (params.p, params.a, params.b)
        if theirs != ours:
            raise VariationalError(f"checkpoint was produced for p, a, b = {theirs}, not {ours}")
        if not abs(state["solver_exponent"] - q_solver) <= 1e-12:  # NaN is refused too
            raise VariationalError("checkpoint was produced with a different exponent")
        y = state["coordinates"]
        if float(np.max(np.abs(y), initial=0.0)) == 0.0:  # initial: the {0} class has no y
            raise VariationalError("checkpoint field vanishes")
        start_iter, rho, history = state["iteration"], state["step"], list(state["history"])

    # the class space; the seed is read, and a {0} class refused, before the metric is built
    trials = _trial_pass(energy, cfg)
    dim = trials.basis[2]
    _refuse_unfit(grid, dim)
    if resume_from is None:
        y = trials.read(seed_field(cfg, grid))  # the seed: sup-normalized (peak 1), not kept
        peak = float(np.max(np.abs(trials.field(trials.coefficients(y)))))
        if peak <= 1e-8:
            raise UnsupportedConfigError(
                f"the working class is {{0}}: projecting the seed onto it (circle "
                f"averages, then lattice symmetrization) leaves {peak:.2g} "
                f"of its peak, so there is no sign-changing candidate to certify")
        y, start_iter, rho = y / peak, 0, 1.0
    trials.factor_metric()

    # a trial's field is built from its sup-normalized coordinates, so the
    # field of a resumed iterate is the one its gradient was taken at
    quot, grad, scale = trials.quotient_and_gradient(trials.field(trials.coefficients(y)), y)
    if resume_from is None:
        history = [energy.level_from_quotient(quot)]
    d = trials.coordinates(grad)  # the residual reads it
    min_rel = rel = math.inf
    stop_reason = "max iterations"
    it = start_iter
    for it in range(start_iter + 1, options.max_iters + 1):
        rel = _relative_residual(y, d, quot)
        min_rel = min(min_rel, rel)
        if rel < options.tol:
            stop_reason = "first variation tolerance"
            it -= 1
            break
        # descend along the metric gradient H^+ d, whose slope is d . H^+ d;
        # at p = 2 the full step (relative step 1) is inverse iteration
        direction = trials.direction(d)
        slope = float(d @ direction)
        trial_step = rho
        while trial_step >= MIN_STEP:
            # step from the unmoved base point: the trial tends to y as the
            # step shrinks, so backtracking terminates while the slope is positive
            trial = y - trial_step * scale * direction
            values = trials.field(trials.coefficients(trial))
            peak = float(np.max(np.abs(values)))
            if peak > 0.0:
                values /= peak
                moved = trial / peak
                try:
                    value, grad, trial_scale = trials.quotient_and_gradient(values, moved)
                except VariationalError:
                    value = math.inf
                if value < quot - 1e-4 * trial_step * scale * slope:
                    y, quot, scale, rho = moved, value, trial_scale, trial_step
                    d = trials.coordinates(grad)
                    history.append(energy.level_from_quotient(value))
                    break
            trial_step /= 2.0
        else:
            stop_reason = "no descent direction at minimal step"
            it -= 1
            break
        if (options.checkpoint_path and options.checkpoint_every
                and it % options.checkpoint_every == 0):
            _save_checkpoint(options.checkpoint_path, cfg, grid, params, q_solver, it, rho, y,
                             history)

    if options.checkpoint_path:
        _save_checkpoint(options.checkpoint_path, cfg, grid, params, q_solver, it, rho, y, history)

    c = trials.coefficients(y)
    u = trials.field(c).take(trials.key)  # the class field on the interior
    bias = interpolated_equivariance_bias(c, trials)  # on the bins, before they go
    grad = values = trials = None  # spent: d holds the final gradient's class coordinates
    rel = _relative_residual(y, d, quot)
    min_rel = min(min_rel, rel)
    p, q = work.p, work.q
    # on an extreme radius the Nehari amplitude, and with it the energies of
    # u, can leave the float range: such a candidate is refused below, so
    # numpy's overflow warnings are not wanted while it is measured
    with np.errstate(over="ignore", invalid="ignore"):
        # onto the Nehari manifold: t^(q - p) = K / B, which the last pass
        # gives as quot * scale^(1 - q/p), scale = B^(p/q)
        u *= (quot * np.float64(scale) ** (1.0 - q / p)) ** (1.0 / (q - p))
        # one energy pass gives every end-of-run scalar of u
        kin_w, pot_w, grad_w, gb_w = energy.evaluate(u)
        grad_w /= p  # d J / d node, in place: gk / p - gb / q
        grad_w -= gb_w / q
        del gb_w
        grad_norm = float(np.sqrt(np.sum(grad_w * grad_w) / grid.cell_volume))
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
    w = np.zeros(grid.shape)  # the returned field, the solve's one grid array at its end
    w.reshape(-1)[grid.interior] = u
    del u
    equivariance, sym_gap, cert = grid_certificates(w, cfg, grid)  # of the returned field
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
        class_dimension=dim,
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
        interpolated_bias=bias,
        symmetrization_gap=sym_gap,
        certificate=cert,
        energy_history=tuple(history),
        field=w,
    )
