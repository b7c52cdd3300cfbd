"""Test helpers that no command or solve path calls: the grid's nodes as a
point cloud and the pointwise sampler the seed is checked against, the
grid symmetrization (the signed lattice average), the energy value and its
node gradient as a grid field, the closed-form energies behind criterion
8, a typed reader of ``report.txt``,
signed permutations acting on points and composed, the sampling subgroup
built element by element, which the per-factor build is checked against,
the quotient and its node
gradient from one interior energy pass, which the solver's trial passes
are checked against, the class space as a solve's trial pass builds it,
the class synthesis E and its adjoint contracted over
the whole cube, which the bin maps are checked against, the class
projection through the tensor average that the pull-back through S is
checked against, the pointwise read of a class profile that the
interpolated bias is checked against, the class Hessian by one energy pass per column, which the
factored build is checked against, and by one contraction per tail index,
which the blocked build is checked against bit for bit, the certificates read over every
lattice element's view of the whole cube, which the interior read is
checked against, the all-pairs code closure that the
orbit-representative one is checked against, the recursive multiplicity
tuples that the flat enumeration is checked against, and a traced heap peak."""

import functools
import itertools
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from cknsym.grid import BallGrid
from cknsym.kvdoc import get_float, get_int, get_ints, parse_kv
from cknsym.lattice import (
    LatticeElement,
    SignedPerm,
    apply_perm_to_grid,
    axis_orbits,
    lattice_subgroup,
)
from cknsym.symmetry import (
    GroupOperationError,
    InvalidConfigError,
    SymmetryConfig,
    k_of,
    make_element,
    make_layout,
    phi,
    to_matrix,
    twist_order,
)
from cknsym.variational import (
    INTERPOLATED_SAMPLES,
    DiscreteEnergy,
    ProblemParams,
    SignCertificate,
    UnsupportedConfigError,
    VariationalError,
    _axis_weights,
    _BinPass,
    _catmull_rom_matrix,
    _contract_planes,
    _plane_radius_bins,
    _tensor_action,
    params_for_config,
)


def grid_points(grid: BallGrid) -> np.ndarray:
    """All nodes as an (N^n, n) array, C order."""
    return np.stack(np.meshgrid(*([grid.axis] * grid.n), indexing="ij")).reshape(grid.n, -1).T


def field_from_function(grid: BallGrid, fn) -> np.ndarray:
    """Sample fn at interior nodes (zero outside); fn maps (m, n) points to m values."""
    vals = np.asarray(fn(grid_points(grid)), dtype=float).reshape(grid.shape)
    return np.where(grid.mask, vals, 0.0)


@dataclass(frozen=True)
class GaussianProfile:
    """lam^gamma exp(-|lam x|^2 / (2 w^2)) with its closed-form gradient."""

    width: float
    lam: float = 1.0
    gamma: float = 0.0

    def values(self, pts: np.ndarray) -> np.ndarray:
        r2 = np.sum((self.lam * pts) ** 2, axis=1)
        return self.lam ** self.gamma * np.exp(-r2 / (2.0 * self.width ** 2))

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        v = self.values(pts)
        return v[:, None] * (-(self.lam ** 2) * pts / self.width ** 2)


def analytic_energy(grid: BallGrid, params: ProblemParams, profile) -> float:
    """J evaluated by quadrature of closed-form values and gradients.

    For smooth profiles vanishing well inside the ball, midpoint quadrature
    of analytic integrands is spectrally accurate, so this path isolates the
    functional itself from difference-stencil error.  ``profile`` needs
    ``values(pts)`` and ``gradients(pts)`` over (m, n) point arrays.
    """
    pts = grid_points(grid)
    inside = grid.mask.ravel()
    u = np.asarray(profile.values(pts), dtype=float).ravel()[inside]
    du = np.asarray(profile.gradients(pts), dtype=float)[inside]
    grad_mag = np.sqrt(np.sum(du * du, axis=1))
    w_grad = (grid.weight_values(params.grad_weight_exponent)
              if params.grad_weight_exponent != 0.0 else 1.0)
    w_pot = (grid.weight_values(params.potential_weight_exponent)
             if params.potential_weight_exponent != 0.0 else 1.0)
    kin = grid.cell_volume * float(np.sum(w_grad * grad_mag ** params.p))
    pot = grid.cell_volume * float(np.sum(w_pot * np.abs(u) ** params.q))
    return kin / params.p - pot / params.q


def dilation_invariance_gap(params: ProblemParams, grid: BallGrid,
                            lams: tuple[float, ...] = (0.5, 2.0),
                            width: float = 0.12) -> float:
    """Worst relative J deviation under the critical rescaling family.

    The base profile and each rescaled profile are closed-form Gaussians, so
    the only deviation sources are quadrature and ball truncation; the
    continuum J is exactly invariant along the family.
    """
    base = GaussianProfile(width)
    j0 = analytic_energy(grid, params, base)
    scale = abs(j0)
    worst = 0.0
    for lam in lams:
        scaled = GaussianProfile(width, lam=lam, gamma=params.gamma)
        j1 = analytic_energy(grid, params, scaled)
        worst = max(worst, abs(j1 - j0) / scale)
    return worst


def report_summary_from_doc(text: str) -> dict:
    """Parse a report doc back into typed scalars (field data is not stored);
    DocumentError on a malformed value."""
    pairs = parse_kv(text)
    out: dict = {}
    for key, raw in pairs.items():
        if key in ("regime", "stop reason"):
            out[key] = raw
        elif key in ("converged", "sign certified"):
            out[key] = raw == "yes"
        elif key == "m":
            out[key] = get_ints(pairs, key)
        elif key in ("n", "alpha", "grid points", "class dimension", "iterations"):
            out[key] = get_int(pairs, key)
        else:
            out[key] = get_float(pairs, key, None)
    return out


def identity_perm(n: int) -> SignedPerm:
    return SignedPerm(tuple(range(n)), (1,) * n)


def compose_perms(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """Signed permutation of x -> a(b(x))."""
    if a.n != b.n:
        raise GroupOperationError("signed permutations of different sizes")
    source = tuple(b.source[a.source[i]] for i in range(a.n))
    signs = tuple(a.signs[i] * b.signs[a.source[i]] for i in range(a.n))
    return SignedPerm(source, signs)


def apply_point(perm: SignedPerm, x: np.ndarray) -> np.ndarray:
    """perm applied to the points along x's last axis."""
    x = np.asarray(x)
    return np.asarray(perm.signs) * x[..., list(perm.source)]


def perm_matrix(perm: SignedPerm) -> np.ndarray:
    m = np.zeros((perm.n, perm.n))
    for i, (src, s) in enumerate(zip(perm.source, perm.signs)):
        m[i, src] = s
    return m


def lattice_subgroup_by_elements(cfg: SymmetryConfig) -> tuple[LatticeElement, ...]:
    """The sampling subgroup built element by element: each canonical
    quarter-turn element is made whole, its signed permutation read off its
    full ``to_matrix`` and its sign off ``phi``, in ``lattice_subgroup``'s
    order (pinwheel slowest, then the blocks, then the tail)."""
    layout = make_layout(cfg)
    quarters = [k * math.pi / 2.0 for k in range(4)]
    pinwheel = [None]
    if layout.pinwheel is not None:
        pinwheel = [(step, a) for step in (0, 1 << cfg.alpha) for a in quarters]
    blocks = [[(t, a) for t in range(twist_order(span.j)) for a in quarters]
              for span in layout.blocks]
    tails = [None]
    if layout.tail_active:
        d = layout.tail_dim
        tails = [np.diag(flips) @ np.eye(d)[list(perm)]
                 for perm in itertools.permutations(range(d))
                 for flips in itertools.product((1, -1), repeat=d)]
    elements = []
    for pin, *blk, tail in itertools.product(pinwheel, *blocks, tails):
        g = make_element(cfg, pinwheel=pin, blocks=tuple(blk), tail=tail)
        elements.append(LatticeElement(SignedPerm.from_matrix(to_matrix(g)), phi(g)))
    return tuple(elements)


def tensor_average(coefficients: np.ndarray, cfg: SymmetryConfig) -> np.ndarray:
    """The sampling subgroup's signed average applied to class coefficients."""
    acc = np.zeros(coefficients.shape)
    for perm, w in _tensor_action(cfg.n, cfg.alpha, cfg.m):
        acc += w * apply_perm_to_grid(coefficients, perm)
    return acc


def plane_profile_by_nodes(points_per_axis: int) -> np.ndarray:
    """The plane profile basis Q (N^2 x r) taken over every plane node: the
    left singular vectors, with singular values above 1e-6 of the largest,
    of the Catmull-Rom reads at each node's own hypot on a unit-radius axis,
    so rows of one radius agree only to rounding."""
    h = 2.0 / (points_per_axis - 1)
    axis = -1.0 + h * np.arange(points_per_axis)
    n_rad = int(math.ceil(math.sqrt(2.0) / h)) + 4
    reads = _catmull_rom_matrix(np.hypot(axis[:, None], axis[None, :]).ravel() / h, n_rad,
                                radial=True)
    left, sing, _ = np.linalg.svd(reads, full_matrices=False)
    return left[:, sing > 1e-6 * sing[0]]


@functools.cache
def class_space(cfg: SymmetryConfig, grid: BallGrid) -> _BinPass:
    """The class space of cfg on grid as ``solve``'s p = 2 trial pass holds
    it, for the energy of cfg's regime (without the metric, which its maps
    do not read)."""
    return _BinPass(DiscreteEnergy(grid, params_for_config(cfg)), cfg)


def class_field(coefficients: np.ndarray, cfg: SymmetryConfig, grid: BallGrid) -> np.ndarray:
    """The grid field E c of class coefficients c, each rotation plane's axis
    contracted with Q over the whole cube."""
    space = class_space(cfg, grid)
    rows = space.rows[space.ids]
    return _contract_planes(coefficients, [rows] * space.planes).reshape(grid.shape)


def class_adjoint(values: np.ndarray, cfg: SymmetryConfig, grid: BallGrid) -> np.ndarray:
    """E^T u: each rotation plane of grid field u contracted with Q^T over
    the whole cube, leading plane first."""
    space = class_space(cfg, grid)
    split = (grid.points_per_axis ** 2,) * space.planes + space.shape[space.planes:]
    return _contract_planes(np.reshape(values, split), [space.rows[space.ids].T] * space.planes)


def class_coordinates(values: np.ndarray, cfg: SymmetryConfig, grid: BallGrid,
                      basis: tuple[np.ndarray, np.ndarray, int]) -> np.ndarray:
    """S^T E^T u: the coordinates in ``basis`` of grid field u's orthogonal
    projection onto the class, S^T binning E^T u through col and val."""
    col, val, dim = basis
    return np.bincount(col, val * class_adjoint(values, cfg, grid).ravel(),
                       minlength=dim + 1)[:dim]


def class_coefficients(values: np.ndarray, cfg: SymmetryConfig, grid: BallGrid) -> np.ndarray:
    """The coefficients of u's orthogonal projection onto the class, as E^T u
    followed by the tensor average: E^T symmetrize(u) in exact arithmetic."""
    return tensor_average(class_adjoint(values, cfg, grid), cfg)


def class_values(coefficients: np.ndarray, grid: BallGrid, pts: np.ndarray) -> np.ndarray:
    """E c at the rows of pts (m x n), read through their plane radii and tail
    coordinates, in point chunks whose intermediate fits in one grid array."""
    planes = grid.n - coefficients.ndim
    chunk = math.prod(grid.shape) // math.prod(coefficients.shape[1:])
    out = []
    for part in np.split(pts, range(chunk, len(pts), chunk)):
        coords = [np.hypot(*part[:, 2 * k:2 * k + 2].T) for k in range(planes)]
        vals = coefficients[None]
        for ax, x in enumerate(coords + list(part[:, 2 * planes:].T)):  # pointwise contractions
            vals = np.einsum("ia,ia...->i...", _axis_weights(grid, x, ax < planes), vals)
        out.append(vals)
    return np.concatenate(out)


def pointwise_bias(coefficients: np.ndarray, cfg: SymmetryConfig, grid: BallGrid) -> float:
    """The interpolated bias read pointwise: E c at every interior node moved
    by full-group elements g, against phi(g) E c.  The k-th g rotates the
    first two tail axes by the bias's k-th angle, (k + 1) pi / (4
    INTERPOLATED_SAMPLES), and has nontrivial pinwheel and block factors:
    odd pinwheel steps, every twist in turn and off-lattice angles."""
    u = class_field(coefficients, cfg, grid)
    peak = float(np.max(np.abs(u)))
    if peak == 0.0:
        return 0.0
    layout = make_layout(cfg)
    inside = grid.mask.ravel()
    pts = grid_points(grid)[inside]
    own = u.ravel()[inside]
    worst = 0.0
    for k in range(INTERPOLATED_SAMPLES):
        theta = (k + 1) * math.pi / (4 * INTERPOLATED_SAMPLES)
        tail = None
        if layout.tail_active:
            tail = np.eye(layout.tail_dim)
            tail[:2, :2] = ((math.cos(theta), -math.sin(theta)), (math.sin(theta), math.cos(theta)))
        g = make_element(cfg, pinwheel=(2 * k + 1, 0.3 * (k + 1)) if cfg.alpha else None,
                         blocks=tuple((k + b + 1, 0.7 * (k + 1) + b)
                                      for b in range(len(layout.blocks))),
                         tail=tail)
        resid = np.abs(class_values(coefficients, grid, pts @ to_matrix(g).T) - phi(g) * own)
        worst = max(worst, float(np.max(resid)))
    return worst / peak


def symmetrize(values: np.ndarray, cfg: SymmetryConfig, grid: BallGrid) -> np.ndarray:
    """Average sign(g) * u(g x) over the sampling subgroup: an exact projection."""
    elements = lattice_subgroup(cfg)
    acc = np.zeros(grid.shape)
    for e in elements:  # in place, reading each element's permuted view of values
        (np.add if e.sign > 0 else np.subtract)(acc, apply_perm_to_grid(values, e.perm), out=acc)
    return np.divide(acc, len(elements), out=acc)


def to_cube(grid: BallGrid, values: np.ndarray) -> np.ndarray:
    """The grid field holding an interior vector on the interior, 0 elsewhere."""
    out = np.zeros(grid.shape)
    out.reshape(-1)[grid.interior] = values
    return out


def energy_value(energy: DiscreteEnergy, u: np.ndarray) -> float:
    """J = K / p - B / q of the grid field u, from the grid views."""
    return energy.kinetic(u) / energy.params.p - energy.potential(u) / energy.params.q


def energy_gradient(energy: DiscreteEnergy, u: np.ndarray) -> np.ndarray:
    """d J / d node as a grid field, exactly: one energy pass on the interior
    values of u, scattered onto the grid; it vanishes off the interior."""
    _, _, gk, gb = energy.evaluate(np.take(u, energy.grid.interior))
    return to_cube(energy.grid, gk / energy.params.p - gb / energy.params.q)


def quotient_and_gradient(energy: DiscreteEnergy,
                          u: np.ndarray) -> tuple[float, np.ndarray, float]:
    """The quotient K / B^(p/q), its interior node gradient and B^(p/q),
    from one energy pass on the interior values of the grid field u."""
    k, b, gk, gb = energy.evaluate(np.take(u, energy.grid.interior))
    if not (k > 0 and b > 0):
        raise VariationalError("quotient needs a nonzero field inside the ball")
    r = energy.params.p / energy.params.q
    return k / b ** r, (gk - r * (k / b) * gb) / b ** r, b ** r


def class_hessian_by_columns(energy: DiscreteEnergy, space: _BinPass) -> np.ndarray:
    """S^T E^T L E S column by column, for a p = 2 energy: column j is the
    in-class kinetic gradient of the class field of S e_j, from one energy
    pass, read back through E^T and S^T."""
    cfg, grid, dim = space.cfg, energy.grid, space.basis[2]
    out = np.zeros((dim, dim))
    for j, y in enumerate(np.eye(dim)):
        gk = energy.evaluate(class_field(space.coefficients(y), cfg, grid).take(grid.interior))[2]
        out[:, j] = class_coordinates(to_cube(grid, gk), cfg, grid, space.basis)
    return out


def class_hessian_per_tail(energy: DiscreteEnergy, space: _BinPass) -> np.ndarray:
    """``variational._class_hessian`` with one contraction and one scatter
    per tail index, in the order the blocked build adds its terms: the
    blocked H is checked against it bit for bit."""
    g, cfg, ids, rows, planes = energy.grid, space.cfg, space.ids, space.rows, space.planes
    col, val, dim = space.basis
    npts, (size, r) = g.points_per_axis, rows.shape
    tails = npts ** (g.n - 2 * planes)
    col, val = col.reshape(-1, tails), val.reshape(-1, tails)
    fwd, bwd = g.neighbours
    w = np.append(energy._w_grad_in, 0.0) * (g.cell_volume / g.h ** 2)  # zero sentinel
    same = (rows[:, :, None] * rows[:, None, :]).reshape(size, r * r).T
    ij, ji = (r, 1) * planes, (1, r) * planes  # i and i' of each plane's pair axes
    acc = np.zeros((dim + 1) ** 2)
    orbits = axis_orbits(cfg)
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
        for t in range(tails - step):  # past the last tail index no pair is interior
            part = _contract_planes(binned[..., t], tables).reshape((r, r) * planes)
            part *= val[:, t].reshape(ij)
            part *= val[:, t + step].reshape(ji)
            pairs = col[:, t].reshape(ij) * (dim + 1) + col[:, t + step].reshape(ji)
            np.add.at(acc, pairs.ravel(), part.ravel())
        del part, pairs  # before the next term builds its own
    h = acc.reshape(dim + 1, dim + 1)[:dim, :dim]
    return h + h.T


def view_certificates(values: np.ndarray,
                      cfg: SymmetryConfig) -> tuple[float, float, SignCertificate]:
    """``grid_certificates`` read over the whole cube, through each lattice
    element's view of u, one leading slice at a time: the interior read is
    checked against it bit for bit, and it also accepts a field that is
    nonzero off the interior."""
    elements = lattice_subgroup(cfg)
    flip = next((j for j, e in enumerate(elements) if e.sign < 0), None)
    if flip is None:
        raise UnsupportedConfigError(
            "sampling subgroup has no sign-reversing element; a sign change "
            "cannot be certified on this grid")
    idx = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
    peak = float(abs(values[idx])) or 1.0  # a zero field reads 0 throughout
    views = [apply_perm_to_grid(values, e.perm) for e in elements]
    acc, diff = np.empty(values.shape[1:]), np.empty(values.shape[1:])
    tops, gap = [0.0] * len(elements), 0.0  # each element's max |diff|, the gap's max
    for k in range(values.shape[0]):  # one leading slice at a time
        acc.fill(0.0)
        for j, (e, moved) in enumerate(zip(elements, views)):
            # copied, then in place: a ufunc reading the strided view buffers it, slower
            np.copyto(diff, moved[k])
            (np.subtract if e.sign > 0 else np.add)(diff, values[k], out=diff)
            (np.add if e.sign > 0 else np.subtract)(acc, diff, out=acc)
            tops[j] = max(tops[j], float(np.max(np.abs(diff, out=diff))))
        gap = max(gap, float(np.max(np.abs(acc, out=acc))))
    cert = SignCertificate(node_index=tuple(int(i) for i in idx), value=float(values[idx]),
                           mapped_value=float(views[flip][idx]), element_sign=-1,
                           antisymmetry_residual=tops[flip] / peak,
                           max_value=float(values.max()), min_value=float(values.min()))
    return max(tops) / peak, gap / len(elements) / peak, cert


def traced_peak(call) -> int:
    """Bytes the heap grows to above its start while call() runs."""
    # numpy.random's first-use import, once per process and untraced: the
    # homomorphism check draws from it; a solve and a closure do not
    np.random.default_rng(0)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    call()
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak


def pair_closure(t: int, seeds: list[int]) -> frozenset[int]:
    """Smallest code containing the packed seeds, by all-pairs saturation.

    Each round pairs every new word with every word found so far (cycles,
    plus xor of comparable pairs) and keeps what is new; pairs internal to
    a round are covered the round after.  No orbit structure is used, so
    it checks the orbit-representative ``codes.closure`` independently of
    its cycling argument, at lengths where plain-set saturation is slow.
    """
    if not seeds:
        return frozenset()
    mask = (1 << t) - 1
    total = np.unique(np.array(seeds, dtype=np.int64))
    frontier = total
    while frontier.size:
        fresh = [((frontier << 1) & mask) | (frontier >> (t - 1))]
        for lo in range(0, frontier.size, 512):
            f = frontier[lo:lo + 512, None]
            meet = f & total[None, :]
            comparable = (meet == f) | (meet == total[None, :])
            fresh.append((f ^ total[None, :])[comparable])
        candidates = np.unique(np.concatenate(fresh))
        frontier = candidates[~np.isin(candidates, total)]
        total = np.union1d(total, frontier)
    return frozenset(int(w) for w in total)


def recursive_multiplicity_tuples(k: int, budget: int):
    """All (m_1..m_k) >= 0 with sum m_j (j+1) <= budget, lexicographic, by one
    nested generator per slot."""
    def rec(slot, remaining, prefix):
        if slot == k:
            yield prefix
            return
        width = slot + 2
        for count in range(remaining // width + 1):
            yield from rec(slot + 1, remaining - count * width, prefix + (count,))
    yield from rec(0, budget, ())


def recursive_enumerate_configs(n: int, regime: str = "a_less_b",
                                alpha_max: int = 0) -> tuple[SymmetryConfig, ...]:
    """enumerate_configs with the tuples rebuilt from the recursion for every alpha."""
    out = []
    for alpha in range(alpha_max + 1):
        budget = n // 2 - (2 if alpha > 0 else 0)
        if budget < 0:
            continue
        for m in recursive_multiplicity_tuples(k_of(n), budget):
            try:
                out.append(SymmetryConfig(n, alpha, m, regime=regime))
            except InvalidConfigError:
                pass
    return tuple(out)

