"""Finite-data model of the block symmetry groups and their sign character.

A symmetry configuration ``(n, alpha, m)`` selects a closed subgroup of O(n)
acting on R^n split into consecutive blocks:

* an optional 4-dimensional "pinwheel" block (present iff ``alpha > 0``),
  acted on by asynchronous complex rotations together with a finite-order
  isometry that mixes the identity with a conjugating 2-cycle,
* ``m[j-1]`` copies of a ``2*(j+1)``-dimensional block, each acted on by
  synchronous complex rotations together with a conjugating (j+1)-cycle,
* a trailing block of leftover coordinates acted on by the full orthogonal
  group whenever its width is not exactly 1 (width 1 forces the trivial
  group, which is what makes the "tail condition" matter downstream).

Every group element has a unique canonical form per factor, so elements are
stored as plain data (integer twist/step exponents, angles, one orthogonal
tail matrix) and composed symbolically.  ``to_matrix`` realises the same
element as an explicit orthogonal matrix; the symbolic composition law is
validated against matrix products in the test suite.  ``to_matrix`` and
``phi`` are the only encoding of how an element moves coordinates and what
sign it carries: the grid-exact lattice subgroup and the stabilizer check
read them.

The sign character ``phi`` is -1 exactly on the odd powers of the twisting
generators; its kernel is index 2, which is the structural fact the
variational solver relies on.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .kvdoc import exact_int, format_value, get_int, get_ints

TWO_PI = 2.0 * math.pi

#: Admissibility regimes for the weighted problem the groups are built for.
#: "a_less_b" and "a_eq_b_zero" accept every configuration passing the size
#: condition; "a_eq_b_nonzero" additionally needs the tail condition and
#: excludes n = 5 (where the tail condition can never hold).
REGIMES = ("a_less_b", "a_eq_b_zero", "a_eq_b_nonzero")

ANGLE_TOL = 1e-12
STABILIZER_TOL = 1e-9  # a witness-branch residual at most this has a fixing angle
ORBIT_TOL = 1e-12  # a coordinate at most this in absolute value is zero


class InvalidConfigError(ValueError):
    """Configuration violates an admissibility condition."""


class GroupOperationError(ValueError):
    """Operands do not live in the same group / dimension."""


def k_of(n: int) -> int:
    """Number of admissible block families in dimension n (= floor(n/2) - 1)."""
    return n // 2 - 1


def admissibility_violation(n: int, s: int, regime: str) -> str | None:
    """Why weighted block sum s is inadmissible in dimension n, or None.

    This is the one admissibility rule: SymmetryConfig enforces it, and
    enumeration and counting filter candidate sums through it.
    """
    if not 0 < 2 * s <= n:
        return f"size condition violated: need 0 < {s} <= {n}/2"
    if regime == "a_eq_b_nonzero":
        if n == 5:
            return "n = 5 is excluded under a_eq_b_nonzero (the tail condition cannot hold)"
        if n - 2 * s == 1:
            return (f"tail condition violated under a_eq_b_nonzero: leftover width is 1 "
                    f"(2*{s} == n - 1 = {n - 1})")
    return None


def _wrap_angle(theta: float) -> float:
    theta = math.fmod(theta, TWO_PI)
    return theta + TWO_PI if theta < 0.0 else theta


def _angles_close(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    d = abs(_wrap_angle(a) - _wrap_angle(b))
    return d <= tol or TWO_PI - d <= tol


@dataclass(frozen=True, slots=True)
class SymmetryConfig:
    """Admissible symmetry configuration (n, alpha, m) under a regime.

    ``n``, ``alpha`` and ``m``'s entries are ints (``kvdoc.exact_int``); ``m``
    may be shorter than ``k_of(n)`` and is padded with zeros.  Validation
    enforces the size condition ``0 < 2*chi + sum(m[j-1]*(j+1)) <= n/2``
    (``chi = 1`` iff ``alpha > 0``), requires ``m != 0`` when ``alpha == 0``,
    and under the "a_eq_b_nonzero" regime also requires the tail condition
    (leftover width != 1) and ``n != 5``.
    """

    n: int
    alpha: int
    m: tuple[int, ...]
    regime: str = "a_less_b"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", exact_int(
            self.n, InvalidConfigError, "n must be an integer >= 4, got {!r}", 4))
        object.__setattr__(self, "alpha", exact_int(
            self.alpha, InvalidConfigError, "alpha must be an integer >= 0, got {!r}", 0))
        if self.regime not in REGIMES:
            raise InvalidConfigError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        k = k_of(self.n)
        try:
            m = tuple(exact_int(v, InvalidConfigError, "m entries must be ints >= 0, got {!r}", 0)
                      for v in self.m)
        except TypeError:
            raise InvalidConfigError(f"m must be a sequence, got {self.m!r}") from None
        if len(m) > k:
            raise InvalidConfigError(f"m has {len(m)} entries but dimension {self.n} admits only {k}")
        m = m + (0,) * (k - len(m))
        object.__setattr__(self, "m", m)
        s = self.weighted_block_sum
        if self.alpha == 0 and s == 0:
            raise InvalidConfigError("alpha = 0 requires at least one block (m != 0)")
        why = admissibility_violation(self.n, s, self.regime)
        if why is not None:
            raise InvalidConfigError(f"{why} for (n={self.n}, alpha={self.alpha}, m={m})")

    @property
    def k(self) -> int:
        return k_of(self.n)

    @property
    def chi(self) -> int:
        """1 iff the pinwheel block is present."""
        return 0 if self.alpha == 0 else 1

    @property
    def weighted_block_sum(self) -> int:
        """2*chi + sum over j of m[j-1]*(j+1); half the occupied width."""
        return 2 * self.chi + sum(mj * (j + 1) for j, mj in enumerate(self.m, start=1))

    @property
    def tail_dim(self) -> int:
        """Width of the leftover coordinate block."""
        return self.n - 2 * self.weighted_block_sum

    @property
    def tail_condition_holds(self) -> bool:
        """True iff the leftover width is not exactly 1."""
        return self.tail_dim != 1

    @property
    def tail_active(self) -> bool:
        """True iff the tail factor is a non-trivial orthogonal group (width >= 2)."""
        return self.tail_dim >= 2


@dataclass(frozen=True)
class BlockSpan:
    """Coordinate span of one rotation block (0-based start, inclusive)."""

    j: int
    ell: int
    start: int
    length: int

    @property
    def stop(self) -> int:
        """0-based exclusive end."""
        return self.start + self.length


@dataclass(frozen=True)
class CoordinateLayout:
    """How R^n splits into pinwheel / rotation blocks / tail for a config."""

    n: int
    pinwheel: BlockSpan | None
    blocks: tuple[BlockSpan, ...]
    tail_start: int
    tail_dim: int
    tail_active: bool


@functools.cache
def make_layout(cfg: SymmetryConfig) -> CoordinateLayout:
    """Assign consecutive coordinate spans to every group factor.

    Blocks are ordered by (j, ell); each ``(j, ell)`` block starts right
    after the previous one, following the closed-form offsets used in the
    stabilizer analysis.  The tail takes whatever is left; it is "active"
    (full orthogonal group) iff its width is at least 2.  Built once per
    config: every element operation reads it.
    """
    offset = 4 if cfg.alpha > 0 else 0
    pin = BlockSpan(j=0, ell=0, start=0, length=4) if cfg.alpha > 0 else None
    blocks = []
    pos = offset
    for j, mj in enumerate(cfg.m, start=1):
        for ell in range(1, mj + 1):
            blocks.append(BlockSpan(j=j, ell=ell, start=pos, length=2 * (j + 1)))
            pos += 2 * (j + 1)
    tail_dim = cfg.n - pos
    assert tail_dim == cfg.tail_dim
    return CoordinateLayout(
        n=cfg.n,
        pinwheel=pin,
        blocks=tuple(blocks),
        tail_start=pos,
        tail_dim=tail_dim,
        tail_active=cfg.tail_active,
    )


# --------------------------------------------------------------------------
# group elements


def twist_order(j: int) -> int:
    """Number of canonical twist exponents for a width-2(j+1) block.

    The conjugating cycle has order 2*(j+1).  When j+1 is even its (j+1)-th
    power is the synchronous rotation by pi, so exponents fold into
    {0..j}; when j+1 is odd all exponents {0..2j+1} are distinct modulo
    rotations.
    """
    return (j + 1) if (j + 1) % 2 == 0 else 2 * (j + 1)


def pinwheel_step_order(alpha: int) -> int:
    """Order of the pinwheel generator: 2^(alpha+2)."""
    return 1 << (alpha + 2)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Canonical-form group element.

    ``pinwheel`` is ``(step, angle)`` with ``step`` modulo ``2^(alpha+2)``
    and ``angle`` the asynchronous rotation angle; ``None`` when
    ``alpha == 0``.  ``blocks`` holds one ``(twist, angle)`` pair per block
    in layout order, ``twist`` being the exponent of the conjugating cycle
    and ``angle`` the synchronous rotation angle.  ``tail`` is an orthogonal
    matrix on the leftover coordinates (``None`` when the tail is empty;
    pinned to the 1x1 identity when the tail has width 1, since that factor
    is trivial by construction).

    Note the pinwheel data is a 2-to-1 cover of the matrix group: step
    ``2^(alpha+1)`` with angle ``t`` acts like step 0 with angle ``t + pi``.
    Composition and the sign character are both constant on those fibres, so
    the redundancy is harmless; equality compares data, not matrices.
    """

    config: SymmetryConfig
    pinwheel: tuple[int, float] | None
    blocks: tuple[tuple[int, float], ...]
    tail: np.ndarray | None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.config != other.config:
            return False
        if (self.pinwheel is None) != (other.pinwheel is None):
            return False
        if self.pinwheel is not None:
            if self.pinwheel[0] != other.pinwheel[0]:
                return False
            if not _angles_close(self.pinwheel[1], other.pinwheel[1]):
                return False
        for (t1, a1), (t2, a2) in zip(self.blocks, other.blocks):
            if t1 != t2 or not _angles_close(a1, a2):
                return False
        if (self.tail is None) != (other.tail is None):
            return False
        if self.tail is not None and not np.allclose(self.tail, other.tail, atol=1e-12, rtol=0.0):
            return False
        return True

    __hash__ = None  # angle comparison is tolerance-based


@functools.cache
def _identity(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only d x d identity, and the bound np.allclose(., eye, atol=1e-10) sets per entry."""
    eye, bound = np.eye(d), 1e-10 + 1e-5 * np.eye(d)
    eye.flags.writeable = bound.flags.writeable = False
    return eye, bound


def _tail_for(layout: CoordinateLayout, matrix: np.ndarray | None) -> np.ndarray | None:
    d = layout.tail_dim
    if d == 0:
        if matrix is not None and np.asarray(matrix).size:
            raise GroupOperationError("config has no tail coordinates")
        return None
    eye, bound = _identity(d)
    if matrix is None:
        return eye.copy()
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (d, d):
        raise GroupOperationError(f"tail matrix must be {d}x{d}, got {matrix.shape}")
    # np.allclose(matrix.T @ matrix, eye, atol=1e-10) without its overhead
    if not (np.abs(matrix.T @ matrix - eye) <= bound).all():
        raise GroupOperationError("tail matrix is not orthogonal")
    if d == 1 and not abs(matrix[0, 0] - 1.0) <= 1e-12 + 1e-5:
        # width-1 tails carry the trivial group only: np.allclose(matrix, eye, atol=1e-12)
        raise GroupOperationError("width-1 tail admits only the identity")
    return matrix


def make_element(cfg: SymmetryConfig,
                 pinwheel: tuple[int, float] | None = None,
                 blocks: tuple[tuple[int, float], ...] | None = None,
                 tail: np.ndarray | None = None) -> GroupElement:
    """Validate and canonicalise raw factor data into a GroupElement."""
    layout = make_layout(cfg)
    if cfg.alpha > 0:
        step, angle = pinwheel if pinwheel is not None else (0, 0.0)
        pin = (int(step) % pinwheel_step_order(cfg.alpha), _wrap_angle(float(angle)))
    else:
        if pinwheel is not None:
            raise GroupOperationError("config has no pinwheel block")
        pin = None
    raw = blocks if blocks is not None else tuple((0, 0.0) for _ in layout.blocks)
    if len(raw) != len(layout.blocks):
        raise GroupOperationError(
            f"expected {len(layout.blocks)} block factors, got {len(raw)}")
    canon = []
    for span, (twist, angle) in zip(layout.blocks, raw):
        order = twist_order(span.j)
        twist = int(twist)
        angle = float(angle)
        if (span.j + 1) % 2 == 0:
            # fold: the (j+1)-th cycle power is the synchronous pi-rotation
            twist %= 2 * (span.j + 1)
            if twist >= span.j + 1:
                twist -= span.j + 1
                angle += math.pi
        else:
            twist %= order
        canon.append((twist, _wrap_angle(angle)))
    return GroupElement(config=cfg, pinwheel=pin, blocks=tuple(canon),
                        tail=_tail_for(layout, tail))


def _random_factors(cfg: SymmetryConfig, rng: np.random.Generator) -> tuple:
    """Uniform pinwheel and block factor data, in ``random_element``'s draw order."""
    layout = make_layout(cfg)
    pin = None
    if cfg.alpha > 0:
        pin = (int(rng.integers(pinwheel_step_order(cfg.alpha))), float(rng.uniform(0.0, TWO_PI)))
    blocks = tuple((int(rng.integers(twist_order(span.j))), float(rng.uniform(0.0, TWO_PI)))
                   for span in layout.blocks)
    return pin, blocks


def random_element(cfg: SymmetryConfig, rng: np.random.Generator) -> GroupElement:
    """Draw factor data uniformly (Haar for the tail via sign-fixed QR)."""
    pin, blocks = _random_factors(cfg, rng)
    tail = None
    if cfg.tail_active:
        d = cfg.tail_dim
        a = rng.standard_normal((d, d))
        q, r = np.linalg.qr(a)
        q = q * np.sign(np.diag(r))
        tail = q
    return make_element(cfg, pinwheel=pin, blocks=blocks, tail=tail)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Canonical form of g followed-after h (x -> g(h(x))).

    Per rotation block the angles combine through the twisted product rule
    ``(t, a) * (t', a') = (t + t', (-1)^{t'} a + a')`` because conjugating
    cycles flip rotation angles; the fold back into canonical range is
    handled by ``make_element``.  The pinwheel factor is abelian and the
    tails multiply as matrices.
    """
    if g.config != h.config:
        raise GroupOperationError("cannot compose elements of different groups")
    pin = None
    if g.pinwheel is not None:
        pin = (g.pinwheel[0] + h.pinwheel[0], g.pinwheel[1] + h.pinwheel[1])
    blocks = tuple(
        (tg + th, (ag if th % 2 == 0 else -ag) + ah)
        for (tg, ag), (th, ah) in zip(g.blocks, h.blocks)
    )
    tail = None if g.tail is None else g.tail @ h.tail
    return make_element(g.config, pinwheel=pin, blocks=blocks, tail=tail)


def inverse(g: GroupElement) -> GroupElement:
    """Raw inverse factors, canonicalised by ``make_element``.

    Under the twisted product rule the inverse of ``(t, a)`` is
    ``(-t, -(-1)^t a)``; folding the negative twist is left to
    ``make_element``.
    """
    pin = None
    if g.pinwheel is not None:
        pin = (-g.pinwheel[0], -g.pinwheel[1])
    blocks = tuple((-t, -a if t % 2 == 0 else a) for t, a in g.blocks)
    tail = None if g.tail is None else g.tail.T.copy()
    return make_element(g.config, pinwheel=pin, blocks=blocks, tail=tail)


def phi(g: GroupElement) -> int:
    """Sign character: parity of the pinwheel step plus all block twists."""
    parity = 0
    if g.pinwheel is not None:
        parity += g.pinwheel[0]
    parity += sum(t for t, _ in g.blocks)
    return -1 if parity % 2 else 1


# --------------------------------------------------------------------------
# concrete actions and matrices


def conj_cycle_matrix(width: int) -> np.ndarray:
    """Real 2w x 2w matrix of the conjugating cycle on C^w (interleaved x,y)."""
    m = np.zeros((2 * width, 2 * width))
    # -conj(z_w) lands in slot 1
    m[0, 2 * width - 2] = -1.0
    m[1, 2 * width - 1] = 1.0
    for i in range(width - 1):
        m[2 * i + 2, 2 * i] = 1.0
        m[2 * i + 3, 2 * i + 1] = -1.0
    return m


def sync_rotation_matrix(width: int, theta: float) -> np.ndarray:
    """Synchronous rotation e^{i theta} on every complex pair of C^w."""
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    # np.kron(np.eye(width), r), signed zeros included, in one product
    return (_identity(width)[0][:, None, :, None] * r[:, None, :]).reshape(2 * width, 2 * width)


def async_rotation_matrix(theta: float) -> np.ndarray:
    """Asynchronous rotation on C^2: (z1, z2) -> (e^{i theta} z1, e^{-i theta} z2)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([
        [c, -s, 0.0, 0.0],
        [s, c, 0.0, 0.0],
        [0.0, 0.0, c, s],
        [0.0, 0.0, -s, c],
    ])


def pinwheel_matrix(alpha: int, step: int = 1) -> np.ndarray:
    """Pinwheel generator power: cos(psi) I + sin(psi) C with psi = step*pi/2^(alpha+1).

    C is the conjugating 2-cycle on C^2; since C^2 = -I the powers
    rotate inside the plane spanned by I and C, giving order 2^(alpha+2).
    """
    psi = step * math.pi / (1 << (alpha + 1))
    return math.cos(psi) * np.eye(4) + math.sin(psi) * conj_cycle_matrix(2)


@functools.cache
def _cycle_powers(width: int) -> list[np.ndarray]:
    base = conj_cycle_matrix(width)
    powers = [np.eye(2 * width)]
    for _ in range(2 * width - 1):
        powers.append(base @ powers[-1])
    return powers


def to_matrix(g: GroupElement) -> np.ndarray:
    """Assemble the n x n orthogonal matrix of a canonical-form element."""
    cfg = g.config
    layout = make_layout(cfg)
    out = np.zeros((cfg.n, cfg.n))
    if layout.pinwheel is not None:
        step, angle = g.pinwheel
        out[0:4, 0:4] = pinwheel_matrix(cfg.alpha, step) @ async_rotation_matrix(angle)
    for span, (twist, angle) in zip(layout.blocks, g.blocks):
        width = span.j + 1
        block = _cycle_powers(width)[twist % (2 * width)] @ sync_rotation_matrix(width, angle)
        out[span.start:span.stop, span.start:span.stop] = block
    if g.tail is not None:
        out[layout.tail_start:, layout.tail_start:] = g.tail
    return out


# --------------------------------------------------------------------------
# structural checks


@dataclass(frozen=True)
class HomomorphismReport:
    passed: bool
    trials: int
    plus_seen: bool
    minus_seen: bool
    first_violation: tuple[GroupElement, GroupElement] | None


def phi_is_homomorphism_check(cfg: SymmetryConfig, trials: int = 2000,
                              seed: int = 0) -> HomomorphismReport:
    """Randomised check that phi(g h) = phi(g) phi(h) and that phi is onto {-1, +1}.

    phi and the pinwheel and block factors of ``compose`` never read the tail,
    so the pairs carry identity tails: Haar tails (``random_element``) would
    give other pairs but the same verdicts, at one QR per draw."""
    rng = np.random.default_rng(seed)
    plus = minus = False
    for _ in range(trials):
        g = make_element(cfg, *_random_factors(cfg, rng))
        h = make_element(cfg, *_random_factors(cfg, rng))
        for e in (g, h):
            if phi(e) == 1:
                plus = True
            else:
                minus = True
        if phi(compose(g, h)) != phi(g) * phi(h):
            return HomomorphismReport(False, trials, plus, minus, (g, h))
    return HomomorphismReport(plus and minus, trials, plus, minus, None)


def stabilizer_witness(cfg: SymmetryConfig) -> np.ndarray:
    """Point whose stabilizer lies in ker(phi): (1,0) on the pinwheel block,
    (1+i, 1, ..., 1) on every rotation block, zero tail."""
    layout = make_layout(cfg)
    x = np.zeros(cfg.n)
    if layout.pinwheel is not None:
        x[0] = 1.0  # (1, 0) in C^2
    for span in layout.blocks:
        x[span.start] = 1.0
        x[span.start + 1] = 1.0  # 1 + i
        for i in range(1, span.j + 1):
            x[span.start + 2 * i] = 1.0
    return x


@dataclass(frozen=True)
class StabilizerBranch:
    """Outcome of one factor-class branch of the stabilizer analysis."""

    label: str
    exponent: int
    residual_min: float
    fixing_angle: float | None
    phi_value: int


@dataclass(frozen=True)
class StabilizerReport:
    passed: bool
    witness: np.ndarray
    branches: tuple[StabilizerBranch, ...]
    certificate: GroupElement | None

    def __bool__(self) -> bool:
        return self.passed


def stabilizer_in_kernel_check(cfg: SymmetryConfig) -> StabilizerReport:
    """Certify that the stabilizer of the witness point lies in ker(phi).

    The group acts blockwise, so the stabilizer is the product of per-block
    stabilizers and it suffices to check each factor class separately.  For
    a fixed twist/step exponent the action on the witness block is
    ``e^{i s theta} w`` with ``w`` the twisted witness and ``s = +-1``, so
    the minimum of ``|g xi - xi|^2`` over the angle is
    ``2 |xi|^2 - 2 |<w, xi>|``; a fixing angle exists iff that is at most
    STABILIZER_TOL, and every such branch must carry sign +1.  Tail factors
    never matter: they always have sign +1.
    """
    layout = make_layout(cfg)
    witness = stabilizer_witness(cfg)
    branches: list[StabilizerBranch] = []
    certificate: GroupElement | None = None
    passed = True

    if layout.pinwheel is not None:
        # action on (1, 0): (cos(psi) e^{i t}, sin(psi) e^{-i t})
        for step in range(pinwheel_step_order(cfg.alpha)):
            psi = step * math.pi / (1 << (cfg.alpha + 1))
            rmin = 2.0 - 2.0 * abs(math.cos(psi))
            fixing = None
            sign = -1 if step % 2 else 1
            if rmin <= STABILIZER_TOL:
                fixing = 0.0 if math.cos(psi) > 0.0 else math.pi
                if sign == -1:
                    passed = False
                    if certificate is None:
                        certificate = make_element(cfg, pinwheel=(step, fixing))
            branches.append(StabilizerBranch("pinwheel", step, rmin, fixing, sign))

    for idx, span in enumerate(layout.blocks):
        x = witness[span.start:span.stop]
        xi = x[0::2] + 1j * x[1::2]
        norm_sq = float(np.vdot(xi, xi).real)
        for twist in range(twist_order(span.j)):
            w = _cycle_powers(span.j + 1)[twist] @ x
            w = w[0::2] + 1j * w[1::2]
            ip = complex(np.vdot(xi, w))  # <w, xi> with numpy's conjugate-first order
            rmin = 2.0 * norm_sq - 2.0 * abs(ip)
            fixing = None
            sign = -1 if twist % 2 else 1
            if rmin <= STABILIZER_TOL:
                # e^{i s} w = xi at s = -arg<w, xi>; angle flips with twist parity
                s = -cmath.phase(ip)
                fixing = _wrap_angle(s if twist % 2 == 0 else -s)
                if sign == -1:
                    passed = False
                    if certificate is None:
                        blocks = [(0, 0.0)] * len(layout.blocks)
                        blocks[idx] = (twist, fixing)
                        certificate = make_element(cfg, blocks=tuple(blocks))
            branches.append(StabilizerBranch(
                f"block[j={span.j},copy={span.ell}]", twist, rmin, fixing, sign))

    return StabilizerReport(passed=passed, witness=witness,
                            branches=tuple(branches), certificate=certificate)


@dataclass(frozen=True)
class OrbitReport:
    kind: str  # "finite_singleton" | "infinite"
    reason: str


def orbit_classify(cfg: SymmetryConfig, x: np.ndarray) -> OrbitReport:
    """Classify the orbit of a point: singleton or infinite.

    Any coordinate above ORBIT_TOL in absolute value inside a rotation or
    pinwheel block is moved along a circle, and a nonzero tail of width >= 2
    is moved along a sphere; otherwise every factor fixes the point.  There
    is nothing in between (finite non-singleton orbits do not occur).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.n,):
        raise GroupOperationError(f"point must have shape ({cfg.n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise GroupOperationError(f"point must be finite, got {x}")
    layout = make_layout(cfg)
    reason = None
    nonzero = np.abs(x) > ORBIT_TOL
    if layout.pinwheel is not None and nonzero[0:4].any():
        reason = "pinwheel block is nonzero; asynchronous rotations sweep a circle"
    if reason is None:
        for span in layout.blocks:
            if nonzero[span.start:span.stop].any():
                reason = (f"block (j={span.j}, copy={span.ell}) is nonzero; "
                          "synchronous rotations sweep a circle")
                break
    if reason is None and layout.tail_active and nonzero[layout.tail_start:].any():
        reason = "tail is nonzero and carries a full orthogonal factor"
    if reason is None:
        if layout.tail_dim == 1 and nonzero[layout.tail_start]:
            reason = "only the width-1 tail is nonzero and its factor is trivial"
        else:
            reason = "every block is zero; the point is fixed by the whole group"
        return OrbitReport("finite_singleton", reason)
    return OrbitReport("infinite", reason)


# --------------------------------------------------------------------------
# serialization


def config_to_pairs(cfg: SymmetryConfig, regime: str | None = None) -> dict[str, str]:
    """n, alpha and m, then ``regime`` if given (a check reports the requested one)."""
    pairs = {"n": format_value(cfg.n), "alpha": format_value(cfg.alpha),
             "m": format_value(cfg.m)}
    if regime is not None:
        pairs["regime"] = regime
    return pairs


def config_from_pairs(pairs: dict[str, str], suffix: str = "",
                      regime: str | None = None) -> SymmetryConfig:
    """The config of n, alpha<suffix>, m<suffix> and ``regime`` or the document's."""
    return SymmetryConfig(get_int(pairs, "n"), get_int(pairs, "alpha" + suffix),
                          get_ints(pairs, "m" + suffix),
                          regime=regime or pairs.get("regime", "a_less_b"))
