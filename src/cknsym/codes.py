"""Cyclic binary codes attached to block rotations, and the distinctness test.

A length-t code here is a set of binary words closed under (i) cycling one
step to the right and (ii) adding two words one of which dominates the other
componentwise.  Such sets classify which componentwise rotation angles of a
width-t complex block leave a given function invariant.  The central
computational fact: if the words with r leading ones and s leading ones both
belong to a code and gcd(r, s) = 1, a remainder iteration of sums and cycles
derives the word with a single leading one, and with it the whole standard
basis.  ``euclid_reduce`` materialises that derivation as a checkable trace.

``distinct_guaranteed`` is the criterion for two symmetry configurations to
force genuinely different equivariant function classes: different pinwheel
levels always do; equal levels need the block multiplicity tuples to be
comparable in the truncated-prefix order or to have coprime interacting
block widths.

Words are stored bit-packed (bit i = component i+1), codes as frozen sets of
packed integers; ``closure`` saturates a code one cycle orbit at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .symmetry import BlockSpan, SymmetryConfig, make_layout

ROTATION_ANGLES, ROTATION_POINTS, ROTATION_SEED = 12, 64, 0  # samples per word, their seed
ROTATION_TOL = 1e-8  # a word whose worst residual stays below this enters the code


def _coerce_bits(value, t: int | None = None) -> tuple[int, ...]:
    if isinstance(value, Codeword):
        return value.bits
    if isinstance(value, str):
        if not all(ch in "01" for ch in value):
            raise ValueError(f"bitstring must contain only 0/1, got {value!r}")
        return tuple(int(ch) for ch in value)
    if isinstance(value, int):
        if t is None:
            raise ValueError("packed integers need an explicit length")
        return unpack(value, t)
    bits = tuple(int(b) for b in value)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0/1, got {bits}")
    return bits


def pack(bits: Sequence[int]) -> int:
    word = 0
    for i, b in enumerate(bits):
        if b:
            word |= 1 << i
    return word


def unpack(word: int, t: int) -> tuple[int, ...]:
    return tuple((word >> i) & 1 for i in range(t))


@dataclass(frozen=True)
class Codeword:
    """Binary word (c_1, ..., c_t); renders as the bitstring c_1 c_2 ... c_t."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", _coerce_bits(self.bits))
        if not self.bits:
            raise ValueError("codewords must have positive length")

    @property
    def t(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)

    @property
    def packed(self) -> int:
        return pack(self.bits)

    def cycle(self) -> "Codeword":
        """Right rotation: (c_1, ..., c_t) -> (c_t, c_1, ..., c_{t-1})."""
        return Codeword(self.bits[-1:] + self.bits[:-1])

    def dominates(self, other: "Codeword") -> bool:
        """True iff other <= self componentwise."""
        return all(a >= b for a, b in zip(self.bits, other.bits))

    def __xor__(self, other: "Codeword") -> "Codeword":
        if self.t != other.t:
            raise ValueError("length mismatch")
        return Codeword(tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def v_word(t: int, r: int) -> Codeword:
    """The word with r leading ones."""
    if not 0 <= r <= t:
        raise ValueError(f"need 0 <= r <= t, got r={r}, t={t}")
    return Codeword((1,) * r + (0,) * (t - r))


def basis_word(t: int, i: int) -> Codeword:
    """Standard basis word with a single one in position i (1-based)."""
    return Codeword(tuple(1 if k == i - 1 else 0 for k in range(t)))


@dataclass(frozen=True)
class Code:
    """Set of length-t words; closure axioms are checkable, not implicit."""

    t: int
    packed_words: frozenset[int]

    def __contains__(self, word) -> bool:
        bits = _coerce_bits(word, self.t)
        if len(bits) != self.t:
            return False
        return pack(bits) in self.packed_words

    def __len__(self) -> int:
        return len(self.packed_words)

    def words(self) -> tuple[Codeword, ...]:
        return tuple(Codeword(unpack(w, self.t)) for w in sorted(self.packed_words))

    def axiom_violations(self) -> tuple[str, ...]:
        """Exhaustive check of cycle closure and comparable-sum closure."""
        mask = (1 << self.t) - 1
        out: list[str] = []
        words = sorted(self.packed_words)
        for w in words:
            c = ((w << 1) & mask) | (w >> (self.t - 1))
            if c not in self.packed_words:
                out.append(f"cycle of {unpack(w, self.t)} missing")
        for a in words:
            for b in words:
                if a & b == a and (a ^ b) not in self.packed_words:
                    out.append(f"sum of comparable pair {unpack(a, self.t)} <= "
                               f"{unpack(b, self.t)} missing")
        return tuple(out)

    def is_code(self) -> bool:
        return not self.axiom_violations()

    def to_bitstrings(self) -> tuple[str, ...]:
        return tuple(str(w) for w in self.words())


def code_from_bitstrings(t: int, strings: Iterable[str]) -> Code:
    packed = set()
    for s in strings:
        bits = _coerce_bits(s)
        if len(bits) != t:
            raise ValueError(f"word {s!r} has length {len(bits)}, expected {t}")
        packed.add(pack(bits))
    return Code(t, frozenset(packed))


def _rotations(words: np.ndarray, t: int) -> np.ndarray:
    """(t, len(words)) array whose row k cycles every word k steps right."""
    k = np.arange(t, dtype=np.int64)[:, None]
    return ((words << k) | (words >> (t - k))) & ((1 << t) - 1)


def _distinct(words: np.ndarray) -> np.ndarray:
    """The distinct words, ascending: ``np.unique`` without the numpy.ma
    import its first call pays."""
    words = np.sort(words, axis=None)
    keep = np.ones(words.size, dtype=bool)
    np.not_equal(words[1:], words[:-1], out=keep[1:])
    return words[keep]


def closure(t: int, seeds: Iterable) -> Code:
    """Smallest code containing the seeds.

    Saturation on bit-packed words, one cycle orbit at a time.  Cycling
    commutes with the comparable sum (a <= b gives cyc a <= cyc b, and
    cyc(a ^ b) = cyc a ^ cyc b), so the found set is kept closed under
    cycling and only each orbit's representative (its smallest rotation)
    is paired with it: the pair (cyc^k r, b) is (r, cyc^-k b) cycled k
    times.  Each round reduces the sums to representatives, adds the new
    orbits whole, then pairs their representatives with the found set;
    pairs internal to a round are thus covered in that round.
    """
    if t < 1:
        raise ValueError("t must be positive")
    seed_packed = []
    for s in seeds:
        bits = _coerce_bits(s, t)
        if len(bits) != t:
            raise ValueError(f"seed {s!r} has length {len(bits)}, expected {t}")
        seed_packed.append(pack(bits))
    total = np.zeros(0, dtype=np.int64)
    fresh = [np.array(seed_packed, dtype=np.int64)]
    while True:
        reps = _distinct(_rotations(_distinct(np.concatenate(fresh)), t).min(axis=0))
        # both ascend: a rep absent from total has one insertion point in it
        frontier = reps[np.searchsorted(total, reps) == np.searchsorted(total, reps, "right")]
        if not frontier.size:
            return Code(t, frozenset(int(w) for w in total))
        total = _distinct(np.concatenate((total, _rotations(frontier, t).ravel())))
        fresh = []
        for lo in range(0, frontier.size, 64):
            f = frontier[lo:lo + 64, None]
            meet = f & total
            fresh.append((f ^ total)[(meet == f) | (meet == total)])


def contains_standard_basis(code: Code) -> bool:
    return all(basis_word(code.t, i) in code for i in range(1, code.t + 1))


# --------------------------------------------------------------------------
# the coprime remainder derivation


@dataclass(frozen=True)
class DerivationStep:
    op: str  # "sum" | "cycle"
    operands: tuple[Codeword, ...]
    result: Codeword


@dataclass(frozen=True)
class EuclidTrace:
    t: int
    r: int
    s: int
    steps: tuple[DerivationStep, ...]
    remainders: tuple[int, ...]
    final: Codeword


def _segment_word(t: int, lo: int, hi: int) -> Codeword:
    """Ones in positions lo+1 .. hi (1-based)."""
    return Codeword(tuple(1 if lo <= k < hi else 0 for k in range(t)))


def euclid_reduce(t: int, r: int, s: int) -> EuclidTrace:
    """Derive the single-leading-one word from the r- and s-leading-one words.

    Mirrors the remainder iteration of the euclidean algorithm: as long as
    the pair is (a, b) with a < b, sum the comparable pair (v_a, v_b) to get
    the word with ones in positions a+1..b, then cycle it t-a times to slide
    those ones to the front, producing v_{b-a}.  Macro remainders (one per
    modulus step) are recorded alongside the fine-grained step list; every
    intermediate word stays inside closure({v_r, v_s}) by construction.
    """
    if not (0 < r < s <= t):
        raise ValueError(f"need 0 < r < s <= t, got r={r}, s={s}, t={t}")
    if math.gcd(r, s) != 1:
        raise ValueError(f"gcd(r, s) must be 1, got gcd({r}, {s}) = {math.gcd(r, s)}")
    steps: list[DerivationStep] = []
    remainders: list[int] = []

    def subtract(a: int, b: int) -> int:
        # from v_a and v_b (a < b) derive v_{b-a}
        seg = _segment_word(t, a, b)
        steps.append(DerivationStep("sum", (v_word(t, a), v_word(t, b)), seg))
        cur = seg
        for _ in range(t - a):
            nxt = cur.cycle()
            steps.append(DerivationStep("cycle", (cur,), nxt))
            cur = nxt
        assert cur == v_word(t, b - a)
        return b - a

    a, b = r, s
    while a != 1:
        rem = b % a
        while b > a:
            b = subtract(a, b)
        # now b = rem (the macro remainder); swap roles
        assert b == rem and rem != 0
        remainders.append(rem)
        a, b = rem, a
    return EuclidTrace(t=t, r=r, s=s, steps=tuple(steps),
                       remainders=tuple(remainders), final=v_word(t, 1))


# --------------------------------------------------------------------------
# distinctness criterion for configuration pairs


def tuple_lesssim(m: Sequence[int], w: Sequence[int]) -> bool:
    """Truncated-prefix order: equal before some slot, smaller there, zero after."""
    if len(m) != len(w):
        raise ValueError("multiplicity tuples must have equal length")
    for ell in range(len(m)):
        if m[ell] == w[ell]:
            continue
        if m[ell] < w[ell]:
            return all(v == 0 for v in m[ell + 1:])
        return False
    return False  # equal tuples are not strictly below


def tuple_gcd(m: Sequence[int], w: Sequence[int]) -> int:
    """Largest gcd of interacting block widths, 1 if none interact.

    Widths are j+1 for supported slots; only pairs with different j count.
    An empty interaction set (either tuple zero, or supports meeting only
    on the diagonal) yields 1.
    """
    best = 1
    for j, mj in enumerate(m, start=1):
        if mj == 0:
            continue
        for ell, wl in enumerate(w, start=1):
            if wl == 0 or ell == j:
                continue
            best = max(best, math.gcd(j + 1, ell + 1))
    return best


@dataclass(frozen=True)
class DistinctVerdict:
    guaranteed: bool
    reason: str

    def __bool__(self) -> bool:
        return self.guaranteed


def distinct_guaranteed(c1: SymmetryConfig, c2: SymmetryConfig) -> DistinctVerdict:
    """Decide whether two configurations certify distinct equivariant classes.

    Different pinwheel levels always do.  At equal levels the multiplicity
    tuples must differ, and then either be comparable in the truncated
    prefix order or have coprime interacting widths.  Anything else is
    reported not guaranteed (the same function can carry both symmetries).
    """
    if c1.n != c2.n:
        raise ValueError(f"configurations live in different dimensions: {c1.n} != {c2.n}")
    if c1.alpha != c2.alpha:
        return DistinctVerdict(True, "pinwheel levels differ")
    if c1.m == c2.m:
        return DistinctVerdict(False, "identical configurations")
    if tuple_lesssim(c1.m, c2.m) or tuple_lesssim(c2.m, c1.m):
        return DistinctVerdict(True, "multiplicities comparable in the truncated-prefix order")
    g = tuple_gcd(c1.m, c2.m)
    if g == 1:
        return DistinctVerdict(True, "interacting block widths are coprime")
    return DistinctVerdict(False, f"no criterion applies (interacting width gcd {g})")


# --------------------------------------------------------------------------
# empirical rotation-invariance codes


def componentwise_rotation_points(points: np.ndarray, span: BlockSpan,
                                  word: Sequence[int], theta: float) -> np.ndarray:
    """Rotate the span's complex coordinates selected by the word through theta."""
    points = np.asarray(points, dtype=float)
    return points @ componentwise_rotation_matrix(points.shape[1], span, word, theta).T


def componentwise_rotation_matrix(n: int, span: BlockSpan, word: Sequence[int],
                                  theta: float) -> np.ndarray:
    """n x n matrix rotating the span's complex coordinates selected by the word."""
    bits = _coerce_bits(word)
    if len(bits) != span.length // 2:
        raise ValueError(f"word length {len(bits)} does not match block width {span.length // 2}")
    m = np.eye(n)
    c, s = math.cos(theta), math.sin(theta)
    for i, b in enumerate(bits):
        if b:
            lo = span.start + 2 * i
            m[lo:lo + 2, lo:lo + 2] = [[c, -s], [s, c]]
    return m


@dataclass(frozen=True)
class RotationCodeReport:
    code: Code
    residuals: dict[tuple[int, ...], float]
    axiom_violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.axiom_violations


def rotation_invariance_code(f: Callable[[np.ndarray], np.ndarray],
                             cfg: SymmetryConfig,
                             span: BlockSpan) -> RotationCodeReport:
    """Empirically classify which componentwise rotations leave f invariant.

    ``f`` maps an (m, n) array of points to m values.  Every word of the
    block's width is tested on ROTATION_ANGLES random angles, clear of special
    angles, and ROTATION_POINTS random points, drawn from ROTATION_SEED; words
    whose worst residual stays below ROTATION_TOL enter the code.  Violations
    of the code axioms indicate sampling artifacts and are reported, not raised.
    """
    width = span.length // 2
    rng = np.random.default_rng(ROTATION_SEED)
    points = rng.standard_normal((ROTATION_POINTS, cfg.n))
    base = np.asarray(f(points), dtype=float)
    angles = rng.uniform(0.15, 2.0 * math.pi - 0.15, size=ROTATION_ANGLES)
    accepted: set[int] = set()
    residuals: dict[tuple[int, ...], float] = {}
    for packed_bits in range(1 << width):
        bits = unpack(packed_bits, width)
        worst = 0.0
        for theta in angles:
            rotated = componentwise_rotation_points(points, span, bits, float(theta))
            worst = max(worst, float(np.max(np.abs(np.asarray(f(rotated)) - base))))
            if worst > ROTATION_TOL:
                break
        residuals[bits] = worst
        if worst <= ROTATION_TOL:
            accepted.add(packed_bits)
    code = Code(width, frozenset(accepted))
    return RotationCodeReport(code=code, residuals=residuals,
                              axiom_violations=code.axiom_violations())
