"""Tests for the symmetry group: configs, elements, matrices, stabilizers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cknsym import symmetry
from cknsym.kvdoc import format_kv, parse_kv
from cknsym.symmetry import (
    InvalidConfigError,
    GroupOperationError,
    SymmetryConfig,
    _identity,
    async_rotation_matrix,
    compose,
    config_from_pairs,
    config_to_pairs,
    conj_cycle_matrix,
    inverse,
    k_of,
    make_element,
    make_layout,
    orbit_classify,
    phi,
    phi_is_homomorphism_check,
    pinwheel_matrix,
    pinwheel_step_order,
    random_element,
    stabilizer_in_kernel_check,
    stabilizer_witness,
    sync_rotation_matrix,
    to_matrix,
    twist_order,
)

from helpers import traced_peak

# a spread of valid configurations: with/without pinwheel, tails of width
# 0, 1 (inactive), and >= 2, repeated blocks, mixed widths
CONFIG_POOL = (
    SymmetryConfig(4, 0, (1,)),
    SymmetryConfig(6, 0, (0, 1)),
    SymmetryConfig(6, 0, (1,)),
    SymmetryConfig(6, 1, ()),
    SymmetryConfig(7, 0, (1,)),
    SymmetryConfig(8, 0, (2, 0, 0)),
    SymmetryConfig(8, 0, (0, 0, 1)),
    SymmetryConfig(8, 2, (1, 0, 0)),
    SymmetryConfig(9, 1, (1, 0, 0)),
)


def _random_elements(cfg, seed, count):
    rng = np.random.default_rng(seed)
    return [random_element(cfg, rng) for _ in range(count)]


# --------------------------------------------------------------------------
# configuration validation


def test_k_counts_available_block_slots():
    assert [k_of(n) for n in (4, 5, 6, 7, 8, 9, 10)] == [1, 1, 2, 2, 3, 3, 4]


@pytest.mark.parametrize("n, alpha, m", [
    (3, 0, (1,)),          # dimension too small
    (4, -1, (1,)),         # negative pinwheel level
    (4, 0, ()),            # no pinwheel and no blocks
    (4, 0, (2,)),          # occupies 8 > 4 coordinates
    (4, 1, (1,)),          # pinwheel + block exceed n
    (4, 0, (1, 1)),        # more slots than k(4) = 1
    (6, 0, (-1, 1)),       # negative multiplicity
])
def test_invalid_configs_rejected(n, alpha, m):
    with pytest.raises(InvalidConfigError):
        SymmetryConfig(n, alpha, m)


@pytest.mark.parametrize("n, m", [
    (4, (1.7,)),           # float entry: was truncated to 1
    (4, (1.0,)),           # integral float
    (4, ("1",)),           # string entry: was parsed
    (6, (np.float64(1.0), 0)),
    (4, 1),                # not a sequence
    (6, (0, -1)),          # negative entry
    (6, (1, 0, 0)),        # more entries than k(6) = 2
])
def test_multiplicities_must_be_non_negative_integers(n, m):
    with pytest.raises(InvalidConfigError):
        SymmetryConfig(n, 0, m)


def test_numpy_integer_multiplicities_are_accepted():
    cfg = SymmetryConfig(8, 0, (np.int64(1), np.int32(0)))
    assert cfg == SymmetryConfig(8, 0, (1, 0, 0))
    assert all(type(v) is int for v in cfg.m)


_INT_FIELDS = [("n", 8), ("alpha", 1), ("m", 1)]  # (8, 1, (1,)) is admissible


def _config_with(field, value):
    args = {"n": 8, "alpha": 1, "m": (1,)}
    args[field] = (value,) if field == "m" else value
    return SymmetryConfig(**args)


@pytest.mark.parametrize("kind", [bool, float, str, np.float64])
@pytest.mark.parametrize("field, good", _INT_FIELDS)
def test_config_integers_refuse_bools_floats_and_strings(field, good, kind):
    # a bool alpha would be written back as "alpha: yes", which no reader accepts
    with pytest.raises(InvalidConfigError):
        _config_with(field, kind(good))


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("field, good", _INT_FIELDS)
def test_config_stores_numpy_integers_as_int(field, good, kind):
    cfg = _config_with(field, kind(good))
    plain = SymmetryConfig(8, 1, (1,))
    assert cfg == plain and hash(cfg) == hash(plain)
    assert all(type(v) is int for v in (cfg.n, cfg.alpha, *cfg.m))
    assert config_from_pairs(parse_kv(format_kv(config_to_pairs(cfg)))) == plain


def test_numpy_built_config_equals_and_hashes_like_the_int_built_one():
    built = SymmetryConfig(np.int64(8), np.int64(0), np.array([2, 0, 0]))
    plain = SymmetryConfig(8, 0, (2, 0, 0))
    assert built == plain and hash(built) == hash(plain)
    assert {built: 1}[plain] == 1


def test_width_one_leftover_rejected_only_for_nonzero_equal_weights():
    # 2S = 6 leaves one coordinate in dimension 7
    SymmetryConfig(7, 0, (0, 1), regime="a_less_b")
    SymmetryConfig(7, 0, (0, 1), regime="a_eq_b_zero")
    with pytest.raises(InvalidConfigError):
        SymmetryConfig(7, 0, (0, 1), regime="a_eq_b_nonzero")


def test_dimension_five_rejected_for_nonzero_equal_weights():
    # 2S = 4 always leaves exactly one coordinate when n = 5
    with pytest.raises(InvalidConfigError):
        SymmetryConfig(5, 0, (1,), regime="a_eq_b_nonzero")
    SymmetryConfig(5, 0, (1,), regime="a_less_b")


def test_multiplicities_padded_to_slot_count():
    cfg = SymmetryConfig(8, 0, (1,))
    assert cfg.m == (1, 0, 0)


def test_layout_partitions_coordinates():
    for cfg in CONFIG_POOL:
        layout = make_layout(cfg)
        covered = []
        if layout.pinwheel is not None:
            covered.extend(range(0, 4))
        for span in layout.blocks:
            covered.extend(range(span.start, span.stop))
        covered.extend(range(layout.tail_start, cfg.n))
        assert sorted(covered) == list(range(cfg.n))


# --------------------------------------------------------------------------
# generator orders and relations


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_twist_generator_has_order_two_j_plus_two(j):
    width = j + 1
    m = conj_cycle_matrix(width)
    power = np.eye(2 * width)
    for k in range(1, 2 * (j + 1) + 1):
        power = m @ power
        if k < 2 * (j + 1):
            assert not np.allclose(power, np.eye(2 * width), atol=1e-12)
    assert np.allclose(power, np.eye(2 * width), atol=1e-12)
    # canonical exponents fold out the half-turn when the width is even
    expected = (j + 1) if (j + 1) % 2 == 0 else 2 * (j + 1)
    assert twist_order(j) == expected


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_pinwheel_generator_has_order_two_to_alpha_plus_two(alpha):
    m = pinwheel_matrix(alpha)
    order = 2 ** (alpha + 2)
    power = np.eye(4)
    for k in range(1, order + 1):
        power = m @ power
        if k < order:
            assert not np.allclose(power, np.eye(4), atol=1e-12)
    assert np.allclose(power, np.eye(4), atol=1e-12)
    assert pinwheel_step_order(alpha) == order


@pytest.mark.parametrize("width", range(1, 6))
def test_sync_rotation_matrix_is_the_kronecker_product(width):
    """Same bits as np.kron(np.eye(width), r), signed zeros included."""
    for theta in (0.0, 0.7, 2.0, math.pi, 4.1, 5.9):
        c, s = math.cos(theta), math.sin(theta)
        expect = np.kron(np.eye(width), np.array([[c, -s], [s, c]]))
        assert sync_rotation_matrix(width, theta).tobytes() == expect.tobytes()


def test_twist_conjugates_rotation_to_its_inverse():
    """Moving a synchronous rotation past the twist reverses its angle."""
    rng = np.random.default_rng(7)
    for j in (1, 2, 3):
        width = j + 1
        cyc = conj_cycle_matrix(width)
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=100):
            lhs = sync_rotation_matrix(width, theta) @ cyc
            rhs = cyc @ sync_rotation_matrix(width, 2.0 * math.pi - theta)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


# --------------------------------------------------------------------------
# group algebra


@given(st.sampled_from(CONFIG_POOL), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_matrix_representation_is_multiplicative(cfg, seed):
    g, h = _random_elements(cfg, seed, 2)
    lhs = to_matrix(compose(g, h))
    rhs = to_matrix(g) @ to_matrix(h)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@given(st.sampled_from(CONFIG_POOL), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_composition_is_associative_on_matrices(cfg, seed):
    g, h, k = _random_elements(cfg, seed, 3)
    lhs = to_matrix(compose(compose(g, h), k))
    rhs = to_matrix(compose(g, compose(h, k)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@given(st.sampled_from(CONFIG_POOL), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_inverse_composes_to_identity(cfg, seed):
    (g,) = _random_elements(cfg, seed, 1)
    eye = to_matrix(compose(g, inverse(g)))
    assert np.max(np.abs(eye - np.eye(cfg.n))) <= 1e-10
    assert compose(g, inverse(g)) == make_element(cfg)


@given(st.sampled_from(CONFIG_POOL), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_sign_character_is_multiplicative(cfg, seed):
    g, h = _random_elements(cfg, seed, 2)
    assert phi(compose(g, h)) == phi(g) * phi(h)
    assert phi(inverse(g)) == phi(g)


def test_sign_character_attains_both_values():
    for cfg in CONFIG_POOL:
        report = phi_is_homomorphism_check(cfg, trials=200, seed=3)
        assert report.passed
        assert report.plus_seen and report.minus_seen


def test_matrices_are_orthogonal():
    for cfg in CONFIG_POOL:
        for g in _random_elements(cfg, 11, 3):
            m = to_matrix(g)
            assert np.allclose(m.T @ m, np.eye(cfg.n), atol=1e-10)


def _oracle_act_points(g, points):
    """Blockwise complex arithmetic: the point action written without to_matrix."""
    cfg = g.config
    layout = make_layout(cfg)
    out = np.empty_like(points)

    def to_complex(seg):
        return seg[:, 0::2] + 1j * seg[:, 1::2]

    def store(z, seg):
        seg[:, 0::2] = z.real
        seg[:, 1::2] = z.imag

    if layout.pinwheel is not None:
        step, angle = g.pinwheel
        z = to_complex(points[:, 0:4])
        z = z * np.array([cmath.exp(1j * angle), cmath.exp(-1j * angle)])
        psi = step * math.pi / (1 << (cfg.alpha + 1))
        mixed = np.empty_like(z)
        mixed[:, 0] = -np.conj(z[:, 1])
        mixed[:, 1] = np.conj(z[:, 0])
        store(math.cos(psi) * z + math.sin(psi) * mixed, out[:, 0:4])
    for span, (twist, angle) in zip(layout.blocks, g.blocks):
        z = to_complex(points[:, span.start:span.stop]) * cmath.exp(1j * angle)
        for _ in range(twist):
            nxt = np.empty_like(z)
            nxt[:, 0] = -np.conj(z[:, -1])
            nxt[:, 1:] = np.conj(z[:, :-1])
            z = nxt
        store(z, out[:, span.start:span.stop])
    if g.tail is not None:
        out[:, layout.tail_start:] = points[:, layout.tail_start:] @ g.tail.T
    elif layout.tail_start < cfg.n:
        out[:, layout.tail_start:] = points[:, layout.tail_start:]
    return out


@pytest.mark.parametrize("cfg", CONFIG_POOL, ids=str)
def test_act_points_matches_the_complex_arithmetic_oracle(cfg):
    rng = np.random.default_rng(cfg.n * 10 + cfg.alpha)
    pts = rng.standard_normal((30, cfg.n))
    for g in _random_elements(cfg, cfg.n, 20):
        expected = _oracle_act_points(g, pts)
        assert np.max(np.abs(pts @ to_matrix(g).T - expected)) <= 1e-13 * np.max(np.abs(expected))


@given(st.sampled_from(CONFIG_POOL), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_act_matches_matrix_action(cfg, seed):
    (g,) = _random_elements(cfg, seed, 1)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(cfg.n)
    assert np.allclose(_oracle_act_points(g, x[None, :])[0], to_matrix(g) @ x, atol=1e-12)


def test_twist_parity_drives_the_sign():
    cfg = SymmetryConfig(4, 0, (1,))
    flip = make_element(cfg, blocks=((1, 0.0),))
    keep = make_element(cfg, blocks=((2, 0.0),))
    assert phi(flip) == -1
    assert phi(keep) == 1


def test_pinwheel_step_parity_drives_the_sign():
    cfg = SymmetryConfig(6, 1, ())
    assert phi(make_element(cfg, pinwheel=(1, 0.0))) == -1
    assert phi(make_element(cfg, pinwheel=(2, 0.0))) == 1


def test_even_width_twist_folds_into_half_turn():
    """For even block width the (j+1)-th cycle power equals a synchronous
    half-turn, so canonicalisation keeps twists below j+1."""
    cfg = SymmetryConfig(4, 0, (1,))
    folded = make_element(cfg, blocks=((2, 0.0),))
    explicit = make_element(cfg, blocks=((0, math.pi),))
    assert folded == explicit
    assert np.allclose(to_matrix(folded), to_matrix(explicit), atol=1e-12)


def test_random_element_is_deterministic_per_seed():
    cfg = SymmetryConfig(7, 0, (1,))
    a = _random_elements(cfg, 42, 4)
    b = _random_elements(cfg, 42, 4)
    assert all(x == y for x, y in zip(a, b))


def test_homomorphism_check_memory_does_not_grow_with_trials():
    """20,000 pairs on a width-6 tail are drawn and dropped one at a time:
    holding them all would take about 40,000 elements, tens of MB."""
    cfg = SymmetryConfig(10, 0, (1, 0, 0, 0))
    reports = []
    peak = traced_peak(lambda: reports.append(phi_is_homomorphism_check(cfg, trials=20000)))
    assert reports[0].passed and reports[0].trials == 20000
    assert peak <= 2 ** 18


def test_homomorphism_check_reports_the_first_violating_pair(monkeypatch):
    """A sign map that breaks multiplicativity on part of the group is caught
    at the first violating pair, in draw order, after several good ones."""
    cfg = SymmetryConfig(8, 0, (1, 0, 0))
    real_phi, real_compose = symmetry.phi, symmetry.compose
    pairs = []

    def skewed_phi(g):
        return -real_phi(g) if g.blocks[0][1] > 6.0 else real_phi(g)

    def recording_compose(g, h):
        pairs.append((g, h))
        return real_compose(g, h)

    monkeypatch.setattr(symmetry, "phi", skewed_phi)
    monkeypatch.setattr(symmetry, "compose", recording_compose)
    report = phi_is_homomorphism_check(cfg, trials=400, seed=3)
    bad = [i for i, (g, h) in enumerate(pairs)
           if skewed_phi(real_compose(g, h)) != skewed_phi(g) * skewed_phi(h)]
    assert not report.passed and len(pairs) > 1 and bad == [len(pairs) - 1]
    assert all(a is b for a, b in zip(report.first_violation, pairs[-1], strict=True))


def test_homomorphism_check_verdicts_match_haar_tailed_pairs():
    """The check draws its pairs with identity tails; its verdicts are those
    of as many random_element pairs, whose tails are Haar."""
    for cfg in CONFIG_POOL:
        report = phi_is_homomorphism_check(cfg, trials=200, seed=cfg.n)
        rng = np.random.default_rng(cfg.n)
        haar = [(random_element(cfg, rng), random_element(cfg, rng)) for _ in range(200)]
        assert report.passed == all(phi(compose(g, h)) == phi(g) * phi(h) for g, h in haar)
        assert report.plus_seen == any(phi(e) == 1 for pair in haar for e in pair)
        assert report.minus_seen == any(phi(e) == -1 for pair in haar for e in pair)


def test_cached_matrices_are_read_only():
    for a in [*_identity(1), *_identity(6)]:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
    tail = make_element(SymmetryConfig(10, 0, (1, 0, 0, 0))).tail
    tail[0, 0] = 2.0  # each element owns its identity tail
    assert _identity(6)[0][0, 0] == 1.0


def test_to_matrix_builds_only_the_pinwheel_power_it_reads():
    """The pinwheel has 2^(alpha+2) powers; to_matrix must not build them all."""
    cfg = SymmetryConfig(4, 12, ())  # 16,384 powers, several MB if all were built
    g = make_element(cfg, pinwheel=(5, 0.3))
    assert traced_peak(lambda: to_matrix(g)) <= 2 ** 16
    deep = SymmetryConfig(4, 40, ())
    g = make_element(deep, pinwheel=(2 ** 41 + 3, 0.3))
    expect = pinwheel_matrix(40, 2 ** 41 + 3) @ async_rotation_matrix(0.3)
    assert to_matrix(g).tobytes() == expect.tobytes()


# --------------------------------------------------------------------------
# stabilizer and orbits


def test_stabilizer_of_witness_lies_in_kernel_for_pool():
    for cfg in CONFIG_POOL:
        report = stabilizer_in_kernel_check(cfg)
        assert report.passed, cfg
        assert report.certificate is None


def test_stabilizer_branches_cover_all_factor_exponents():
    cfg = SymmetryConfig(8, 2, (1, 0, 0))
    report = stabilizer_in_kernel_check(cfg)
    pin = [b for b in report.branches if b.label == "pinwheel"]
    blk = [b for b in report.branches if b.label.startswith("block")]
    assert len(pin) == pinwheel_step_order(2)
    assert len(blk) == twist_order(1)


def test_fixing_branches_fix_the_witness():
    """Every branch flagged with a fixing angle must actually fix the
    witness point, and must carry sign +1."""
    for cfg in CONFIG_POOL:
        layout = make_layout(cfg)
        witness = stabilizer_witness(cfg)
        report = stabilizer_in_kernel_check(cfg)
        for branch in report.branches:
            if branch.fixing_angle is None:
                continue
            assert branch.phi_value == 1
            if branch.label == "pinwheel":
                g = make_element(cfg, pinwheel=(branch.exponent, branch.fixing_angle))
            else:
                idx = next(i for i, s in enumerate(layout.blocks)
                           if branch.label.startswith(f"block[j={s.j},copy={s.ell}]"))
                blocks = [(0, 0.0)] * len(layout.blocks)
                blocks[idx] = (branch.exponent, branch.fixing_angle)
                g = make_element(cfg, blocks=tuple(blocks))
            assert np.max(np.abs(to_matrix(g) @ witness - witness)) <= 1e-9


def test_orbit_of_zero_is_singleton():
    cfg = SymmetryConfig(4, 0, (1,))
    report = orbit_classify(cfg, np.zeros(4))
    assert report.kind == "finite_singleton"


def test_orbit_of_block_point_is_infinite():
    cfg = SymmetryConfig(4, 0, (1,))
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert orbit_classify(cfg, x).kind == "infinite"


def test_orbit_on_width_one_leftover_is_singleton():
    cfg = SymmetryConfig(7, 0, (0, 1))
    x = np.zeros(7)
    x[-1] = 2.5
    report = orbit_classify(cfg, x)
    assert report.kind == "finite_singleton"
    assert "trivial" in report.reason


def test_orbit_on_active_leftover_is_infinite():
    cfg = SymmetryConfig(6, 0, (1,))
    x = np.zeros(6)
    x[-1] = 1.0
    assert orbit_classify(cfg, x).kind == "infinite"


def test_orbit_rejects_wrong_point_shape():
    cfg = SymmetryConfig(4, 0, (1,))
    with pytest.raises(GroupOperationError):
        orbit_classify(cfg, np.zeros(5))


def test_orbit_rejects_non_finite_points():
    cfg = SymmetryConfig(4, 0, (1,))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(GroupOperationError, match="finite"):
            orbit_classify(cfg, np.array([bad, 0.0, 0.0, 0.0]))


# --------------------------------------------------------------------------
# serialization


def test_config_doc_round_trip():
    for cfg in CONFIG_POOL + (SymmetryConfig(8, 0, (2, 0, 0), regime="a_eq_b_zero"),):
        pairs = config_to_pairs(cfg, cfg.regime)
        assert config_from_pairs(parse_kv(format_kv(pairs))) == cfg
        # the same pairs under a suffix, as a two-config document carries them
        suffixed = {"n": pairs["n"], "regime": pairs["regime"],
                    "alpha_b": pairs["alpha"], "m_b": pairs["m"]}
        assert config_from_pairs(suffixed, "_b") == cfg


def test_element_factors_must_match_layout():
    cfg = SymmetryConfig(4, 0, (1,))
    with pytest.raises(GroupOperationError):
        make_element(cfg, pinwheel=(1, 0.0))  # no pinwheel in this config
    with pytest.raises(GroupOperationError):
        make_element(cfg, blocks=((0, 0.0), (0, 0.0)))  # one block expected
    with pytest.raises(GroupOperationError):
        make_element(cfg, tail=np.eye(2))  # no leftover coordinates


def test_width_one_tail_admits_only_identity():
    cfg = SymmetryConfig(7, 0, (0, 1))
    make_element(cfg, blocks=((0, 0.0),), tail=np.eye(1))
    with pytest.raises(GroupOperationError):
        make_element(cfg, blocks=((0, 0.0),), tail=-np.eye(1))


def test_tail_matrix_must_be_orthogonal():
    cfg = SymmetryConfig(6, 0, (1,))
    with pytest.raises(GroupOperationError):
        make_element(cfg, blocks=((0, 0.0),), tail=np.array([[1.0, 0.0], [1.0, 1.0]]))


def _tail_accepted(cfg, tail):
    try:
        make_element(cfg, blocks=((0, 0.0),), tail=tail)
    except GroupOperationError:
        return False
    return True


def test_tail_orthogonality_tolerance_is_allclose():
    """A 5e-6 defect on the diagonal of M^T M passes (relative tolerance) and
    a 2e-10 defect off it does not, exactly as np.allclose(atol=1e-10)."""
    cfg = SymmetryConfig(7, 0, (1,))
    diagonal = np.diag([math.sqrt(1.0 + 5e-6), 1.0, 1.0])
    off_diagonal = np.eye(3)
    off_diagonal[0, 1] = 2e-10
    for tail, accepted in ((diagonal, True), (off_diagonal, False)):
        assert np.allclose(tail.T @ tail, np.eye(3), atol=1e-10) == accepted
        assert _tail_accepted(cfg, tail) == accepted


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 8), st.floats(-11.0, -3.0))
def test_tail_orthogonality_agrees_with_allclose(seed, entry, log_defect):
    cfg = SymmetryConfig(7, 0, (1,))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q[divmod(entry, 3)] += 10.0 ** log_defect
    expect = bool(np.allclose(q.T @ q, np.eye(3), atol=1e-10))
    assert _tail_accepted(cfg, q) == expect


def test_make_layout_is_built_once_per_config():
    """Equal configs, m padded or not, share one layout; others do not."""
    layout = make_layout(SymmetryConfig(8, 2, (1,)))
    assert make_layout(SymmetryConfig(8, 2, (1, 0, 0))) is layout
    assert make_layout(SymmetryConfig(8, 2, (1,), regime="a_eq_b_zero")) is not layout
    assert layout == make_layout(SymmetryConfig(8, 2, (1,), regime="a_eq_b_zero"))
