"""Tests for cyclic binary codes, the coprime reduction, and distinctness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cknsym.codes import (
    Code,
    Codeword,
    DistinctVerdict,
    basis_word,
    closure,
    code_from_bitstrings,
    componentwise_rotation_matrix,
    componentwise_rotation_points,
    contains_standard_basis,
    distinct_guaranteed,
    euclid_reduce,
    pack,
    rotation_invariance_code,
    tuple_gcd,
    tuple_lesssim,
    unpack,
    v_word,
)
from cknsym.symmetry import SymmetryConfig, make_layout


# --------------------------------------------------------------------------
# reference implementations (independent of the module under test)


def brute_closure(t, seeds):
    """Reference closure: plain-set saturation over bit tuples.

    Repeatedly adds the one-step right cycle of every word and the xor of
    every componentwise-comparable pair until nothing new appears.  Slow and
    obvious on purpose; the fast bit-packed closure must match it exactly.
    """
    words = {tuple(s) for s in seeds}
    changed = True
    while changed:
        changed = False
        snapshot = list(words)
        for w in snapshot:
            rotated = w[-1:] + w[:-1]
            if rotated not in words:
                words.add(rotated)
                changed = True
        snapshot = list(words)
        for a in snapshot:
            for b in snapshot:
                if all(x <= y for x, y in zip(a, b)):
                    summed = tuple(x ^ y for x, y in zip(a, b))
                    if summed not in words:
                        words.add(summed)
                        changed = True
    return words


def euclid_remainder_chain(r, s):
    """Remainder sequence of the euclidean algorithm on (r, s), down to 1."""
    chain = []
    a, b = r, s
    while a != 1:
        a, b = b % a, a
        chain.append(a)
    return chain


@st.composite
def closure_instances(draw):
    t = draw(st.integers(min_value=1, max_value=6))
    n_seeds = draw(st.integers(min_value=0, max_value=3))
    seeds = [tuple(draw(st.integers(0, 1)) for _ in range(t))
             for _ in range(n_seeds)]
    return t, seeds


# --------------------------------------------------------------------------
# packing and codeword basics


@given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
def test_pack_unpack_round_trip(bits):
    """unpack inverts pack at the word's own length."""
    assert unpack(pack(bits), len(bits)) == tuple(bits)


@given(st.integers(min_value=0, max_value=2**12 - 1))
def test_pack_inverts_unpack(word):
    """pack inverts unpack for any packed value below 2^t."""
    assert pack(unpack(word, 12)) == word


def test_codeword_coercion_and_properties():
    w = Codeword("0110")
    assert w.bits == (0, 1, 1, 0)
    assert w.t == 4
    assert w.weight == 2
    assert w.packed == pack((0, 1, 1, 0))
    assert str(w) == "0110"
    assert Codeword((1, 0)) == Codeword("10")


@pytest.mark.parametrize("bad", ["01x0", (0, 2, 1), ()])
def test_codeword_rejects_bad_bits(bad):
    with pytest.raises(ValueError):
        Codeword(bad)


def test_cycle_is_right_rotation():
    assert str(Codeword("100").cycle()) == "010"
    assert str(Codeword("001").cycle()) == "100"


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
def test_cycling_t_times_is_identity(bits):
    """The cycle permutation has order dividing the word length."""
    w = Codeword(tuple(bits))
    out = w
    for _ in range(w.t):
        out = out.cycle()
    assert out == w


def test_dominates_is_componentwise():
    assert Codeword("110").dominates(Codeword("100"))
    assert Codeword("110").dominates(Codeword("110"))
    assert not Codeword("110").dominates(Codeword("011"))


def test_xor_adds_mod_two():
    assert Codeword("110") ^ Codeword("011") == Codeword("101")
    with pytest.raises(ValueError):
        Codeword("110") ^ Codeword("1101")


def test_v_word_has_leading_ones():
    assert str(v_word(5, 2)) == "11000"
    assert str(v_word(3, 0)) == "000"
    assert str(v_word(4, 4)) == "1111"
    with pytest.raises(ValueError):
        v_word(4, 5)
    with pytest.raises(ValueError):
        v_word(4, -1)


def test_basis_word_is_single_one():
    assert str(basis_word(4, 1)) == "1000"
    assert str(basis_word(4, 4)) == "0001"
    assert basis_word(6, 3).weight == 1


# --------------------------------------------------------------------------
# codes and their axioms


def test_code_membership_accepts_many_forms():
    code = code_from_bitstrings(3, ["000", "110", "011", "101"])
    assert "110" in code
    assert (0, 1, 1) in code
    assert Codeword("101") in code
    assert pack((1, 1, 0)) in code
    assert "111" not in code
    assert "11" not in code  # wrong length never matches
    assert len(code) == 4


def test_code_from_bitstrings_rejects_length_mismatch():
    with pytest.raises(ValueError):
        code_from_bitstrings(3, ["1100"])


def test_valid_code_has_no_violations():
    code = code_from_bitstrings(2, ["00", "11"])
    assert code.axiom_violations() == ()
    assert code.is_code()


def test_missing_cycle_is_reported():
    code = code_from_bitstrings(2, ["00", "01"])
    violations = code.axiom_violations()
    assert any("cycle" in v for v in violations)
    assert not code.is_code()


def test_missing_comparable_sum_is_reported():
    # "11" alone: 11 <= 11 so their sum 00 must be present but is not
    code = code_from_bitstrings(2, ["11", "01", "10"])
    violations = code.axiom_violations()
    assert any("sum" in v for v in violations)


def test_to_bitstrings_sorted_by_packed_value():
    code = code_from_bitstrings(3, ["110", "000", "001"])
    strings = code.to_bitstrings()
    assert sorted(strings, key=lambda s: pack([int(c) for c in s])) == list(strings)


# --------------------------------------------------------------------------
# closure: pinned to the brute-force reference


@settings(max_examples=150, deadline=None)
@given(closure_instances())
def test_closure_matches_brute_force(instance):
    """The bit-packed saturation agrees with the obvious set-based one."""
    t, seeds = instance
    fast = closure(t, seeds)
    slow = brute_closure(t, seeds)
    assert {unpack(w, t) for w in fast.packed_words} == slow


@settings(max_examples=60, deadline=None)
@given(closure_instances())
def test_closure_is_a_code_containing_the_seeds(instance):
    t, seeds = instance
    code = closure(t, seeds)
    assert code.is_code()
    assert all(s in code for s in seeds)


def test_closure_of_nothing_is_empty():
    assert len(closure(4, [])) == 0


def test_closure_rejects_bad_inputs():
    with pytest.raises(ValueError):
        closure(0, [])
    with pytest.raises(ValueError):
        closure(3, ["0110"])


def test_nonempty_closure_contains_zero_word():
    # any word is comparable with itself, so w + w = 0 is forced
    code = closure(5, [v_word(5, 3)])
    assert v_word(5, 0) in code


def test_coprime_leading_words_generate_standard_basis():
    code = closure(6, [v_word(6, 2), v_word(6, 3)])
    assert contains_standard_basis(code)


def test_non_coprime_leading_words_miss_first_basis_word():
    code = closure(6, [v_word(6, 2), v_word(6, 4)])
    assert basis_word(6, 1) not in code
    assert not contains_standard_basis(code)


def test_contains_standard_basis_on_extremes():
    full = Code(3, frozenset(range(8)))
    assert contains_standard_basis(full)
    zero_only = closure(3, [v_word(3, 0)])
    assert not contains_standard_basis(zero_only)


# --------------------------------------------------------------------------
# coprime remainder derivation


def replay_trace(trace):
    """Re-execute a derivation, checking each step against first principles.

    Every operand must be a seed or a previously derived word; sums must
    combine a comparable pair; cycles must rotate one step right.  Returns
    the set of words available at the end.
    """
    available = {v_word(trace.t, trace.r), v_word(trace.t, trace.s)}
    for step in trace.steps:
        assert all(op in available for op in step.operands), \
            f"step uses underived word: {step}"
        if step.op == "sum":
            a, b = step.operands
            assert a.dominates(b) or b.dominates(a)
            assert step.result == a ^ b
        elif step.op == "cycle":
            (a,) = step.operands
            assert step.result == a.cycle()
        else:
            raise AssertionError(f"unknown op {step.op!r}")
        available.add(step.result)
    return available


@pytest.mark.parametrize("t, r, s", [
    (5, 2, 5), (7, 3, 5), (8, 3, 8), (9, 4, 7), (12, 5, 12), (6, 1, 4),
])
def test_euclid_reduce_trace_replays_cleanly(t, r, s):
    trace = euclid_reduce(t, r, s)
    available = replay_trace(trace)
    assert trace.final == v_word(t, 1)
    assert trace.final in available
    assert trace.remainders == tuple(euclid_remainder_chain(r, s))


@pytest.mark.parametrize("t, r, s", [(7, 3, 5), (6, 2, 3)])
def test_euclid_intermediates_stay_in_closure(t, r, s):
    code = closure(t, [v_word(t, r), v_word(t, s)])
    trace = euclid_reduce(t, r, s)
    for step in trace.steps:
        assert step.result in code


def test_euclid_reduce_trivial_when_r_is_one():
    trace = euclid_reduce(5, 1, 3)
    assert trace.steps == ()
    assert trace.remainders == ()
    assert trace.final == v_word(5, 1)


@pytest.mark.parametrize("t, r, s", [
    (5, 0, 3),   # r must be positive
    (5, 3, 3),   # need r < s
    (5, 2, 6),   # s exceeds the length
    (6, 2, 4),   # not coprime
])
def test_euclid_reduce_rejects_bad_inputs(t, r, s):
    with pytest.raises(ValueError):
        euclid_reduce(t, r, s)


# --------------------------------------------------------------------------
# distinctness criterion


@pytest.mark.parametrize("m, w, expected", [
    ((1, 0), (2, 0), True),     # smaller at the first slot, zero after
    ((1, 2), (1, 3), True),     # equal prefix, smaller at the last slot
    ((0, 1), (2, 1), False),    # smaller first but nonzero after
    ((2, 0), (1, 0), False),    # larger at the first differing slot
    ((1, 1), (1, 1), False),    # equal tuples are not strictly below
    ((0, 0), (1, 0), True),     # zero tuple is below anything nonzero
])
def test_tuple_lesssim_cases(m, w, expected):
    assert tuple_lesssim(m, w) is expected


def test_tuple_lesssim_rejects_length_mismatch():
    with pytest.raises(ValueError):
        tuple_lesssim((1, 0), (1, 0, 0))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=5),
       st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_tuple_lesssim_antisymmetric(m, w):
    """Strictly-below in the truncated-prefix order is one-directional."""
    if len(m) != len(w):
        return
    assert not (tuple_lesssim(m, w) and tuple_lesssim(w, m))


@pytest.mark.parametrize("m, w, expected", [
    ((2, 0, 0), (0, 0, 1), 2),   # widths 2 and 4 interact
    ((1, 0), (0, 1), 1),         # widths 2 and 3 are coprime
    ((0, 1, 0, 0, 0), (0, 0, 0, 0, 1), 3),  # widths 3 and 6
    ((1, 0), (1, 0), 1),         # same slot only: no interaction
    ((0, 0), (1, 1), 1),         # empty support: no interaction
])
def test_tuple_gcd_cases(m, w, expected):
    assert tuple_gcd(m, w) == expected


def test_distinct_guaranteed_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        distinct_guaranteed(SymmetryConfig(4, 0, (1,)), SymmetryConfig(6, 0, (1,)))


def test_different_pinwheel_levels_are_distinct():
    verdict = distinct_guaranteed(SymmetryConfig(8, 1, (1,)), SymmetryConfig(8, 2, (1,)))
    assert verdict
    assert "pinwheel" in verdict.reason


def test_identical_configs_are_not_distinct():
    verdict = distinct_guaranteed(SymmetryConfig(6, 0, (1,)), SymmetryConfig(6, 0, (1, 0)))
    assert not verdict
    assert "identical" in verdict.reason


def test_comparable_multiplicities_are_distinct():
    verdict = distinct_guaranteed(SymmetryConfig(8, 0, (1,)), SymmetryConfig(8, 0, (2,)))
    assert verdict
    assert "comparable" in verdict.reason


def test_coprime_interacting_widths_are_distinct():
    verdict = distinct_guaranteed(SymmetryConfig(8, 0, (1, 0, 0)),
                                  SymmetryConfig(8, 0, (0, 1, 0)))
    assert verdict
    assert "coprime" in verdict.reason


def test_even_width_pair_is_not_guaranteed():
    # widths 2 and 4 share the factor 2 and no other criterion applies
    verdict = distinct_guaranteed(SymmetryConfig(8, 0, (2, 0, 0)),
                                  SymmetryConfig(8, 0, (0, 0, 1)))
    assert not verdict
    assert "gcd 2" in verdict.reason
    assert isinstance(verdict, DistinctVerdict)


# --------------------------------------------------------------------------
# componentwise rotations and empirical invariance codes


def test_rotation_matrix_matches_point_action():
    cfg = SymmetryConfig(6, 0, (0, 1))
    span = make_layout(cfg).blocks[0]
    rng = np.random.default_rng(0)
    points = rng.standard_normal((5, cfg.n))
    theta = 0.83
    word = (1, 0, 1)
    moved = componentwise_rotation_points(points, span, word, theta)
    matrix = componentwise_rotation_matrix(cfg.n, span, word, theta)
    assert np.allclose(moved, points @ matrix.T, atol=1e-12)


def test_rotation_with_zero_word_is_identity():
    cfg = SymmetryConfig(4, 0, (1,))
    span = make_layout(cfg).blocks[0]
    points = np.arange(8.0).reshape(2, 4)
    moved = componentwise_rotation_points(points, span, (0, 0), 1.3)
    assert np.allclose(moved, points)


def test_rotation_word_length_must_match_block_width():
    cfg = SymmetryConfig(4, 0, (1,))
    span = make_layout(cfg).blocks[0]
    with pytest.raises(ValueError):
        componentwise_rotation_points(np.zeros((1, 4)), span, (1, 0, 1), 0.5)
    with pytest.raises(ValueError):
        componentwise_rotation_matrix(4, span, (1, 0, 1), 0.5)
    # a longer word would otherwise rotate coordinates past the block
    narrow = make_layout(SymmetryConfig(8, 0, (1, 0, 0))).blocks[0]
    with pytest.raises(ValueError):
        componentwise_rotation_matrix(8, narrow, (1, 1, 1, 1), 0.5)


def test_rotation_matrix_is_orthogonal():
    cfg = SymmetryConfig(8, 0, (0, 0, 1))
    span = make_layout(cfg).blocks[0]
    matrix = componentwise_rotation_matrix(8, span, (1, 0, 1, 1), 2.1)
    assert np.allclose(matrix @ matrix.T, np.eye(8), atol=1e-12)


def test_invariance_code_of_synchronized_function():
    """A function of z1 * conj(z2) accepts exactly the constant words."""
    cfg = SymmetryConfig(4, 0, (1,))
    span = make_layout(cfg).blocks[0]

    def f(points):
        z1 = points[:, 0] + 1j * points[:, 1]
        z2 = points[:, 2] + 1j * points[:, 3]
        return (z1 * np.conj(z2)).real + np.abs(z1) ** 2

    report = rotation_invariance_code(f, cfg, span)
    assert report.clean
    assert set(report.code.to_bitstrings()) == {"00", "11"}
    assert set(report.residuals) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert report.residuals[(1, 1)] <= 1e-8
    assert report.residuals[(1, 0)] > 1e-3


def test_invariance_code_of_radial_function_is_full():
    """A function of the moduli alone accepts every rotation word."""
    cfg = SymmetryConfig(4, 0, (1,))
    span = make_layout(cfg).blocks[0]

    def f(points):
        return points[:, 0] ** 2 + points[:, 1] ** 2 - points[:, 2] ** 2 - points[:, 3] ** 2

    report = rotation_invariance_code(f, cfg, span)
    assert report.clean
    assert len(report.code) == 4
    assert contains_standard_basis(report.code)
