"""Tests for configuration enumeration, counting, and distinct families."""

import itertools
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cknsym.enumeration import (
    ConfigFamily,
    count_configs,
    enumerate_configs,
    family_from_doc,
    family_to_doc,
    max_distinct_family,
    prime_restricted_asymptotic,
    prime_restricted_count,
)
from cknsym.kvdoc import DocumentError
from cknsym.symmetry import InvalidConfigError, SymmetryConfig


# --------------------------------------------------------------------------
# reference enumeration (independent of the module's recursion and DP)


def brute_configs(n, regime="a_less_b", alpha_max=0):
    """Reference enumeration via a full product scan with generous bounds."""
    k = n // 2 - 1
    found = []
    for alpha in range(alpha_max + 1):
        chi = 1 if alpha > 0 else 0
        ranges = [range((n // 2) // (j + 1) + 1) for j in range(1, k + 1)]
        for m in itertools.product(*ranges):
            s = 2 * chi + sum(mj * (j + 1) for j, mj in enumerate(m, start=1))
            if not 0 < 2 * s <= n:
                continue
            if regime == "a_eq_b_nonzero" and n - 2 * s == 1:
                continue
            found.append((alpha, m))
    return found


def brute_prime_count(n):
    """Reference count of level-zero configs with all block widths prime."""
    k = n // 2 - 1
    primes = [w for w in range(2, k + 2)
              if w >= 2 and all(w % d for d in range(2, w))]
    total = 0
    for combo in itertools.product(*(range(n // 2 // w + 1) for w in primes)):
        s = sum(c * w for c, w in zip(combo, primes))
        if 0 < 2 * s <= n and 2 * s != n - 1:
            total += 1
    return total


# --------------------------------------------------------------------------
# enumeration and the two-way count


def test_dimension_four_has_exactly_one_config():
    configs = enumerate_configs(4)
    assert configs == (SymmetryConfig(4, 0, (1,)),)


def test_dimension_eight_has_exactly_four_configs():
    configs = enumerate_configs(8)
    assert len(configs) == 4
    assert [c.m for c in configs] == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 0, 0)]


def test_enumeration_is_sorted_by_alpha_then_m():
    configs = enumerate_configs(10, alpha_max=2)
    keys = [(c.alpha, c.m) for c in configs]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("n", range(4, 21))
@pytest.mark.parametrize("regime", ["a_less_b", "a_eq_b_zero", "a_eq_b_nonzero"])
def test_count_matches_brute_force(n, regime):
    if regime == "a_eq_b_nonzero" and n == 5:
        return  # no valid configuration exists in this regime at n = 5
    expected = brute_configs(n, regime, alpha_max=0)
    assert count_configs(n, regime) == len(expected)
    assert [(c.alpha, c.m) for c in enumerate_configs(n, regime)] == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=4, max_value=14),
       st.sampled_from(["a_less_b", "a_eq_b_zero", "a_eq_b_nonzero"]),
       st.integers(min_value=0, max_value=3))
def test_dp_count_equals_explicit_enumeration(n, regime, alpha_max):
    """The partition DP and the explicit recursion agree everywhere."""
    if regime == "a_eq_b_nonzero" and n == 5:
        return
    configs = enumerate_configs(n, regime, alpha_max)
    assert count_configs(n, regime, alpha_max) == len(configs)
    assert [(c.alpha, c.m) for c in configs] == brute_configs(n, regime, alpha_max)


def test_positive_alpha_adds_pinwheel_budget():
    # n = 8: four block-only configs, plus (alpha, m) = (1, 0) and (1, (1,0,0))
    # and the same pair at level 2
    assert count_configs(8, alpha_max=2) == 8
    configs = enumerate_configs(8, alpha_max=2)
    assert [(c.alpha, c.m) for c in configs if c.alpha > 0] == [
        (1, (0, 0, 0)), (1, (1, 0, 0)), (2, (0, 0, 0)), (2, (1, 0, 0))]


def test_tail_condition_filters_nonzero_weight_regime():
    # n = 7: the s = 3 config leaves a width-1 tail and is dropped
    assert len(enumerate_configs(7, "a_less_b")) == 2
    assert len(enumerate_configs(7, "a_eq_b_nonzero")) == 1
    assert enumerate_configs(5, "a_eq_b_nonzero") == ()


@pytest.mark.parametrize("call, kwargs", [
    (enumerate_configs, {"n": 3}),
    (enumerate_configs, {"n": 6, "regime": "bogus"}),
    (enumerate_configs, {"n": 6, "alpha_max": -1}),
    (count_configs, {"n": 3}),
    (count_configs, {"n": 6, "regime": "bogus"}),
])
def test_enumeration_rejects_bad_inputs(call, kwargs):
    with pytest.raises(InvalidConfigError):
        call(**kwargs)


# --------------------------------------------------------------------------
# prime-width counting


@pytest.mark.parametrize("n", range(4, 26))
def test_prime_restricted_count_matches_brute_force(n):
    assert prime_restricted_count(n) == brute_prime_count(n)


def test_prime_restricted_asymptotic_value_and_growth():
    n = 400.0
    expected = math.exp(math.pi * math.sqrt(2 * n) / math.sqrt(3 * math.log(n / 2)))
    assert prime_restricted_asymptotic(400) == pytest.approx(expected)
    values = [prime_restricted_asymptotic(n) for n in (50, 100, 200, 400)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        prime_restricted_asymptotic(2)


# --------------------------------------------------------------------------
# families of pairwise-distinct configurations


def test_family_rejects_mixed_dimensions():
    with pytest.raises(InvalidConfigError):
        ConfigFamily((SymmetryConfig(4, 0, (1,)), SymmetryConfig(6, 0, (1,))))


def test_pairwise_verdicts_cover_all_pairs():
    family = ConfigFamily(enumerate_configs(8))
    verdicts = family.pairwise_verdicts()
    assert set(verdicts) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    assert not family.all_pairwise_distinct()  # widths 2 and 4 share a factor


def test_max_distinct_family_in_dimension_eight():
    family = max_distinct_family(8)
    assert len(family) == 3
    assert family.all_pairwise_distinct()
    assert [c.m for c in family.configs] == [(0, 1, 0), (1, 0, 0), (2, 0, 0)]


def test_max_distinct_family_exact_matches_greedy_safety():
    # small instances stay under the exact-clique limit; the family must be
    # at least as large as any single compatible pair
    family = max_distinct_family(10, alpha_max=1)
    assert family.all_pairwise_distinct()
    assert len(family) >= 2


def test_family_doc_round_trip():
    family = max_distinct_family(8, alpha_max=1)
    doc = family_to_doc(family)
    back = family_from_doc(doc)
    assert back.configs == family.configs
    assert "count:" in doc.replace(" =", ":") or "count" in doc


@pytest.mark.parametrize("text", [
    "n: 8\nregime: a_less_b\n",                                         # no count
    "n: 8\nregime: a_less_b\ncount: x\n",                               # bad count
    "n: 8\nregime: a_less_b\ncount: 1\nconfig 0: alpha0\n",            # no '='
    "n: 8\nregime: a_less_b\ncount: 1\nconfig 0: m=1,0,0\n",           # no alpha
    "n: 8\nregime: a_less_b\ncount: 2\nconfig 0: alpha=0 m=1,0,0\n",   # member missing
    "n: 8\nregime: a_less_b\ncount: 1\nconfig 0: alpha=0 m=1,x\n",     # bad m
])
def test_family_from_doc_rejects_malformed_documents(text):
    with pytest.raises(DocumentError):
        family_from_doc(text)


def test_empty_family_doc_needs_explicit_context():
    empty = ConfigFamily(())
    with pytest.raises(ValueError):
        family_to_doc(empty)
    doc = family_to_doc(empty, n=6, regime="a_less_b")
    back = family_from_doc(doc)
    assert back.configs == ()
