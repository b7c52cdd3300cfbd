"""Grid-exact sampling subgroups: signed permutations and their character."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknsym.grid import BallGrid
from cknsym.lattice import (
    LatticeElement,
    SignedPerm,
    apply_perm_to_grid,
    axis_orbits,
    lattice_subgroup,
)
from cknsym.enumeration import enumerate_configs
from cknsym.symmetry import (
    REGIMES,
    GroupOperationError,
    InvalidConfigError,
    SymmetryConfig,
    make_element,
    make_layout,
    to_matrix,
    twist_order,
)

from helpers import (
    apply_point,
    compose_perms,
    field_from_function,
    identity_perm,
    lattice_subgroup_by_elements,
    perm_matrix,
)


def signed_perms(n: int):
    return st.tuples(
        st.permutations(range(n)),
        st.tuples(*([st.sampled_from((1, -1))] * n)),
    ).map(lambda t: SignedPerm(tuple(t[0]), t[1]))


@given(signed_perms(4), signed_perms(4), signed_perms(4))
@settings(max_examples=60, deadline=None)
def test_composition_is_associative(a, b, c):
    assert compose_perms(compose_perms(a, b), c) == compose_perms(a, compose_perms(b, c))


@given(signed_perms(4), signed_perms(4))
@settings(max_examples=60, deadline=None)
def test_composition_matches_matrix_product(a, b):
    """The matrix of a composition must be the product of the matrices."""
    assert np.array_equal(perm_matrix(compose_perms(a, b)), perm_matrix(a) @ perm_matrix(b))


@given(signed_perms(5), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_apply_point_composes(a, seed):
    rng = np.random.default_rng(seed)
    b = SignedPerm(tuple(rng.permutation(5)), tuple(rng.choice((1, -1), 5)))
    x = rng.standard_normal(5)
    assert np.allclose(apply_point(compose_perms(a, b), x), apply_point(a, apply_point(b, x)))


def test_identity_perm_fixes_points():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(apply_point(identity_perm(3), x), x)


def test_size_mismatch_rejected():
    with pytest.raises(GroupOperationError):
        compose_perms(identity_perm(3), identity_perm(4))


SUBGROUP_CONFIGS = [
    SymmetryConfig(4, 0, (1,)),
    SymmetryConfig(4, 1, ()),
    SymmetryConfig(5, 0, (1,)),
    SymmetryConfig(6, 0, (1,)),
    SymmetryConfig(6, 0, (0, 1)),
    SymmetryConfig(6, 1, ()),
]


@pytest.mark.parametrize("cfg", SUBGROUP_CONFIGS, ids=str)
def test_lattice_subgroup_is_a_group_with_character(cfg):
    """Closure with multiplicative signs makes the character a homomorphism."""
    elements = lattice_subgroup(cfg)
    table = {e.perm: e.sign for e in elements}
    assert len(table) == len(elements), "duplicate permutations enumerated"
    assert identity_perm(cfg.n) in table
    for a in elements[:: max(1, len(elements) // 16)]:
        for b in elements[:: max(1, len(elements) // 16)]:
            ab = compose_perms(a.perm, b.perm)
            assert ab in table
            assert table[ab] == a.sign * b.sign


@pytest.mark.parametrize("cfg", SUBGROUP_CONFIGS, ids=str)
def test_lattice_subgroup_contains_inverses(cfg):
    elements = lattice_subgroup(cfg)
    table = {e.perm: e.sign for e in elements}
    ident = identity_perm(cfg.n)
    for e in elements:
        inverses = [p for p in table if compose_perms(e.perm, p) == ident]
        assert len(inverses) == 1
        assert table[inverses[0]] == e.sign


@pytest.mark.parametrize("cfg, expect", [
    (SymmetryConfig(4, 0, (1,)), {0: 4}),
    (SymmetryConfig(5, 0, (1,)), {0: 4, 4: 1}),
    *[(SymmetryConfig(6, 0, (1, 0), regime), {0: 4, 4: 2}) for regime in REGIMES],
    (SymmetryConfig(6, 0, (0, 1)), {0: 6}),
], ids=["4,0,(1,)", "5,0,(1,)", *[f"6,0,(1,0)-{r}" for r in REGIMES], "6,0,(0,1)"])
def test_axis_orbits_are_the_subgroups_orbits_of_the_axes(cfg, expect):
    """Each orbit is keyed by its least axis, its size the number of axes
    the subgroup carries that axis onto; the orbits cover every axis once."""
    orbits = axis_orbits(cfg)
    assert orbits == expect and list(orbits) == sorted(orbits)
    covered = []
    for rep, size in orbits.items():
        orbit = {e.perm.source[rep] for e in lattice_subgroup(cfg)}
        assert min(orbit) == rep and len(orbit) == size
        covered += orbit
    assert sorted(covered) == list(range(cfg.n)) and sum(orbits.values()) == cfg.n


def test_pinwheel_only_subgroup_has_no_sign_reversal():
    elements = lattice_subgroup(SymmetryConfig(4, 1, ()))
    assert len(elements) == 8
    assert all(e.sign == 1 for e in elements)


def test_block_subgroup_has_sign_reversal():
    elements = lattice_subgroup(SymmetryConfig(4, 0, (1,)))
    assert any(e.sign == -1 for e in elements)
    assert sum(1 for e in elements if e.sign == -1) * 2 == len(elements)


def test_apply_perm_matches_point_action():
    """Grid composition must agree with sampling the permuted function."""
    grid = BallGrid(4, 9)
    elements = lattice_subgroup(SymmetryConfig(4, 0, (1,)))

    def f(pts):
        return np.sin(pts[:, 0] + 2.0 * pts[:, 1]) + pts[:, 2] * pts[:, 3] ** 2

    base = field_from_function(grid, f)
    for e in elements:
        moved = apply_perm_to_grid(base, e.perm)
        expected = field_from_function(grid, lambda pts: f(apply_point(e.perm, pts)))
        assert np.allclose(moved, expected, atol=1e-13)


def test_apply_perm_round_trip():
    rng = np.random.default_rng(11)
    grid = BallGrid(4, 9)
    values = rng.standard_normal(grid.shape)
    elements = lattice_subgroup(SymmetryConfig(4, 0, (1,)))
    table = {e.perm: e for e in elements}
    ident = identity_perm(4)
    for e in elements:
        inv = next(p for p in table if compose_perms(e.perm, p) == ident)
        back = apply_perm_to_grid(apply_perm_to_grid(values, e.perm), inv)
        assert np.array_equal(back, values)


# --------------------------------------------------------------------------
# oracle: the hand-written signed permutations lattice_subgroup used to build


def _oracle_embed(n, start, local):
    src, sgn = list(range(n)), [1] * n
    for i in range(local.n):
        src[start + i] = start + local.source[i]
        sgn[start + i] = local.signs[i]
    return SignedPerm(tuple(src), tuple(sgn))


def _oracle_sync_quarter_turn(width):
    src, sgn = [], []
    for _ in range(width):
        base = len(src)
        src += [base + 1, base]
        sgn += [-1, 1]
    return SignedPerm(tuple(src), tuple(sgn))


def _oracle_conj_cycle(width):
    # (z_1..z_w) -> (-conj(z_w), conj(z_1..z_{w-1}))
    src, sgn = [2 * width - 2, 2 * width - 1], [-1, 1]
    for i in range(width - 1):
        src += [2 * i, 2 * i + 1]
        sgn += [1, -1]
    return SignedPerm(tuple(src), tuple(sgn))


def _oracle_powers(base, count):
    out = [identity_perm(base.n)]
    for _ in range(count - 1):
        out.append(compose_perms(base, out[-1]))
    return out


def oracle_subgroup(cfg):
    """Quarter turns, cycle powers and tail permutations written out by hand;
    the sign is "odd twist => -1, pinwheel => +1"."""
    layout = make_layout(cfg)
    n = cfg.n
    factors = []
    if layout.pinwheel is not None:
        # (z1, z2) -> (i z1, -i z2) on interleaved (x1, y1, x2, y2)
        quarter = _oracle_embed(n, 0, SignedPerm((1, 0, 3, 2), (-1, 1, 1, -1)))
        mixes = _oracle_powers(_oracle_embed(n, 0, _oracle_conj_cycle(2)), 2)
        factors.append([(compose_perms(c, r), 1)
                        for c in mixes for r in _oracle_powers(quarter, 4)])
    for span in layout.blocks:
        width = span.j + 1
        quarter = _oracle_embed(n, span.start, _oracle_sync_quarter_turn(width))
        cyc = _oracle_embed(n, span.start, _oracle_conj_cycle(width))
        factors.append([(compose_perms(c, r), -1 if t % 2 else 1)
                        for t, c in enumerate(_oracle_powers(cyc, twist_order(span.j)))
                        for r in _oracle_powers(quarter, 4)])
    if layout.tail_dim >= 2:
        d = layout.tail_dim
        factors.append([(_oracle_embed(n, layout.tail_start, SignedPerm(perm, flips)), 1)
                        for perm in itertools.permutations(range(d))
                        for flips in itertools.product((1, -1), repeat=d)])
    elements = [LatticeElement(identity_perm(n), 1)]
    for factor in factors:
        elements = [LatticeElement(compose_perms(e.perm, p), e.sign * s)
                    for e in elements for (p, s) in factor]
    return tuple(elements)


@pytest.mark.parametrize("n", range(4, 8))
def test_lattice_subgroup_matches_the_hand_written_oracle(n):
    """Same elements, same order, same signs: symmetrize sums in this order."""
    for cfg in enumerate_configs(n, alpha_max=2):
        assert lattice_subgroup(cfg) == oracle_subgroup(cfg), cfg


@pytest.mark.parametrize("n", range(4, 9))
def test_lattice_subgroup_matches_the_element_by_element_build(n):
    """Reading each factor once and joining disjoint spans gives the same
    elements, order and signs as reading every whole element off
    ``to_matrix`` and ``phi``."""
    for cfg in enumerate_configs(n, alpha_max=2):
        assert lattice_subgroup(cfg) == lattice_subgroup_by_elements(cfg), cfg


@pytest.mark.parametrize("n", range(4, 9))
def test_every_admissible_regime_gets_the_same_elements(n):
    """The regime decides which (n, alpha, m) are admissible, not the group:
    each admissible regime is served the one cached subgroup, and it is the
    group the oracle builds for that regime's configuration."""
    for cfg in enumerate_configs(n, alpha_max=1):
        for regime in REGIMES:
            try:
                other = SymmetryConfig(cfg.n, cfg.alpha, cfg.m, regime)
            except InvalidConfigError:
                continue
            assert lattice_subgroup(other) is lattice_subgroup(cfg)
            assert lattice_subgroup(other) == oracle_subgroup(other), other


def test_from_matrix_rejects_a_rotation_off_the_grid():
    g = make_element(SymmetryConfig(4, 0, (1,)), blocks=((0, 0.3),))
    with pytest.raises(GroupOperationError):
        SignedPerm.from_matrix(to_matrix(g))


def test_from_matrix_rejects_a_repeated_source():
    m = np.zeros((3, 3))
    m[:, 0] = 1.0
    with pytest.raises(GroupOperationError):
        SignedPerm.from_matrix(m)
