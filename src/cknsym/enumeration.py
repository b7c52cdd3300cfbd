"""Enumeration and counting of admissible symmetry configurations.

A configuration in dimension n picks a pinwheel level alpha and block
multiplicities (m_1, ..., m_k), k = floor(n/2) - 1, subject to the budget
0 < 2*(2*chi + sum m_j (j+1)) <= n with chi = 1 exactly when alpha > 0.
Regimes with a nonzero shared weight exponent additionally forbid a
one-dimensional leftover tail; ``symmetry.admissibility_violation`` is the
one statement of these rules.  Counting is done two ways on purpose: a
partition-style dynamic program for the count alone, and explicit
enumeration for the configurations themselves; tests pin them together.

``max_distinct_family`` extracts a largest family of configurations that
are pairwise guaranteed distinct (a max clique in the pairwise verdict
graph; exact for small enumerations, greedy beyond that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import functools

from .codes import DistinctVerdict, distinct_guaranteed
from .kvdoc import (DocumentError, format_kv, format_value, get_int, parse_kv, physical_memory,
                    require_keys)
from .symmetry import (
    REGIMES,
    InvalidConfigError,
    SymmetryConfig,
    admissibility_violation,
    config_from_pairs,
    k_of,
)

EXACT_CLIQUE_LIMIT = 20


def _multiplicity_tuples(k: int, budget: int) -> list[tuple[int, ...]]:
    """All (m_1..m_k) >= 0 with sum m_j (j+1) <= budget, lexicographic."""
    out: list[tuple[int, ...]] = []
    m = [0] * k
    def fill(slot: int, remaining: int) -> None:
        width = slot + 2
        if slot == k or width > remaining:
            out.append(tuple(m))  # the later slots are wider still, so empty
            return
        for count in range(remaining // width + 1):
            m[slot] = count
            fill(slot + 1, remaining - count * width)
        m[slot] = 0
    fill(0, budget)
    return out


def enumerate_configs(n: int, regime: str = "a_less_b",
                      alpha_max: int = 0) -> tuple[SymmetryConfig, ...]:
    """All admissible configurations, ordered by (alpha, m) lexicographically;
    refused before any is built when ``count_configs`` of them cannot fit."""
    if regime not in REGIMES:
        raise InvalidConfigError(f"unknown regime {regime!r}")
    if n < 4:
        raise InvalidConfigError(f"need n >= 4, got n={n}")
    if alpha_max < 0:
        raise InvalidConfigError(f"alpha_max must be >= 0, got {alpha_max}")
    k = k_of(n)
    # per config: its own m (a k-tuple, 8 k + 40 bytes), itself (64), a slot in out and the result
    need = count_configs(n, regime, alpha_max) * 8 * (k + 15)
    if need > (have := physical_memory()):
        raise InvalidConfigError(
            f"enumerating n={n} to alpha_max={alpha_max} needs over {need / 2 ** 30:.3g} GiB, "
            f"more than the {have / 2 ** 30:.3g} GiB of physical memory")
    out: list[SymmetryConfig] = []
    tuples = functools.cache(functools.partial(_multiplicity_tuples, k))  # one build per budget
    for alpha in range(alpha_max + 1):
        chi = 1 if alpha > 0 else 0
        budget = n // 2 - 2 * chi  # >= 0, as n >= 4
        for m in tuples(budget):
            try:
                out.append(SymmetryConfig(n, alpha, m, regime=regime))
            except InvalidConfigError:
                pass  # the budget admits it, the admissibility rule does not
    return tuple(out)


@functools.cache
def _partition_counts(widths: tuple[int, ...], budget: int) -> tuple[int, ...]:
    """ways[s] = number of ways to write s as a sum of parts from ``widths``."""
    ways = [0] * (budget + 1)
    ways[0] = 1
    for width in widths:
        for s in range(width, budget + 1):
            ways[s] += ways[s - width]
    return tuple(ways)


def count_configs(n: int, regime: str = "a_less_b", alpha_max: int = 0) -> int:
    """Same count as len(enumerate_configs(...)), via the partition DP."""
    if regime not in REGIMES:
        raise InvalidConfigError(f"unknown regime {regime!r}")
    if n < 4:
        raise InvalidConfigError(f"need n >= 4, got n={n}")
    k = k_of(n)
    total = 0
    for alpha in range(alpha_max + 1):
        chi = 1 if alpha > 0 else 0
        budget = n // 2 - 2 * chi  # >= 0, as n >= 4
        ways = _partition_counts(tuple(range(2, k + 2)), budget)
        total += sum(w for s_blocks, w in enumerate(ways)
                     if admissibility_violation(n, 2 * chi + s_blocks, regime) is None)
    return total


def _prime_widths(k: int) -> tuple[int, ...]:
    def is_prime(v: int) -> bool:
        if v < 2:
            return False
        return all(v % d for d in range(2, int(math.isqrt(v)) + 1))
    return tuple(w for w in range(2, k + 2) if is_prime(w))


def prime_restricted_count(n: int) -> int:
    """Count level-zero configurations whose blocks all have prime width.

    Block sums are filtered by the a_eq_b_nonzero admissibility rule: the
    half-dimension budget, and no one-dimensional leftover tail.
    """
    if n < 4:
        raise InvalidConfigError(f"need n >= 4, got n={n}")
    ways = _partition_counts(_prime_widths(k_of(n)), n // 2)
    return sum(w for s, w in enumerate(ways)
               if admissibility_violation(n, s, "a_eq_b_nonzero") is None)


def prime_restricted_asymptotic(n: int) -> float:
    """Leading-order growth of the prime-width count as n -> infinity."""
    if n <= 2:
        raise ValueError("asymptotic needs n large enough that ln(n/2) > 0")
    return math.exp(math.pi * math.sqrt(2.0 * n) / math.sqrt(3.0 * math.log(n / 2.0)))


@dataclass(frozen=True)
class ConfigFamily:
    """A family of same-dimension configurations with its pairwise verdicts."""

    configs: tuple[SymmetryConfig, ...]

    def __post_init__(self) -> None:
        dims = {c.n for c in self.configs}
        if len(dims) > 1:
            raise InvalidConfigError(f"family mixes dimensions {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.configs)

    def pairwise_verdicts(self) -> dict[tuple[int, int], DistinctVerdict]:
        out = {}
        for i in range(len(self.configs)):
            for j in range(i + 1, len(self.configs)):
                out[(i, j)] = distinct_guaranteed(self.configs[i], self.configs[j])
        return out

    def all_pairwise_distinct(self) -> bool:
        return all(v.guaranteed for v in self.pairwise_verdicts().values())


def _max_clique_exact(adj: list[set[int]]) -> tuple[int, ...]:
    n = len(adj)
    best: tuple[int, ...] = ()

    def grow(clique: tuple[int, ...], candidates: tuple[int, ...]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = clique
        for idx, v in enumerate(candidates):
            if len(clique) + len(candidates) - idx <= len(best):
                return  # bound: not enough candidates left
            grow(clique + (v,), tuple(u for u in candidates[idx + 1:] if u in adj[v]))

    grow((), tuple(range(n)))
    return best


def _max_clique_greedy(adj: list[set[int]]) -> tuple[int, ...]:
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    clique: list[int] = []
    for v in order:
        if all(u in adj[v] for u in clique):
            clique.append(v)
    return tuple(sorted(clique))


def max_distinct_family(n: int, regime: str = "a_less_b",
                        alpha_max: int = 0) -> ConfigFamily:
    """Largest family of pairwise guaranteed-distinct configurations.

    Exact branch-and-bound when at most EXACT_CLIQUE_LIMIT configurations
    are in play (ties resolved toward the lexicographically earliest
    family), greedy by descending degree beyond that.
    """
    configs = enumerate_configs(n, regime, alpha_max)
    adj: list[set[int]] = [set() for _ in configs]
    for i in range(len(configs)):
        for j in range(i + 1, len(configs)):
            if distinct_guaranteed(configs[i], configs[j]).guaranteed:
                adj[i].add(j)
                adj[j].add(i)
    if len(configs) <= EXACT_CLIQUE_LIMIT:
        picked = _max_clique_exact(adj)
    else:
        picked = _max_clique_greedy(adj)
    return ConfigFamily(tuple(configs[i] for i in sorted(picked)))


def family_to_doc(family: ConfigFamily, n: int | None = None,
                  regime: str | None = None) -> str:
    if family.configs:
        n = family.configs[0].n
        regime = family.configs[0].regime
    if n is None or regime is None:
        raise ValueError("empty family needs explicit n and regime")
    pairs = {"n": str(n), "regime": regime, "count": str(len(family))}
    for i, c in enumerate(family.configs):
        pairs[f"config {i}"] = f"alpha={c.alpha} m={format_value(c.m)}"
    return format_kv(pairs)


def family_from_doc(text: str) -> ConfigFamily:
    pairs = parse_kv(text)
    count = get_int(pairs, "count")
    members = tuple(f"config {i}" for i in range(count))
    require_keys(pairs, ("n", "regime", "count") + members)
    configs = []
    for key in members:
        try:
            member = dict(part.split("=", 1) for part in pairs[key].split())
        except ValueError as exc:
            raise DocumentError(
                f"key {key!r} must read 'alpha=<int> m=<ints>', got {pairs[key]!r}") from exc
        configs.append(config_from_pairs({**member, "n": pairs["n"]}, regime=pairs["regime"]))
    return ConfigFamily(tuple(configs))
