"""Cut-chain bounds on one-hop unicast networks.

A cut chain is a nested sequence of node subsets O_1 >= ... >= O_l with the
membership rule: a destination lies in O_j exactly when its source lies in
O_{j+1} (with O_0 the full node set and O_{l+1} empty).  The chain value is
the sum over levels of H(freshly cut outputs | inputs outside the level,
outputs already cut), evaluated single-letter.

The rule fixes a chain by the replicas still uncut at each level: nested sets
R_0 = all >= R_1 >= ... >= R_l = {} give O_j = S(R_{j-1}) | D(R_j), and every
valid chain arises this way.  ``chain_from_cuts`` is the one constructor; it
builds enumerated chains and recipe chains alike.

Level j is H(Y(R_{j-1} - R_j) | X, Y(all - R_{j-1})), so the pair
(R_{j-1}, R_j) alone decides its value, whichever chain it occurs in.
``chain_values`` evaluates each distinct level once per call, from a memo
local to that call; ``evaluate_chain`` evaluates a given chain the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import AbstractSet, Iterable, Mapping, Sequence

from .entropy import SourceDistribution, VariableId
from .errors import BudgetExceededError, ChainValidationError, DicboundError
from .networks import NetworkGraph, Replica, cond_entropy_network

# enumerate_chains refuses to build more.  The largest enumeration in the
# benchmark builds 794 (ineq5 at k = 1, up to length 3); `gcs --enumerate` on
# xor2 up to length 30 builds 9,455 and takes 5 s and 97 MB on a 2-core Xeon,
# and time and memory grow with the chain count times the chain length.
MAX_CHAINS = 10_000


@dataclass(frozen=True)
class CutChain:
    """Ordered nested node subsets, outermost first."""

    subsets: tuple[frozenset[str], ...]

    @classmethod
    def of(cls, subsets: Iterable[Iterable[str]]) -> "CutChain":
        return cls(tuple(frozenset(s) for s in subsets))

    def __len__(self):
        return len(self.subsets)

    def canonical(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(sorted(s)) for s in self.subsets)


@dataclass(frozen=True)
class ChainValue:
    total: float
    terms: tuple[float, ...]


def validate_chain(network: NetworkGraph, chain: CutChain) -> list[str]:
    """Return the list of rule violations (empty means the chain is valid)."""
    violations = []
    pairs = network.pairs()
    nodes = frozenset(label for pair in pairs for label in pair)
    subsets = chain.subsets
    if not subsets:
        return ["chain must contain at least one subset"]
    for idx, s in enumerate(subsets, start=1):
        unknown = s - nodes
        if unknown:
            violations.append(f"subset {idx} references unknown nodes {sorted(unknown)}")
    if violations:
        return violations
    for idx in range(1, len(subsets)):
        if not subsets[idx] <= subsets[idx - 1]:
            violations.append(f"subset {idx + 1} is not contained in subset {idx}")
    full = [nodes] + list(subsets) + [frozenset()]
    for j in range(len(full) - 1):
        for src, dst in pairs:
            if (dst in full[j]) != (src in full[j + 1]):
                violations.append(
                    f"level {j}: destination {dst} in subset iff source {src} in next "
                    f"(got {dst in full[j]} vs {src in full[j + 1]})"
                )
    return violations


Level = tuple[frozenset[Replica], frozenset[Replica]]


def _chain_levels(network: NetworkGraph, chain: CutChain) -> list[Level]:
    """Per level j of a valid chain: (R_{j-1}, R_j), the replicas uncut before
    and after it.  R_j is the replicas whose destination lies in subset j."""
    dests = [(r, network.dest_label(r)) for r in network.replicas]
    uncut = [frozenset(network.replicas)]
    uncut += (frozenset(r for r, dst in dests if dst in s) for s in chain.subsets)
    return list(zip(uncut, uncut[1:]))


def _level_value(network: NetworkGraph, dist: SourceDistribution, level: Level) -> float:
    """H(Y(R_{j-1} - R_j) | X, Y(all - R_{j-1})): the fresh outputs given the
    inputs and outputs of every replica already cut."""
    outer, inner = level
    if outer == inner:
        return 0.0
    cut = [r for r in network.replicas if r not in outer]
    targets = [VariableId("Y", *r) for r in outer - inner]
    cond = [VariableId(kind, *r) for r in cut for kind in "XY"]
    return cond_entropy_network(network, dist, targets, cond)


def _chain_value(
    network: NetworkGraph, chain: CutChain, dist: SourceDistribution, memo: dict[Level, float]
) -> ChainValue:
    """The chain's value; ``memo`` holds the levels evaluated so far."""
    terms = []
    for level in _chain_levels(network, chain):
        if level not in memo:
            memo[level] = _level_value(network, dist, level)
        terms.append(memo[level])
    return ChainValue(total=math.fsum(terms), terms=tuple(terms))


def evaluate_chain(network: NetworkGraph, chain: CutChain, dist: SourceDistribution) -> ChainValue:
    """Single-letter chain value; raises if the chain is invalid."""
    violations = validate_chain(network, chain)
    if violations:
        raise ChainValidationError(violations)
    return _chain_value(network, chain, dist, {})


def chain_from_cuts(
    labels: Mapping[Replica, tuple[str, str]], uncut: Sequence[AbstractSet[Replica]]
) -> CutChain:
    """The chain of nested replica sets ``uncut`` = R_0 >= R_1 >= ... >= R_l,
    R_j holding the replicas still uncut after level j: R_0 is every replica
    in ``labels`` (replica -> source and destination label) and R_l is empty.
    Level j is S(R_{j-1}) | D(R_j), so the chain satisfies the membership rule
    by construction."""
    if set(uncut[0]) != set(labels) or uncut[-1]:
        raise DicboundError("a cut chain starts with every replica uncut and ends with none")
    subsets = []
    for outer, inner in zip(uncut, uncut[1:]):
        if not inner <= outer:
            raise DicboundError(f"replicas {sorted(inner - outer)} are uncut again after a cut")
        subsets.append(frozenset(labels[r][0] for r in outer) | {labels[r][1] for r in inner})
    return CutChain(tuple(subsets))


def enumerate_chains(network: NetworkGraph, max_l: int) -> list[CutChain]:
    """Every valid chain of length 1..max_l, canonically ordered, no duplicates:
    one per nested sequence of uncut replica sets ending empty.

    A chain of length l assigns each of the n replicas the level 1..l that
    cuts it, so there are l**n such chains; more than ``MAX_CHAINS`` in all
    are refused before any is built."""
    if max_l < 1:
        raise DicboundError("max_l must be >= 1")
    replicas = network.replicas
    total = 0
    for length in range(1, max_l + 1):
        total += length ** len(replicas)
        if total > MAX_CHAINS:
            raise BudgetExceededError(f"more than {MAX_CHAINS} cut chains of length up to {max_l}")
    labels = dict(zip(replicas, network.pairs()))
    chains = []
    for length in range(1, max_l + 1):
        for cut_at in product(range(1, length + 1), repeat=len(replicas)):
            uncut = [frozenset(r for r, t in zip(replicas, cut_at) if t > j) for j in range(length + 1)]
            chains.append(chain_from_cuts(labels, uncut))
    chains.sort(key=lambda c: (len(c), c.canonical()))
    return chains


def chain_values(
    network: NetworkGraph, dist: SourceDistribution, max_l: int
) -> list[tuple[CutChain, float]]:
    """Every enumerated chain with its value, not re-validated: enumerated
    chains are valid by construction.  Each distinct level is evaluated once;
    the memo is dropped when the call returns."""
    chains = enumerate_chains(network, max_l)
    memo: dict[Level, float] = {}
    return [(chain, _chain_value(network, chain, dist, memo).total) for chain in chains]


def tightest_chain(values: Iterable[tuple[CutChain, float]]) -> tuple[CutChain, float]:
    """The least (chain, value) pair.  Ties go to the shortest chain, then to
    the lexicographically least canonical form, so results are
    scheduler-independent."""
    return min(values, key=lambda cv: (cv[1], len(cv[0]), cv[0].canonical()))


def min_chain_bound(
    network: NetworkGraph, dist: SourceDistribution, max_l: int
) -> tuple[CutChain, float]:
    """Tightest chain value over all chains up to length max_l."""
    return tightest_chain(chain_values(network, dist, max_l))
