"""Cut-chain bounds on one-hop unicast networks.

A cut chain is a nested sequence of node subsets O_1 >= ... >= O_l with the
membership rule: a destination lies in O_j exactly when its source lies in
O_{j+1} (with O_0 the full node set and O_{l+1} empty).  The chain value is
the sum over levels of H(freshly cut outputs | inputs outside the level,
outputs already cut), evaluated single-letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .entropy import SourceDistribution, VariableId
from .errors import ChainValidationError, DicboundError
from .networks import NetworkGraph, cond_entropy_network


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
    nodes = network.nodes()
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
    full = [frozenset(nodes)] + list(subsets) + [frozenset()]
    for j in range(len(full) - 1):
        for src, dst in network.pairs():
            if (dst in full[j]) != (src in full[j + 1]):
                violations.append(
                    f"level {j}: destination {dst} in subset iff source {src} in next "
                    f"(got {dst in full[j]} vs {src in full[j + 1]})"
                )
    return violations


def _chain_levels(network: NetworkGraph, chain: CutChain):
    """Per level: (target output vars, conditioning vars)."""
    nodes = network.nodes()
    full = [frozenset(nodes)] + list(chain.subsets)
    levels = []
    for j in range(1, len(full)):
        omega_prev, omega = full[j - 1], full[j]
        targets = set()
        cond = set()
        for (user, copy), (src, dst) in zip(network.replicas, network.pairs()):
            if dst in omega_prev and dst not in omega:
                targets.add(VariableId("Y", user, copy))
            if dst not in omega_prev:
                cond.add(VariableId("Y", user, copy))
            if src not in omega:
                cond.add(VariableId("X", user, copy))
        levels.append((targets, cond))
    return levels


def evaluate_chain(network: NetworkGraph, chain: CutChain, dist: SourceDistribution) -> ChainValue:
    """Single-letter chain value; raises if the chain is invalid."""
    violations = validate_chain(network, chain)
    if violations:
        raise ChainValidationError(violations)
    terms = []
    for targets, cond in _chain_levels(network, chain):
        terms.append(cond_entropy_network(network, dist, targets, cond) if targets else 0.0)
    return ChainValue(total=math.fsum(terms), terms=tuple(terms))


def _chain_from_dest_sets(network: NetworkGraph, dest_sets: Sequence[frozenset[str]]) -> CutChain:
    """Build the unique chain whose destination parts are the given nested sets."""
    src_of = dict((d, s) for s, d in network.pairs())
    subsets = []
    prev_dests = frozenset(d for _, d in network.pairs())
    for dests in dest_sets:
        sources = frozenset(src_of[d] for d in prev_dests)
        subsets.append(sources | dests)
        prev_dests = dests
    return CutChain(tuple(subsets))


def enumerate_chains(network: NetworkGraph, max_l: int) -> list[CutChain]:
    """Every valid chain of length 1..max_l, canonically ordered, no duplicates.

    Valid chains are exactly determined by a nested sequence of destination
    subsets ending empty, which keeps enumeration complete and finite.
    """
    if max_l < 1:
        raise DicboundError("max_l must be >= 1")
    dests = sorted(d for _, d in network.pairs())
    if len(network.nodes()) > 16:
        raise DicboundError("network too large for exhaustive chain enumeration")
    all_subsets = []
    for mask in range(1 << len(dests)):
        all_subsets.append(frozenset(d for i, d in enumerate(dests) if mask >> i & 1))
    chains = []
    def extend(seq):
        length = len(seq) + 1  # the chain ends with an implicit empty dest set
        chains.append(_chain_from_dest_sets(network, seq + [frozenset()]))
        if length >= max_l:
            return
        base = seq[-1] if seq else frozenset(dests)
        for sub in all_subsets:
            if sub <= base:
                extend(seq + [sub])
    extend([])
    chains.sort(key=lambda c: (len(c), c.canonical()))
    return chains


def min_chain_bound(
    network: NetworkGraph, dist: SourceDistribution, max_l: int
) -> tuple[CutChain, float]:
    """Tightest chain value over all chains up to length max_l.

    Ties go to the shortest chain, then to the lexicographically least
    canonical form, so results are scheduler-independent.
    """
    best = None
    for chain in enumerate_chains(network, max_l):
        value = evaluate_chain(network, chain, dist).total
        key = (value, len(chain), chain.canonical())
        if best is None or key < best[0]:
            best = (key, chain, value)
    assert best is not None
    return best[1], best[2]
