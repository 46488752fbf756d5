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
``_chain_levels`` gives a level as two replica bitmasks, of the replicas
cut before it and of those it cuts, and each distinct level is asked once
of ``networks.memo_entropy``, the one network query, which evaluates only a
query shape its memo has not met.  A hit is exact: a shape renames replicas
only within a user under equal tables, and a user's replicas run i.i.d.
copies of its inputs.  The memo, a ``networks.ShapeMemo``, also enumerates each
source-table tuple once for all the shapes that read it (the ineq5 search
at k = 1: 622 shapes, 8 enumerations), under a product or a joint law.
``_chain_value`` is the one evaluator; its caller keeps the shape memo:
``evaluate_chain`` starts one per chain, ``extend.verify_chain_identity``
one across its k range (one channel, the replicas of one base law), and
``chain_values`` one per call, with a local dict of its chains' levels, so
each distinct level is reduced once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import AbstractSet, Iterable, Mapping, Sequence

from .entropy import SourceDistribution
from .errors import BudgetExceededError, ChainValidationError, DicboundError
from .networks import NetworkGraph, Replica, ShapeMemo, memo_entropy

# enumerate_chains refuses to build more.  The largest enumeration in the
# benchmark builds 794 (ineq5 at k = 1, up to length 3); `gcs --enumerate` on
# xor2 up to length 30 builds 9,455 and takes 1.8-2.0 s and 96 MB on a 2-core Xeon,
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
    pairs, nodes = network.pairs(), network.nodes()
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


Level = tuple[int, int]


def _chain_levels(network: NetworkGraph, chain: CutChain) -> list[Level]:
    """Per level j of a valid chain: the replica bitmasks (cut, fresh) of
    all - R_{j-1} and R_{j-1} - R_j, R_j being the replicas whose destination
    lies in subset j."""
    dests = [(r, network.dest_label(r)) for r in network.replicas]
    every = network.mask(network.replicas)
    uncut = [every] + [network.mask(r for r, dst in dests if dst in s) for s in chain.subsets]
    return [(every & ~outer, outer & ~inner) for outer, inner in zip(uncut, uncut[1:])]


def _level_value(network: NetworkGraph, dist: SourceDistribution, level: Level, shapes: ShapeMemo) -> float:
    """H(Y(fresh) | X(cut), Y(cut)): the outputs a level cuts given the
    inputs and outputs of every replica already cut, asked of
    ``memo_entropy`` on replica bitmasks with ``shapes`` as its memo."""
    cut, fresh = level
    return memo_entropy(network, dist, (0, 0, fresh), (cut, 0, cut), shapes) if fresh else 0.0


def _chain_value(network: NetworkGraph, chain: CutChain, dist: SourceDistribution, shapes: ShapeMemo) -> ChainValue:
    """The value of a valid chain, not re-validated.  ``shapes`` is the shape
    memo of ``_level_value``, and may span networks of one channel."""
    terms = tuple(_level_value(network, dist, level, shapes) for level in _chain_levels(network, chain))
    return ChainValue(total=math.fsum(terms), terms=terms)


def evaluate_chain(network: NetworkGraph, chain: CutChain, dist: SourceDistribution) -> ChainValue:
    """Single-letter chain value; raises if the chain is invalid."""
    violations = validate_chain(network, chain)
    if violations:
        raise ChainValidationError(violations)
    return _chain_value(network, chain, dist, ShapeMemo())


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
    chains are valid by construction.  The local ``levels`` dict reduces
    each distinct level once, in the order the chains first meet it, and
    the shape memo asks each distinct query shape once, under a product or
    a joint law; both are dropped when the call returns."""
    chains = enumerate_chains(network, max_l)
    walks = [_chain_levels(network, chain) for chain in chains]
    shapes = ShapeMemo()
    distinct = dict.fromkeys(level for walk in walks for level in walk)
    levels = {level: _level_value(network, dist, level, shapes) for level in distinct}
    return [(chain, math.fsum(map(levels.__getitem__, walk))) for chain, walk in zip(chains, walks)]


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
