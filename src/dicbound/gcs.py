"""Cut-chain bounds on one-hop unicast networks.

A cut chain is a nested sequence of node subsets O_1 >= ... >= O_l with the
membership rule: a destination lies in O_j exactly when its source lies in
O_{j+1} (with O_0 the full node set and O_{l+1} empty).  The chain value is
the sum over levels of H(freshly cut outputs | inputs outside the level,
outputs already cut), evaluated single-letter.

The rule fixes a chain by the replicas still uncut at each level: nested sets
R_0 = all >= R_1 >= ... >= R_l = {} give O_j = S(R_{j-1}) | D(R_j), and every
valid chain arises this way.  Level j is H(Y(R_{j-1} - R_j) | X, Y(all -
R_{j-1})), so the pair (R_{j-1}, R_j) alone decides its value, whichever
chain it occurs in.  A level is two replica bitmasks, (cut, fresh), of the
replicas cut before it and of those it cuts, and a chain's *walk* is its
levels in order.  Inside the library a chain is its walk; its node labels
appear only at the edge, through three conversions: peel order -> walk
(``extend._recipe_walk``), labels -> walk (``_chain_levels``, after
``validate_chain``) and walk -> labels (``_walk_chains``).

A level's query is compiled once per network (``networks.compile_query``,
law-free, keeps it on the network) and asked of ``networks.memo_entropy``,
the one network query, which evaluates only a query shape its memo has not
met.  A hit is exact: a shape renames replicas only within a user under
equal tables, and a user's replicas run i.i.d. copies of its inputs.  The
memo, a ``networks.ShapeMemo``, also builds each source-table tuple's masses
for the channel's kernels once for all the shapes that read it, under a
product or a joint law, and the entropy of each of the kernels' bin
partitions once per table tuple (the ineq5 search at k = 1: 622 shapes,
8 table tuples, 1,184 bin arrays in 49 partitions, and 72 log-sums, one per
(table tuple, partition) pair).

``_chain_value`` is the one evaluator of a given chain, from the plans of
its walk (``chain_plans``); its caller keeps the shape memo:
``evaluate_chain`` starts one per chain, and ``extend.verify_chain_identity``
one across its k range (one channel, the replicas of one base law), with
each recipe's plans kept on the network.  The searches start from the
walks: ``_chain_walks`` lists every chain up to a length as its walk, once,
after counting them against ``MAX_CHAINS``; ``_walk_values`` asks each
distinct level once, with one shape memo per call, and sums each walk's
levels with ``math.fsum``; a search repeated on a kept network compiles
nothing.  ``chain_values`` (``gcs --enumerate``) turns every walk into its
chain and lists them canonically ordered; ``min_chain_bound`` turns only
the walks tied at the least value into chains, for the one tie rule,
``tightest_chain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .entropy import SourceDistribution
from .errors import BudgetExceededError, ChainValidationError, DicboundError
from .networks import NetworkGraph, QueryPlan, ShapeMemo, compile_query, memo_entropy

# The chain searches and enumerate_chains refuse to walk more chains.  The
# largest search in the benchmark walks 794 (ineq5 at k = 1, up to length 3);
# `gcs --enumerate` on xor2 up to length 30 walks and prints 9,455 in 1.0-1.1 s
# with 105 MB peak RSS on a 2-core Xeon, and time and memory grow with the
# chain count times the chain length.
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

    def __repr__(self) -> str:
        # a frozenset prints in hash-table order, which depends on how it was
        # built and on the hash seed; the canonical form does not
        return f"CutChain.of({self.canonical()!r})"


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
Walk = tuple[Level, ...]


def _chain_levels(network: NetworkGraph, chain: CutChain) -> list[Level]:
    """Per level j of a valid chain: the replica bitmasks (cut, fresh) of
    all - R_{j-1} and R_{j-1} - R_j, R_j being the replicas whose destination
    lies in subset j."""
    dests = [(r, network.dest_label(r)) for r in network.replicas]
    every = network.mask(network.replicas)
    uncut = [every] + [network.mask(r for r, dst in dests if dst in s) for s in chain.subsets]
    return [(every & ~outer, outer & ~inner) for outer, inner in zip(uncut, uncut[1:])]


def _level_plan(network: NetworkGraph, level: Level, product: bool) -> QueryPlan | None:
    """The compiled query H(Y(fresh) | X(cut), Y(cut)) of a level: the
    outputs it cuts given the inputs and outputs of every replica already
    cut, or None when it cuts nothing."""
    cut, fresh = level
    return compile_query(network, product, (0, 0, fresh), (cut, 0, cut)) if fresh else None


def chain_plans(network: NetworkGraph, walk: Iterable[Level], product: bool) -> tuple[QueryPlan | None, ...]:
    """The law-free plans of a chain's levels on the network, given as its
    walk, for a product law or not: what each level asks, whatever the law."""
    return tuple([_level_plan(network, level, product) for level in walk])


def _chain_value(network: NetworkGraph, dist: SourceDistribution, plans, shapes: ShapeMemo) -> ChainValue:
    """The value of a chain from its level plans (``chain_plans``, for the
    law's mode), each asked of ``memo_entropy`` with ``shapes`` as its memo,
    which may span networks of one channel."""
    terms = tuple([memo_entropy(network, dist, plan, shapes) for plan in plans])
    return ChainValue(total=math.fsum(terms), terms=terms)


def evaluate_chain(network: NetworkGraph, chain: CutChain, dist: SourceDistribution) -> ChainValue:
    """Single-letter chain value; raises if the chain is invalid."""
    violations = validate_chain(network, chain)
    if violations:
        raise ChainValidationError(violations)
    plans = chain_plans(network, _chain_levels(network, chain), dist.mode == "product")
    return _chain_value(network, dist, plans, ShapeMemo())


def _chain_walks(network: NetworkGraph, max_l: int) -> list[Walk]:
    """Every chain of length 1..max_l as its walk, the (cut, fresh) replica
    bitmasks of its levels (see ``_chain_levels``), once each: a chain of
    length l gives each of the n replicas the level that cuts it, so there
    are l**n walks of that length.  More than ``MAX_CHAINS`` in all are
    refused before any is built."""
    if max_l < 1:
        raise DicboundError("max_l must be >= 1")
    total = 0
    for length in range(1, max_l + 1):
        total += length ** len(network.replicas)
        if total > MAX_CHAINS:
            raise BudgetExceededError(f"more than {MAX_CHAINS} cut chains of length up to {max_l}")
    walks: list[Walk] = []
    for length in range(1, max_l + 1):
        _extend_walk((), 0, network.mask(network.replicas), length, walks)
    return walks


def _extend_walk(prefix: Walk, cut: int, uncut: int, left: int, walks: list[Walk]) -> None:
    """Append to ``walks`` every walk of ``left`` more levels after
    ``prefix``, ``cut`` and ``uncut`` being the replicas cut and not yet cut
    after it: each level but the last cuts any subset of the uncut replicas,
    the empty one included, and the last cuts them all."""
    if left == 1:
        walks.append(prefix + ((cut, uncut),))
        return
    fresh = uncut
    while True:  # every subset of uncut, from uncut itself down to empty
        _extend_walk(prefix + ((cut, fresh),), cut | fresh, uncut & ~fresh, left - 1, walks)
        if not fresh:
            return
        fresh = (fresh - 1) & uncut


def _walk_chains(network: NetworkGraph, walks: Iterable[Walk]) -> list[CutChain]:
    """The chain of each walk: level j is S(R_{j-1}) | D(R_j), R_{j-1} and R_j
    being the replicas uncut before and after it, so every chain meets the
    membership rule by construction."""
    labels = [(network.mask([r]), src, dst) for r, (src, dst) in zip(network.replicas, network.pairs())]
    every = network.mask(network.replicas)
    chains = []
    for walk in walks:
        subsets = []
        for cut, fresh in walk:
            outer, inner = every & ~cut, every & ~(cut | fresh)
            sources = [src for bit, src, _ in labels if outer & bit]
            subsets.append(frozenset(sources + [dst for bit, _, dst in labels if inner & bit]))
        chains.append(CutChain(tuple(subsets)))
    return chains


def _sorted_chains(network: NetworkGraph, max_l: int) -> list[tuple[CutChain, Walk]]:
    """Every chain of length 1..max_l with its walk, canonically ordered:
    by length, then canonical form."""
    walks = _chain_walks(network, max_l)
    pairs = list(zip(_walk_chains(network, walks), walks))
    pairs.sort(key=lambda cw: (len(cw[0]), cw[0].canonical()))
    return pairs


def enumerate_chains(network: NetworkGraph, max_l: int) -> list[CutChain]:
    """Every valid chain of length 1..max_l, canonically ordered, no duplicates:
    one per walk.

    A chain of length l assigns each of the n replicas the level 1..l that
    cuts it, so there are l**n such chains; more than ``MAX_CHAINS`` in all
    are refused before any is built."""
    return [chain for chain, _ in _sorted_chains(network, max_l)]


def _walk_values(network: NetworkGraph, dist: SourceDistribution, walks: Sequence[Walk]) -> list[float]:
    """The value of each walk: the ``math.fsum`` of its levels' values, each
    distinct level asked once, in the order the walks first meet it, with one
    shape memo, which is dropped when the call returns; the network keeps
    the plans."""
    product, shapes, levels = dist.mode == "product", ShapeMemo(), {}
    for walk in walks:
        for level in walk:
            if level not in levels:
                levels[level] = memo_entropy(network, dist, _level_plan(network, level, product), shapes)
    return [math.fsum(map(levels.__getitem__, walk)) for walk in walks]


def chain_values(
    network: NetworkGraph, dist: SourceDistribution, max_l: int
) -> list[tuple[CutChain, float]]:
    """Every enumerated chain with its value, canonically ordered, not
    re-validated: enumerated chains are valid by construction.  Each distinct
    level is compiled and asked once, and the shape memo asks each distinct
    query shape once, under a product or a joint law."""
    chains, walks = zip(*_sorted_chains(network, max_l))
    return list(zip(chains, _walk_values(network, dist, walks)))


def tightest_chain(values: Iterable[tuple[CutChain, float]]) -> tuple[CutChain, float]:
    """The least (chain, value) pair.  Ties go to the shortest chain, then to
    the lexicographically least canonical form, so results are
    scheduler-independent."""
    return min(values, key=lambda cv: (cv[1], len(cv[0]), cv[0].canonical()))


def min_chain_bound(
    network: NetworkGraph, dist: SourceDistribution, max_l: int
) -> tuple[CutChain, float]:
    """Tightest chain value over all chains up to length max_l: every walk is
    valued, and only the walks tied at the least value become chains, for
    ``tightest_chain``."""
    walks = _chain_walks(network, max_l)
    values = _walk_values(network, dist, walks)
    best = min(values)
    walks, values = zip(*[(walk, value) for walk, value in zip(walks, values) if value == best])
    return tightest_chain(zip(_walk_chains(network, walks), values))
