"""One-hop unicast networks built from a deterministic interference channel.

A network is a set of (user, copy) replicas; each replica has a source node
transmitting X and a destination node receiving Y.  Every receiver reuses the
base channel functions and is wired to exactly one replica of each other user.
This module owns that model: ``replicas_from_counts`` lists the replicas,
``NetworkGraph`` is the one check of replicas and wiring, and ``node_labels``
is the one node-label format.

This module holds the one entropy engine, a numpy kernel: ``source_atoms``
enumerates source atoms as arrays (and is the only place that checks a law
against a network and enforces the atom budget), ``NetworkGraph.evaluator``
maps them to a value array, and ``entropy.row_entropy`` merges equal rows into
an entropy.  ``entropy.induce_joint`` and the one network query,
``cond_entropy_network``, are front-ends over it; ``network_entropy`` is that
query with nothing conditioned.  The query avoids materializing the full
joint: it enumerates once, over only the sources its variables depend on, and
under a product law conditioning on a source's input and its receiver's output
pins down the interference it saw, which shrinks that set further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channels import DeterministicChannel
from .entropy import SourceDistribution, VariableId, atom_budget, row_entropy
from .errors import BudgetExceededError, DicboundError, DistributionError, RecipeError

Replica = tuple[int, int]  # (user, copy), both 1-based


def replicas_from_counts(counts: Sequence[int]) -> tuple[Replica, ...]:
    """Copies 1..counts[u-1] of every user u, user-major."""
    if any(n < 1 for n in counts):
        raise RecipeError(f"replica counts must be positive, got {list(counts)}")
    return tuple((u, c) for u, n in enumerate(counts, start=1) for c in range(1, n + 1))


def node_labels(replica: Replica, base: bool = False) -> tuple[str, str]:
    """(source, destination) labels of a replica: S1/D1 on a base network,
    S1^2/D2^1 on a replicated one."""
    user, copy = replica
    tag = f"{user}" if base else f"{user}^{copy}"
    return "S" + tag, "D" + tag


@dataclass(frozen=True)
class NetworkGraph:
    """One-hop K-unicast network: sources transmit only, destinations receive only.

    The one validator of replica structure and wiring: the replicas are
    copies 1..k of every channel user, and every replica's receiver, and no
    other, is wired to one replica of each other user, in user order.
    """

    channel: DeterministicChannel
    replicas: tuple[Replica, ...]
    wiring: tuple[tuple[Replica, tuple[Replica, ...]], ...]
    base_labels: bool = False
    _wiring_map: Mapping[Replica, tuple[Replica, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.channel.valid:
            raise RecipeError("channel fails interference recoverability; refusing to build network")
        counts: dict[int, int] = {}
        for user, copy in self.replicas:
            counts[user] = max(counts.get(user, 0), copy)
        users = sorted(counts)
        if users != list(range(1, self.channel.user_count + 1)):
            raise RecipeError(
                f"replicas cover {len(users)} users {users}, channel has {self.channel.user_count}"
            )
        if sorted(self.replicas) != list(replicas_from_counts([counts[u] for u in users])):
            raise RecipeError("replica copies must be dense 1..k per user")
        wmap = dict(self.wiring)
        if len(wmap) != len(self.wiring):
            raise RecipeError("a receiver is wired twice")
        replicas = set(self.replicas)
        stray = sorted(set(wmap) - replicas)
        if stray:
            raise RecipeError(f"wiring for receivers {stray}, which are not replicas")
        for r in self.replicas:
            user, _ = r
            others = tuple(j + 1 for j in self.channel.interferers(user - 1))
            wired = wmap.get(r)
            if wired is None:
                raise RecipeError(f"no interference wiring for replica {r}")
            if tuple(w[0] for w in wired) != others:
                raise RecipeError(
                    f"replica {r} must be wired to users {others} in order, got {wired}"
                )
            for w in wired:
                if w not in replicas:
                    raise RecipeError(f"replica {r} wired to unknown replica {w}")
        object.__setattr__(self, "_wiring_map", wmap)

    # -- structure ----------------------------------------------------------

    def interferers_of(self, replica: Replica) -> tuple[Replica, ...]:
        return self._wiring_map[replica]

    def source_label(self, replica: Replica) -> str:
        return node_labels(replica, self.base_labels)[0]

    def dest_label(self, replica: Replica) -> str:
        return node_labels(replica, self.base_labels)[1]

    def nodes(self) -> frozenset[str]:
        return frozenset(label for pair in self.pairs() for label in pair)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """(source, destination) labels per replica, in replica order."""
        return tuple(node_labels(r, self.base_labels) for r in self.replicas)

    # -- variables ----------------------------------------------------------

    def source_variables(self) -> tuple[VariableId, ...]:
        return tuple(VariableId("X", u, c) for u, c in self.replicas)

    def source_sizes(self) -> tuple[int, ...]:
        return tuple(self.channel.input_sizes[u - 1] for u, _ in self.replicas)

    def all_variables(self) -> tuple[VariableId, ...]:
        xs = [VariableId("X", u, c) for u, c in self.replicas]
        vs = [VariableId("V", u, c) for u, c in self.replicas]
        ys = [VariableId("Y", u, c) for u, c in self.replicas]
        return tuple(xs + vs + ys)

    def check_variables(self, variables: Iterable[VariableId]) -> set[VariableId]:
        """The variables as a set, each checked to belong to this network."""
        out = set(variables)
        for var in out:
            if (var.user, var.copy) not in self._wiring_map:
                raise DicboundError(f"variable {var} is not in this network")
        return out

    def evaluator(self, variables: Sequence[VariableId], sources: Sequence[Replica], xs):
        """The symbol evaluator: the (atoms x variables) value array of
        ``variables`` at the inputs ``xs`` (atoms x ``sources``, in order).
        Each interference column a query needs is computed once.
        """
        channel, pos = self.channel, {r: i for i, r in enumerate(sources)}
        v_col = cache(lambda r: np.asarray(channel.g[r[0] - 1])[xs[:, pos[r]]])
        out = np.empty((len(xs), len(variables)), dtype=np.int64)
        for j, var in enumerate(variables):
            r = (var.user, var.copy)
            if var.kind == "Y":
                idx = xs[:, pos[r]]
                for w in self._wiring_map[r]:
                    idx = idx * channel.v_sizes[w[0] - 1] + v_col(w)
                out[:, j] = np.asarray(channel.f[var.user - 1])[idx]
            else:
                out[:, j] = xs[:, pos[r]] if var.kind == "X" else v_col(r)
        return out

    def dependencies(self, var: VariableId) -> frozenset[Replica]:
        """Source replicas the variable is a function of."""
        r = (var.user, var.copy)
        if var.kind in ("X", "V"):
            return frozenset((r,))
        return frozenset((r,) + self._wiring_map[r])


def base_network(channel: DeterministicChannel) -> NetworkGraph:
    """Wrap a channel as its own one-hop network (nodes S1..  D1..)."""
    replicas = tuple((u, 1) for u in range(1, channel.user_count + 1))
    wiring = tuple(
        ((u, 1), tuple((j + 1, 1) for j in channel.interferers(u - 1)))
        for u in range(1, channel.user_count + 1)
    )
    return NetworkGraph(channel=channel, replicas=replicas, wiring=wiring, base_labels=True)


def replicate_distribution(network: NetworkGraph, base_dist: SourceDistribution) -> SourceDistribution:
    """Product distribution giving every replica its user's base marginal."""
    if base_dist.mode != "product":
        raise DistributionError("replica inputs require a product-mode base distribution")
    if len(base_dist.sizes) != network.channel.user_count:
        raise DistributionError("base distribution must have one factor per channel user")
    tables = [base_dist.tables[u - 1] for u, _ in network.replicas]
    return SourceDistribution("product", network.source_sizes(), tables)


# -- the entropy engine ------------------------------------------------------


def source_atoms(network: NetworkGraph, dist: SourceDistribution, sources: Sequence[Replica]):
    """The source enumerator: (xs, p) over the given source replicas, xs an
    int64 array with one row of their inputs per atom, p the atom masses.

    Checks the law against the network and enforces the atom budget before
    any array is allocated.  Product-law atoms are in row-major order.
    """
    expected = network.source_sizes()
    if dist.sizes != expected:
        names = ", ".join(str(v) for v in network.source_variables())
        raise DistributionError(
            f"law over alphabet sizes {list(dist.sizes)} does not fit the sources "
            f"{names} with sizes {list(expected)}"
        )
    idx = [network.replicas.index(r) for r in sources]
    if dist.mode == "product":
        supports = [[s for s, q in enumerate(dist.tables[i]) if q > 0.0] for i in idx]
        count = math.prod(len(s) for s in supports)
    else:
        marginal = dist.marginal_joint(idx)
        count = len(marginal)
    cap = atom_budget()
    if count > cap:
        raise BudgetExceededError(
            f"{count} source atoms over {len(sources)} sources exceed the cap of {cap}"
        )
    if dist.mode == "joint":
        xs = np.array(list(marginal), dtype=np.int64).reshape(count, len(idx))
        return xs, np.fromiter(marginal.values(), dtype=float, count=count)
    xs, p = np.empty([len(s) for s in supports] + [len(idx)], dtype=np.int64), np.ones(1)
    for axis, (i, support) in enumerate(zip(idx, supports)):
        xs[..., axis] = np.reshape(support, [-1] + [1] * (len(idx) - 1 - axis))
        p = (p[:, None] * np.array(dist.tables[i])[support]).ravel()
    return xs.reshape(count, len(idx)), p


def symbol_rows(network: NetworkGraph, dist: SourceDistribution, variables):
    """(values, p): the values of ``variables`` and the masses of the source
    atoms over the variables' dependency closure, in sorted order."""
    sources = sorted(set().union(*(network.dependencies(v) for v in variables)))
    xs, p = source_atoms(network, dist, sources)
    return network.evaluator(variables, sources, xs), p


# -- the network query ---------------------------------------------------------


def known_closure(network: NetworkGraph, cond: Iterable[VariableId]) -> set[VariableId]:
    """All variables determined by the conditioning set.

    Closure rules: V = g(X); Y determined once its input and all wired
    interference symbols are; and (X, Y) of a receiver determine the wired
    interference symbols (the recoverability invariant).  No rule derives an
    X, so one pass adds every V there is to add; a second adds each Y whose
    input and wired V's are known, and that is the fixed point.
    """
    known = set(cond)
    for u, c in network.replicas:
        if VariableId("X", u, c) in known:
            known.add(VariableId("V", u, c))
            if VariableId("Y", u, c) in known:
                known.update(VariableId("V", *w) for w in network.interferers_of((u, c)))
    for u, c in network.replicas:
        wired = (VariableId("V", *w) for w in network.interferers_of((u, c)))
        if VariableId("X", u, c) in known and all(w in known for w in wired):
            known.add(VariableId("Y", u, c))
    return known


def cond_entropy_network(
    network: NetworkGraph,
    dist: SourceDistribution,
    targets: Iterable[VariableId],
    cond: Iterable[VariableId] = (),
) -> float:
    """H(targets | cond) on the network without materializing the full joint:
    H(keys, targets) - H(keys) from one enumeration of the sources they
    depend on.

    The keys are the conditioning set.  Under a product law whose conditioned
    outputs each come with their own input, they are reduced first: the
    targets the conditioning determines drop out, and the keys become the
    conditioned X's and recovered V's that share a source with what is left.
    """
    targets = network.check_variables(targets)
    cond = network.check_variables(cond)
    self_conditioned = all(
        VariableId("X", v.user, v.copy) in cond for v in cond if v.kind == "Y"
    )
    if dist.mode == "product" and self_conditioned:
        known = known_closure(network, cond)
        live = sorted(targets - known)
        if not live:
            return 0.0
        cond_x_sources = {(v.user, v.copy) for v in cond if v.kind == "X"}
        gen_v = sorted(
            v for v in known if v.kind == "V" and (v.user, v.copy) not in cond_x_sources
        )
        deps: set[Replica] = set()
        for v in live + gen_v:
            deps |= network.dependencies(v)
        keys = sorted(VariableId("X", u, c) for (u, c) in deps & cond_x_sources) + gen_v
    else:
        live, keys = sorted(targets - cond), sorted(cond)
    values, p = symbol_rows(network, dist, keys + live)
    return row_entropy(values, p) - row_entropy(values[:, : len(keys)], p)


def network_entropy(network: NetworkGraph, dist: SourceDistribution, subset) -> float:
    """H(subset): the network query with nothing conditioned."""
    return cond_entropy_network(network, dist, subset)
