"""One-hop unicast networks built from a deterministic interference channel.

A network is a set of (user, copy) replicas; each replica has a source node
transmitting X and a destination node receiving Y.  Every receiver reuses the
base channel functions and is wired to exactly one replica of each other user.
This module owns that model: ``replicas_from_counts`` lists the replicas,
``NetworkGraph`` is the one check of replicas and wiring, and ``node_labels``
is the one node-label format.

This module holds the one entropy engine, a numpy kernel: ``source_atoms``
enumerates source atoms as arrays (and is the only place that checks a law
against a network and enforces the atom cap, ``MAX_ATOMS``),
``NetworkGraph.evaluator`` maps them to a value array, and
``entropy.row_entropy`` merges equal rows into an entropy.  ``entropy.induce_joint`` and the one network query,
``cond_entropy_network``, are front-ends over it; ``network_entropy`` is that
query with nothing conditioned.  The query avoids materializing the full
joint: it enumerates once, over only the sources its variables depend on, and
under a product law conditioning on a source's input and its receiver's output
pins down the interference it saw, which shrinks that set further.  That
closure is computed on the (user, copy) replica sets of the known X's, V's and
Y's; ``VariableId``s are built only for the columns the enumeration evaluates.
A cut-chain level is one such query, fixed by the replicas uncut before and
after it (see ``gcs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channels import DeterministicChannel
from .entropy import SourceDistribution, VariableId, row_entropy
from .errors import BudgetExceededError, DicboundError, DistributionError, RecipeError

# source_atoms refuses more atoms in one enumeration, before any array is built
MAX_ATOMS = 1 << 22

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
    _index: Mapping[Replica, int] = field(init=False, repr=False)  # position in replicas
    _sizes: tuple[int, ...] = field(init=False, repr=False)  # source alphabet sizes

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
        object.__setattr__(self, "_index", {r: i for i, r in enumerate(self.replicas)})
        sizes = tuple(self.channel.input_sizes[u - 1] for u, _ in self.replicas)
        object.__setattr__(self, "_sizes", sizes)

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
        return self._sizes

    def all_variables(self) -> tuple[VariableId, ...]:
        xs = [VariableId("X", u, c) for u, c in self.replicas]
        vs = [VariableId("V", u, c) for u, c in self.replicas]
        ys = [VariableId("Y", u, c) for u, c in self.replicas]
        return tuple(xs + vs + ys)

    def replica_sets(self, variables: Iterable[VariableId]) -> tuple[set[Replica], ...]:
        """The replicas of the variables' X's, V's and Y's, as three sets,
        each variable checked to belong to this network."""
        sets: dict[str, set[Replica]] = {"X": set(), "V": set(), "Y": set()}
        for var in variables:
            r = (var.user, var.copy)
            if r not in self._wiring_map:
                raise DicboundError(f"variable {var} is not in this network")
            sets[var.kind].add(r)
        return sets["X"], sets["V"], sets["Y"]

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

    Checks the law against the network and enforces ``MAX_ATOMS`` before
    any array is allocated.  Product-law atoms are in row-major order.
    """
    if dist.sizes != network.source_sizes():
        names = ", ".join(str(v) for v in network.source_variables())
        raise DistributionError(
            f"law over alphabet sizes {list(dist.sizes)} does not fit the sources "
            f"{names} with sizes {list(network.source_sizes())}"
        )
    idx = [network._index[r] for r in sources]
    if dist.mode == "product":
        supports = [[s for s, q in enumerate(dist.tables[i]) if q > 0.0] for i in idx]
        count = math.prod(len(s) for s in supports)
    else:
        marginal = dist.marginal_joint(idx)
        count = len(marginal)
    if count > MAX_ATOMS:
        raise BudgetExceededError(f"{count} source atoms over {len(sources)} sources exceed the cap of {MAX_ATOMS}")
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


def _closure(network: NetworkGraph, xs: set[Replica], vs: set[Replica], ys: set[Replica]):
    """The replicas of the known X's, V's and Y's, given those conditioned.

    Closure rules: V = g(X); Y determined once its input and all wired
    interference symbols are; and (X, Y) of a receiver determine the wired
    interference symbols (the recoverability invariant).  No rule derives an
    X, so the known V's are the conditioned ones, those of the known X's and
    those recovered at receivers with X and Y known; the known Y's add each
    receiver whose input and wired V's are known, and that is the fixed point.
    """
    known_v = vs | xs
    for r in xs & ys:
        known_v.update(network.interferers_of(r))
    known_y = ys | {r for r in xs if known_v.issuperset(network.interferers_of(r))}
    return xs, known_v, known_y


def _variables(kind: str, replicas: Iterable[Replica]) -> list[VariableId]:
    """The variables of one kind at the replicas, in sorted order."""
    return [VariableId(kind, u, c) for u, c in sorted(replicas)]


def known_closure(network: NetworkGraph, cond: Iterable[VariableId]) -> set[VariableId]:
    """All variables determined by the conditioning set (see ``_closure``)."""
    known = _closure(network, *network.replica_sets(cond))
    return {v for kind, replicas in zip("XVY", known) for v in _variables(kind, replicas)}


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
    t_x, t_v, t_y = network.replica_sets(targets)
    c_x, c_v, c_y = network.replica_sets(cond)
    if dist.mode == "product" and c_y <= c_x:
        k_x, k_v, k_y = _closure(network, c_x, c_v, c_y)
        t_x, t_v, t_y = t_x - k_x, t_v - k_v, t_y - k_y
        if not (t_x or t_v or t_y):
            return 0.0
        gen_v = k_v - c_x
        deps = t_x | t_v | t_y | gen_v
        for r in t_y:
            deps.update(network.interferers_of(r))
        keys = _variables("X", deps & c_x) + _variables("V", gen_v)
    else:
        t_x, t_v, t_y = t_x - c_x, t_v - c_v, t_y - c_y
        keys = _variables("V", c_v) + _variables("X", c_x) + _variables("Y", c_y)
    live = _variables("V", t_v) + _variables("X", t_x) + _variables("Y", t_y)
    values, p = symbol_rows(network, dist, keys + live)
    return row_entropy(values, p) - row_entropy(values[:, : len(keys)], p)


def network_entropy(network: NetworkGraph, dist: SourceDistribution, subset) -> float:
    """H(subset): the network query with nothing conditioned."""
    return cond_entropy_network(network, dist, subset)
