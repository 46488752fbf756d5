"""One-hop unicast networks built from a deterministic interference channel.

A network is a set of (user, copy) replicas; each replica has a source node
transmitting X and a destination node receiving Y.  Every receiver reuses the
base channel functions and is wired to exactly one replica of each other user.
So a network is fixed by its replica count per user and its wiring.  This
module owns that model: ``NetworkGraph`` is built from those two and is the
one check of them, ``replicas_from_counts`` lists the replicas, and
``node_labels`` is the one node-label format.

This module holds the one entropy engine, a numpy kernel.  Inside it a
source is its position in ``replicas``, and a column is (kind, the
positions of the sources it reads: its own, then, for an output, the wired
ones in user order): replicas of a user run i.i.d. copies of its inputs, so
a value depends only on the positions its columns read.  From the network
query's callers in, a replica set is a bitmask over those positions, bit i
for ``replicas[i]``; ``NetworkGraph.mask`` is the one replica -> bit
conversion, and no other module knows which bit is which replica.
``source_atoms`` enumerates the sources at given positions as arrays under
the atom cap, ``MAX_ATOMS``, which only it enforces; ``evaluate_columns``
maps them to the values of columns relabelled by rank among those positions,
with the channel's lookup arrays (``DeterministicChannel.arrays``); and
``entropy.row_entropy`` merges equal rows into an entropy, and a query's
H(keys, live) - H(keys) in one pass over its columns, keys first.  The
engine has two entries, and each checks the law once with ``check_law``:
``query_entropy``, reached only through ``memo_entropy``, enumerates only
the positions its columns read, and ``entropy.induce_joint`` enumerates
every position for a full joint table, with the columns ``query_plan``
gives on the full masks.  Under a product law, conditioning on a source's
input and its receiver's output pins down the interference it saw, which
shrinks a query's sources further.

A network query has two halves.  The law-free half, ``compile_query``,
takes (X, V, Y) mask triples of the targets and of the conditioning and
whether the law is a product law: ``reduce_query`` computes that closure on
the masks with the interference masks ``NetworkGraph`` builds once, and
returns the key and live columns as (kind, bitmask) groups, or None when
the conditioning determines every target; ``query_plan`` then lists the
positions the query reads, ascending, so a source's label is its rank among
them, their users, the key count and the relabelled columns.  A
``QueryPlan`` depends only on a network's counts and wiring, not on its
channel or law, so ``compile_query`` keeps each plan in the network's own
memo, with their repeated parts held once, and a query asked again under
any law reduces nothing; recipe chains and replica rates keep theirs, in
order, on the cached recipes (see ``extend``).  The law step,
``memo_entropy``, is the one network query and the one law evaluator: it
checks the law, turns the plan into a shape with ``query_shape``, which
names a query up to renaming replicas of one user under equal tables, so
equal shapes have values equal bit for bit, and runs ``query_entropy``, the
engine entry, only for a shape not yet in the caller's ``ShapeMemo``.  The memo also keeps, within ``MAX_ATOMS`` cells,
one enumeration per source-table tuple (a shape's first part) and the
columns evaluated at it, so queries that read equal tables enumerate once.
A joint-law source is named in the shape by the law and its position in it,
so every query has a shape.  Chain levels share a memo per chain, chain
search or identity k range (see ``gcs``), replica rates one over the base
and extended network, and ``cond_entropy_network`` (and
``network_entropy``), the public ``VariableId`` front end on the masks
``replica_sets`` builds, compiles its query and has a fresh shape memo per
call.  A channel's own one-hop network, ``base_network``, is built and
checked once per channel object, as is each extended network (``extend``),
so the plans kept on them live as long as the channel; no network holds a
law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .channels import DeterministicChannel
from .entropy import SourceDistribution, VariableId, row_entropy
from .errors import BudgetExceededError, DicboundError, DistributionError, RecipeError

# source_atoms refuses more atoms in one enumeration, before any array is
# built.  H of the 10 (11) outputs of a 10 (11)-replica shift2:2,2,1 network
# enumerates 2^20 (2^22) atoms and takes 0.41-0.44 s and 268 MB peak RSS
# (2.2-2.3 s and 1,031 MB) on a 2-core Xeon; memory grows with atoms x columns.
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

    Fixed by the replica count of each channel user and each receiver's
    wiring; ``replicas`` lists copies 1..counts[u-1] of every user u.  The
    one validator of a network: every replica's receiver, and no other, is
    wired to one replica of each other user, in user order.
    """

    channel: DeterministicChannel
    counts: tuple[int, ...]
    wiring: tuple[tuple[Replica, tuple[Replica, ...]], ...]
    base_labels: bool = False
    replicas: tuple[Replica, ...] = field(init=False)
    _bit: Mapping[Replica, int] = field(init=False, repr=False)  # 1 << position
    _sizes: tuple[int, ...] = field(init=False, repr=False)  # source alphabet sizes
    # per replica position: the bitmask of the positions wired to its
    # receiver, and the positions its output reads (its own, then the wired
    # ones in user order)
    _wired_masks: tuple[int, ...] = field(init=False, repr=False)
    _output_reads: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    # compile_query's memo: each plan by (product, targets, cond), and the
    # positions, users, columns and column tuples its plans share
    _plans: dict = field(init=False, repr=False, compare=False)
    _parts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts, wmap = self.counts, dict(self.wiring)
        # more replicas than wired receivers: name the first unwired one
        # before listing them, so that huge counts are refused at once
        if all(n >= 1 for n in counts) and sum(counts) > len(self.wiring):
            copies = ((u, c) for u, n in enumerate(counts, start=1) for c in range(1, n + 1))
            missing = next(r for r in copies if r not in wmap)
            raise RecipeError(f"no interference wiring for replica {missing}")
        replicas = replicas_from_counts(counts)
        if not self.channel.valid:
            raise RecipeError("channel fails interference recoverability; refusing to build network")
        if len(counts) != self.channel.user_count:
            raise RecipeError(
                f"replicas cover {len(counts)} users {list(range(1, len(counts) + 1))}, "
                f"channel has {self.channel.user_count}"
            )
        if len(wmap) != len(self.wiring):
            raise RecipeError("a receiver is wired twice")
        stray = sorted(set(wmap) - set(replicas))
        if stray:
            raise RecipeError(f"wiring for receivers {stray}, which are not replicas")
        # the counts fit the wiring and no receiver is wired twice or stray,
        # so every replica, and nothing else, is a wired receiver
        for r in replicas:
            others = tuple(j + 1 for j in self.channel.interferers(r[0] - 1))
            wired = wmap[r]
            if tuple(w[0] for w in wired) != others:
                raise RecipeError(
                    f"replica {r} must be wired to users {others} in order, got {wired}"
                )
            for w in wired:
                if w not in wmap:
                    raise RecipeError(f"replica {r} wired to unknown replica {w}")
        object.__setattr__(self, "replicas", replicas)
        index = {r: i for i, r in enumerate(replicas)}
        object.__setattr__(self, "_bit", {r: 1 << i for r, i in index.items()})
        sizes = tuple(self.channel.input_sizes[u - 1] for u, _ in replicas)
        object.__setattr__(self, "_sizes", sizes)
        wired = [[index[w] for w in wmap[r]] for r in replicas]
        object.__setattr__(self, "_wired_masks", tuple(sum(1 << w for w in ws) for ws in wired))
        object.__setattr__(self, "_output_reads", tuple((i, *ws) for i, ws in enumerate(wired)))
        object.__setattr__(self, "_plans", {})
        object.__setattr__(self, "_parts", {})

    # -- structure ----------------------------------------------------------

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

    def source_sizes(self) -> tuple[int, ...]:
        return self._sizes

    def all_variables(self) -> tuple[VariableId, ...]:
        xs = [VariableId("X", u, c) for u, c in self.replicas]
        vs = [VariableId("V", u, c) for u, c in self.replicas]
        ys = [VariableId("Y", u, c) for u, c in self.replicas]
        return tuple(xs + vs + ys)

    def mask(self, replicas: Iterable[Replica]) -> int:
        """Replicas of this network as a bitmask, bit i for ``replicas[i]``:
        the network query's replica-set format, and its one conversion."""
        try:
            return sum(set(map(self._bit.__getitem__, replicas)))
        except KeyError as missing:
            raise DicboundError(f"replica {missing} is not in this network") from None

    def replica_sets(self, variables: Iterable[VariableId]) -> tuple[int, int, int]:
        """The replicas of the variables' X's, V's and Y's, as three bitmasks
        (see ``mask``), each variable checked to belong to this network."""
        variables = list(variables)
        for var in variables:
            if (var.user, var.copy) not in self._bit:
                raise DicboundError(f"variable {var} is not in this network")
        return tuple(self.mask((v.user, v.copy) for v in variables if v.kind == kind) for kind in "XVY")


def base_network(channel: DeterministicChannel) -> NetworkGraph:
    """The channel as its own one-hop network (nodes S1..  D1..), built and
    checked once per channel object and kept on it as
    ``DeterministicChannel.network``, like its validity."""
    return channel.network


def one_hop_network(channel: DeterministicChannel) -> NetworkGraph:
    """Build the channel's one-hop network: each user once, its receiver
    wired to the one copy of every other user."""
    wiring = tuple(
        ((u, 1), tuple((j + 1, 1) for j in channel.interferers(u - 1)))
        for u in range(1, channel.user_count + 1)
    )
    return NetworkGraph(channel, (1,) * channel.user_count, wiring, base_labels=True)


def replicate_distribution(network: NetworkGraph, base_dist: SourceDistribution) -> SourceDistribution:
    """Product distribution giving every replica its user's base marginal,
    from the base law's tables as it checked them: each user's table is
    refused here if its length is not the user's alphabet size, and no table
    is converted or checked again."""
    if base_dist.mode != "product":
        raise DistributionError("replica inputs require a product-mode base distribution")
    if len(base_dist.sizes) != network.channel.user_count:
        raise DistributionError("base distribution must have one factor per channel user")
    # every user has a replica, and replicas are user-major, so the first
    # user refused here is the first replica's a fresh check would refuse
    for table, size in zip(base_dist.tables, network.channel.input_sizes):
        if len(table) != size:
            raise DistributionError(f"table length {len(table)} does not match alphabet size {size}")
    return base_dist.replicated([u for u, _ in network.replicas])


# -- the entropy engine ------------------------------------------------------


def check_law(network: NetworkGraph, dist: SourceDistribution) -> None:
    """Refuse a law whose alphabet sizes do not fit the network's sources."""
    if dist.sizes != network.source_sizes():
        names = ", ".join(str(VariableId("X", u, c)) for u, c in network.replicas)
        raise DistributionError(
            f"law over alphabet sizes {list(dist.sizes)} does not fit the sources "
            f"{names} with sizes {list(network.source_sizes())}"
        )


def source_atoms(dist: SourceDistribution, positions: Sequence[int]):
    """The source enumerator: (xs, p) over the sources at the given replica
    positions, xs an int64 array with one row of their inputs per atom, p
    the atom masses.

    Enforces ``MAX_ATOMS`` before any array is allocated; the engine's
    entries check the law first.  Product-law atoms are in row-major order.
    """
    if dist.mode == "product":
        supports = [[s for s, q in enumerate(dist.tables[i]) if q > 0.0] for i in positions]
        count = math.prod(len(s) for s in supports)
    else:
        marginal = dist.marginal_joint(positions)
        count = len(marginal)
    if count > MAX_ATOMS:
        raise BudgetExceededError(f"{count} source atoms over {len(positions)} sources exceed the cap of {MAX_ATOMS}")
    if dist.mode == "joint":
        xs = np.array(list(marginal), dtype=np.int64).reshape(count, len(positions))
        return xs, np.fromiter(marginal.values(), dtype=float, count=count)
    xs, p = np.empty([len(s) for s in supports] + [len(positions)], dtype=np.int64), np.ones(1)
    for axis, (i, support) in enumerate(zip(positions, supports)):
        xs[..., axis] = np.reshape(support, [-1] + [1] * (len(positions) - 1 - axis))
        p = (p[:, None] * np.array(dist.tables[i])[support]).ravel()
    return xs.reshape(count, len(positions)), p


def evaluate_columns(channel: DeterministicChannel, users: Sequence[int], xs, columns, known: dict):
    """The symbol evaluator: the (atoms x columns) int64 value array of the
    relabelled ``columns`` at the inputs ``xs`` (atoms x sources), source j
    being a replica of user ``users[j]``.  A relabelled column is (kind, the
    positions of the sources it reads), so its values depend only on those
    users and the channel.  ``known`` maps V and Y columns already evaluated
    at these ``xs`` to their values; each one evaluated here, and each
    interference column an output reads, is added to it."""
    g, f = channel.arrays

    def v(w):  # the interference column of source w
        if ("V", (w,)) not in known:
            known["V", (w,)] = g[users[w] - 1][xs[:, w]]
        return known["V", (w,)]

    out = np.empty((len(xs), len(columns)), dtype=np.int64)
    for j, (kind, reads) in enumerate(columns):
        if kind == "X":
            out[:, j] = xs[:, reads[0]]
        elif kind == "V":
            out[:, j] = v(reads[0])
        else:
            if (kind, reads) not in known:
                idx = xs[:, reads[0]]
                for w in reads[1:]:
                    idx = idx * channel.v_sizes[users[w] - 1] + v(w)
                known[kind, reads] = f[users[reads[0]] - 1][idx]
            out[:, j] = known[kind, reads]
    return out


@dataclass
class ShapeMemo:
    """The caller-owned memo of ``memo_entropy``, for networks of one
    channel: ``values`` holds the entropy of each query shape met, ``atoms``
    the enumeration ``(xs, p)`` of each source-table tuple (a shape's first
    part) with the relabelled V and Y columns evaluated at it, and ``cells``
    the int64 cells of those ``xs`` and columns, which ``query_entropy``
    keeps within ``MAX_ATOMS``."""

    values: dict = field(default_factory=dict)
    atoms: dict = field(default_factory=dict)
    cells: int = 0


def query_entropy(network: NetworkGraph, dist: SourceDistribution, positions, shape, memo: ShapeMemo) -> float:
    """The network query's engine entry: H(live | keys) = H(keys, live) -
    H(keys), from one enumeration of ``positions``, the ascending source
    positions the columns read, and one ``row_entropy`` pass over the
    columns, keys first.  Reached only through ``memo_entropy``, which checks
    the law and passes the query's ``shape`` and its ``positions``; the shape
    gives the key count and the relabelled key and live columns.

    A query reads its table tuple's enumeration, and the columns of its shape
    already evaluated there, from ``memo.atoms``, and adds what it enumerates
    and evaluates while the memo's cells stay within ``MAX_ATOMS``; past
    that it keeps nothing.  Equal table tuples enumerate equal ``(xs, p)``,
    so the values are those of a fresh enumeration, bit for bit.
    """
    tables, keys, columns = shape
    kept = memo.atoms.get(tables)
    xs, p, known = kept or (*source_atoms(dist, positions), {})
    grown = dict(known)
    values = evaluate_columns(network.channel, [u for u, _ in tables], xs, columns, grown)
    cells = memo.cells + (len(grown) - len(known)) * len(xs) + (0 if kept else xs.size)
    if cells <= MAX_ATOMS:
        memo.atoms[tables], memo.cells = (xs, p, grown), cells
    return row_entropy(values, p, keys)


# -- the network query ---------------------------------------------------------


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending: a replica set as
    a bitmask over replica positions, in sorted replica order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _closure(network: NetworkGraph, xs: int, vs: int, ys: int):
    """The replicas of the known X's, V's and Y's, given those conditioned,
    as bitmasks over replica positions.

    Closure rules: V = g(X); Y determined once its input and all wired
    interference symbols are; and (X, Y) of a receiver determine the wired
    interference symbols (the recoverability invariant).  No rule derives an
    X, so the known V's are the conditioned ones, those of the known X's and
    those recovered at receivers with X and Y known; the known Y's add each
    receiver whose input and wired V's are known, and that is the fixed point.
    """
    wired = network._wired_masks
    known_v = vs | xs
    for i in _bits(xs & ys):
        known_v |= wired[i]
    known_y = ys
    for i in _bits(xs):
        if not wired[i] & ~known_v:
            known_y |= 1 << i
    return xs, known_v, known_y


def reduce_query(network: NetworkGraph, product: bool, targets, cond):
    """The reduction step of the network query, on (X, V, Y) triples of
    replica bitmasks, for a product law or not: H(targets | cond) = H(live |
    keys), or None when the conditioning determines every target and the
    value is 0.  The keys and the live columns are returned as (kind, replica
    bitmask) groups, in column order: groups in order, and within a group
    replicas in sorted order, which is the order of their positions.

    Under a product law whose conditioned outputs each come with their own
    input, the closure of the conditioning drops the targets it determines,
    and the keys become the conditioned X's and recovered V's that share a
    source with what is left.  Otherwise the keys are the conditioning.
    """
    (t_x, t_v, t_y), (c_x, c_v, c_y) = targets, cond
    if product and not c_y & ~c_x:
        k_x, k_v, k_y = _closure(network, c_x, c_v, c_y)
        t_x, t_v, t_y = t_x & ~k_x, t_v & ~k_v, t_y & ~k_y
        if not (t_x or t_v or t_y):
            return None
        gen_v = k_v & ~c_x
        deps = t_x | t_v | t_y | gen_v
        for i in _bits(t_y):
            deps |= network._wired_masks[i]
        keys = (("X", deps & c_x), ("V", gen_v))
    else:
        t_x, t_v, t_y = t_x & ~c_x, t_v & ~c_v, t_y & ~c_y
        keys = (("V", c_v), ("X", c_x), ("Y", c_y))
    return keys, (("V", t_v), ("X", t_x), ("Y", t_y))


class QueryPlan(NamedTuple):
    """The law-free half of a network query: the ascending source positions
    its columns read, the user of each, the number of key columns, and each
    column, keys first, as (kind, the sources it reads relabelled by their
    rank among ``positions``: its own, then, for an output, the wired ones in
    user order).  It depends only on the network's counts and wiring, not on
    its channel."""

    positions: tuple[int, ...]
    users: tuple[int, ...]
    keys: int
    columns: tuple[tuple[str, tuple[int, ...]], ...]


def query_plan(network: NetworkGraph, keys, live) -> QueryPlan:
    """The plan of a reduced query, given as ``reduce_query`` returns it: the
    sources it reads are the set bits of the bitmask of what its columns
    read, and a source's label is its rank among them, the order the
    enumeration uses."""
    replicas, output_reads, wired = network.replicas, network._output_reads, network._wired_masks
    at, read = [], 0  # (kind, positions read) per column, in column order
    for kind, mask in keys + live:
        while mask:  # the set bits, ascending, as in _bits: this loop is hot
            low = mask & -mask
            mask ^= low
            i = low.bit_length() - 1
            at.append((kind, output_reads[i] if kind == "Y" else (i,)))
            read |= low | wired[i] if kind == "Y" else low
    positions, label = _bits(read), [0] * len(replicas)
    for rank, i in enumerate(positions):  # a source's label is its rank in read
        label[i] = rank
    columns = tuple([(kind, tuple(map(label.__getitem__, reads))) for kind, reads in at])
    users = tuple([replicas[i][0] for i in positions])
    return QueryPlan(tuple(positions), users, sum(mask.bit_count() for _, mask in keys), columns)


def compile_query(network: NetworkGraph, product: bool, targets, cond) -> QueryPlan | None:
    """The law-free half of the network query H(targets | cond), on (X, V, Y)
    triples of replica bitmasks (see ``NetworkGraph.mask``), for a product
    law or not: ``reduce_query``, then ``query_plan``, or None when the
    conditioning determines every target.

    Compiled once per network: the plan is kept in the network's memo, so a
    query asked again, under this law or any other, reduces nothing.  Kept
    plans hold their equal positions, users, columns and column tuples once
    per network, under half as much as apart."""
    key = product, targets, cond
    try:
        return network._plans[key]
    except KeyError:
        pass
    reduced = reduce_query(network, product, targets, cond)
    plan = None
    if reduced is not None:
        parts = network._parts

        def share(part):
            return parts.setdefault(part, part)

        positions, users, keys, columns = query_plan(network, *reduced)
        plan = QueryPlan(share(positions), share(users), keys, share(tuple(map(share, columns))))
    network._plans[key] = plan
    return plan


def query_shape(dist: SourceDistribution, plan: QueryPlan):
    """The law step of a query: the shape that names it in a ``ShapeMemo``.

    The shape lists each source the plan reads as (user, its law's table)
    under a product law, or as (user, (the law, the source's position in
    it)) under a joint law, which hashes by identity; then the number of
    keys; then the plan's relabelled columns.  Equal shapes differ only by
    renaming replicas of the same user under the same tables, or, under one
    joint law, at the same positions, and the engine runs the same arrays
    through the same arithmetic for both, so their entropies are equal bit
    for bit.
    """
    named = dist.tables or [(dist, i) for i in range(len(dist.sizes))]
    return tuple(zip(plan.users, map(named.__getitem__, plan.positions))), plan.keys, plan.columns


def memo_entropy(network: NetworkGraph, dist: SourceDistribution, plan: QueryPlan | None, memo: ShapeMemo) -> float:
    """The one network query, and its one law step: the value of a query
    compiled by ``compile_query`` for this network's counts and wiring and
    for the law's mode.

    It checks the law, since a shape reads its tables; returns 0.0 for a
    query the conditioning determines (no plan); looks the query shape up in
    ``memo.values``; and runs ``query_entropy`` only for a shape not yet
    there, storing its value.  The engine reuses, from the same memo, the
    enumeration of each source-table tuple and the columns already evaluated
    at it, within the ``MAX_ATOMS`` rule of ``ShapeMemo``.  A memo may span
    networks of one channel, since a shape names users, not channels, and a
    joint-law source by its position."""
    check_law(network, dist)
    if plan is None:
        return 0.0
    shape = query_shape(dist, plan)
    value = memo.values.get(shape)
    if value is None:
        value = memo.values[shape] = query_entropy(network, dist, plan.positions, shape, memo)
    return value


def cond_entropy_network(
    network: NetworkGraph, dist: SourceDistribution, targets: Iterable[VariableId], cond: Iterable[VariableId] = ()
) -> float:
    """H(targets | cond) on the network without materializing the full joint:
    the public ``VariableId`` front end: the query compiled on the variables'
    replica bitmasks, then ``memo_entropy`` with a memo of its own."""
    plan = compile_query(network, dist.mode == "product", network.replica_sets(targets), network.replica_sets(cond))
    return memo_entropy(network, dist, plan, ShapeMemo())


def network_entropy(network: NetworkGraph, dist: SourceDistribution, subset) -> float:
    """H(subset): ``cond_entropy_network`` with nothing conditioned, so the
    same ``memo_entropy`` path.  Public API; the library itself asks neither."""
    return cond_entropy_network(network, dist, subset)
