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
``memo_entropy``, the network query, and ``entropy.induce_joint``, which
enumerates every position for a full joint table, with the columns
``query_plan`` gives on the full masks.  Under a product law, conditioning
on a source's input and its receiver's output pins down the interference
it saw, which shrinks a query's sources further.

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
any law reduces nothing.  ``NetworkGraph.kept`` is that memo's one entry
for other law-free values, such as the plan tuple of a recipe chain or of
a network's replica rates: a plan is compiled once per network object.
The law step, ``memo_entropy``, is the one network query and the one law
evaluator: it checks the law, turns the plan into a shape with
``query_shape``, which names a query up to renaming replicas of one user
under equal tables, so equal shapes have values equal bit for bit, and
evaluates only a shape not yet in the caller's ``ShapeMemo``.  A joint-law
source is named in the shape by the law and its position in it, so every
query has a shape.  Chain levels share a memo per chain, chain search or
identity k range (see ``gcs``), replica rates one over the base and
extended network, and ``cond_entropy_network`` (and ``network_entropy``),
the public ``VariableId`` front end on the masks ``replica_sets`` builds,
compiles its query and has a fresh shape memo per call.  A channel's own
one-hop network, ``base_network``, is built and checked once per channel
object, as is each extended network (``extend``), so the plans kept on
them live as long as the channel; no network holds a law.

The engine's law-free work is done once per channel object, under any law,
as a kernel: ``query_kernel`` keeps a ``Kernel`` per law-free shape of a
query, (users, key count, columns), in ``DeterministicChannel.kernels``.
``compile_kernel`` enumerates the sources' full alphabet product in
row-major order, evaluates the columns once, and keeps only the int bins of
the full rows and of the key prefixes (``entropy.merged_keys``), each
renumbered by first occurrence and interned in the channel's
``KernelStore``: kernels whose columns split one alphabet product into the
same classes share one array and one partition number.  Per law,
``kernel_entropy`` takes a table tuple's masses from ``kernel_masses``
once per memo, and runs one ``np.bincount`` and one ``mass_entropy`` per
partition not yet met under that tuple, keeping its entropy in the same
memo entry: under a joint law at the bins gathered at the enumerated
atoms' places, so every bin adds its masses in the marginal's order.  So
H(keys) of two levels that cut different outputs given the same inputs,
or H(keys, live) of one level that is H(keys) of another, is one log-sum
per memo.  Sizes alone pick the path: a query whose alphabet product
exceeds ``MAX_ATOMS`` (read at every use, so ``source_atoms`` stays the one
place that enforces it), or whose kernel is not kept and would exceed the
atoms a joint law lists or the channel's ``MAX_KERNEL_CELLS``, runs the
memo-free ``query_entropy``, which enumerates only the law's atoms.  Both
give the same values bit for bit (see ``kernel_entropy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .channels import DeterministicChannel
from .entropy import SourceDistribution, VariableId, mass_entropy, merged_keys, row_entropy
from .errors import BudgetExceededError, DicboundError, DistributionError, RecipeError

# source_atoms refuses more atoms in one enumeration, before any array is
# built.  H of the 10 (11) outputs of a 10 (11)-replica shift2:2,2,1 network
# enumerates 2^20 (2^22) atoms and takes 0.41-0.44 s and 268 MB peak RSS
# (2.2-2.3 s and 1,031 MB) on a 2-core Xeon; memory grows with atoms x columns.
MAX_ATOMS = 1 << 22

# query_kernel keeps the kernels of a channel object's queries within this
# many int64 cells (16 MB); a query whose kernel would pass it runs
# query_entropy.  A kernel of 2^20 atoms with keys fills it: on
# shift2:5,5,2 (4 sources, 4 columns, 2 keys) its compile takes 0.47 s and
# 130 MB of transient memory on a 2-core Xeon, and a law then takes 0.19 s
# against 0.37 s for query_entropy.
MAX_KERNEL_CELLS = 1 << 21

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
    # the law-free memo: compile_query's plans by (product, targets, cond) and
    # kept values; and the positions, users, columns and column tuples shared
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

    def kept(self, key: tuple, build: Callable[[], object]):
        """The law-free value under ``key`` in the memo ``compile_query`` fills,
        from ``build()`` on first use; ``key`` is led by a str, a query key by a bool."""
        if key not in self._plans:
            self._plans[key] = build()
        return self._plans[key]

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


def evaluate_columns(channel: DeterministicChannel, users: Sequence[int], xs, columns):
    """The symbol evaluator: the (atoms x columns) int64 value array of the
    relabelled ``columns`` at the inputs ``xs`` (atoms x sources), source j
    being a replica of user ``users[j]``.  A relabelled column is (kind, the
    positions of the sources it reads), so its values depend only on those
    users and the channel.  Each interference column is computed once per
    call, for the V columns and the outputs that read it."""
    g, f = channel.arrays
    known = {}

    def v(w):  # the interference column of source w
        if w not in known:
            known[w] = g[users[w] - 1][xs[:, w]]
        return known[w]

    out = np.empty((len(xs), len(columns)), dtype=np.int64)
    for j, (kind, reads) in enumerate(columns):
        if kind == "X":
            out[:, j] = xs[:, reads[0]]
        elif kind == "V":
            out[:, j] = v(reads[0])
        else:
            idx = xs[:, reads[0]]
            for w in reads[1:]:
                idx = idx * channel.v_sizes[users[w] - 1] + v(w)
            out[:, j] = f[users[reads[0]] - 1][idx]
    return out


@dataclass
class ShapeMemo:
    """The caller-owned memo of ``memo_entropy``, for networks of one
    channel: ``values`` holds the entropy of each query shape met;
    ``masses``, for the kernels, by source-table tuple (a shape's first
    part), what ``kernel_masses`` gives for it, as (places, p), and a dict
    of the entropy of each of the channel's bin partitions (``KernelStore``)
    met under it; and ``cells`` the cells of the mass arrays, kept within
    ``MAX_ATOMS``."""

    values: dict = field(default_factory=dict)
    masses: dict = field(default_factory=dict)
    cells: int = 0


def query_entropy(network: NetworkGraph, dist: SourceDistribution, plan: QueryPlan) -> float:
    """The network query's engine entry for a query without a kernel:
    H(live | keys) = H(keys, live) - H(keys), from one enumeration of the
    plan's positions, the ascending source positions its columns read, and
    one ``row_entropy`` pass over its columns, keys first.  Reached only
    through ``memo_entropy``, which checks the law; it keeps nothing."""
    xs, p = source_atoms(dist, plan.positions)
    return row_entropy(evaluate_columns(network.channel, plan.users, xs, plan.columns), p, plan.keys)


class Kernel(NamedTuple):
    """The law-free engine work of a query on one channel: per atom of the
    alphabet product of the sources it reads, in row-major order, the bin
    of its row of columns and the bin of its key prefix (None for a query
    without keys), each numbered from 0 in order of first occurrence; and
    the numbers of those two bin partitions in the channel's
    ``KernelStore`` (rows first), whose arrays these are.  It holds int
    arrays and ints only."""

    rows: np.ndarray
    keys: np.ndarray | None
    parts: tuple[int, ...]


def first_seen(bins: np.ndarray) -> np.ndarray:
    """The bins renumbered 0, 1, ... in order of first occurrence, so two bin
    arrays that split the atoms into the same classes become equal."""
    _, first, inverse = np.unique(bins, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


@dataclass
class KernelStore:
    """The kernels compiled on one channel object, kept on it as
    ``DeterministicChannel.kernels``: by the law-free shape (users, key
    count, columns) of their queries, and the cells their arrays hold, kept
    within ``MAX_KERNEL_CELLS`` as if no array were shared.

    ``parts`` lists the distinct bin partitions of its kernels, one array
    each, numbered by position, and ``numbers`` finds an array's numbers
    from the hash of its bytes; so kernels whose columns split an alphabet
    product into the same classes share one array and one number."""

    kernels: dict = field(default_factory=dict)
    parts: list = field(default_factory=list)
    numbers: dict = field(default_factory=dict)
    cells: int = 0

    def intern(self, bins: np.ndarray) -> int:
        """The number of the partition of ``bins``, renumbered by
        ``first_seen``, kept in ``parts`` on first sight."""
        bins = first_seen(bins)
        same = self.numbers.setdefault(hash(bins.tobytes()), [])
        for number in same:
            if np.array_equal(self.parts[number], bins):
                return number
        same.append(len(self.parts))
        self.parts.append(bins)
        return same[-1]


def compile_kernel(channel: DeterministicChannel, users, keys: int, columns) -> Kernel:
    """The kernel of the relabelled ``columns``, the first ``keys`` of them
    keys, on sources of the given ``users``: their full alphabet product in
    row-major order, its columns evaluated once, the rows and the key
    prefixes merged into bins by ``merged_keys``, and each bin array
    interned in the channel's ``KernelStore``.  No inputs or symbols are
    kept."""
    xs = np.indices([channel.input_sizes[u - 1] for u in users]).reshape(len(users), -1).T
    cuts = merged_keys(evaluate_columns(channel, users, xs, columns), keys, 0)
    store = channel.kernels
    parts = tuple(map(store.intern, cuts[::-1]))  # rows, then keys
    return Kernel(store.parts[parts[0]], store.parts[parts[-1]] if keys else None, parts)


def query_kernel(channel: DeterministicChannel, plan: QueryPlan, dist: SourceDistribution) -> Kernel | None:
    """The channel's kernel of a query, kept on the channel and run under any
    law, or None when the query runs ``query_entropy``: its alphabet product
    exceeds ``MAX_ATOMS``, read at every use, so a kernel kept under a
    larger cap never answers; or no kernel is kept and a new one would
    exceed the atoms a joint law lists, so a sparse law enumerates its few
    atoms instead of compiling more rows than it has, or take the channel's
    kept cells past ``MAX_KERNEL_CELLS``.  So sizes alone pick the path, and
    ``source_atoms`` stays the one place that enforces the atom cap."""
    store = channel.kernels
    key = plan.users, plan.keys, plan.columns
    kernel = store.kernels.get(key)
    if kernel is None:
        atoms = math.prod([channel.input_sizes[u - 1] for u in plan.users])
        cells = atoms * (2 if plan.keys else 1)
        listed = atoms if dist.joint is None else len(dist.joint)
        if atoms > min(MAX_ATOMS, listed) or store.cells + cells > MAX_KERNEL_CELLS:
            return None
        kernel = store.kernels[key] = compile_kernel(channel, plan.users, plan.keys, plan.columns)
        store.cells += cells
    return kernel if len(kernel.rows) <= MAX_ATOMS else None


def product_masses(tables) -> np.ndarray:
    """The masses of the full alphabet product of a product law's tables, in
    row-major order: the Kronecker product of the tables, each atom's mass
    the product of its entries in source order."""
    p = np.ones(1)
    for table in tables:
        p = (p[:, None] * np.array(table)).ravel()
    return p


def kernel_masses(dist: SourceDistribution, positions) -> tuple:
    """The masses a kernel reads, as (places, p), for the sources at the
    given positions: under a product law no places and the
    ``product_masses`` of their tables; under a joint law the atoms
    ``source_atoms`` enumerates, with their places in the row-major
    alphabet product."""
    if dist.mode == "product":
        return None, product_masses([dist.tables[i] for i in positions])
    xs, p = source_atoms(dist, positions)
    return np.ravel_multi_index(tuple(xs.T), [dist.sizes[i] for i in positions]), p


def kernel_entropy(kernel: Kernel, dist: SourceDistribution, plan: QueryPlan, tables, memo: ShapeMemo) -> float:
    """The per-law work of a query with a kernel: H(keys, live) - H(keys)
    from the ``kernel_masses`` of its source-table tuple ``tables``, kept in
    ``memo.masses`` within the ``MAX_ATOMS`` rule of ``ShapeMemo``, with the
    entropy of each bin partition met under that tuple: a partition not yet
    there costs one ``bincount`` and one ``mass_entropy``.

    The values are ``query_entropy``'s, bit for bit: both add each bin's
    masses in the order ``source_atoms`` enumerates them.  Under a product
    law its support atoms keep their relative order in the full product,
    with the same products of the same entries, and an atom outside it adds
    +0.0; under a joint law the bins are gathered at the enumerated atoms'
    places.  Atoms share a bin exactly when their rows are equal, and
    ``mass_entropy`` is exactly rounded, so bin numbers do not matter.  And
    a (table tuple, partition number) pair names the same masses and the
    same interned bin array, so a kept entropy is the one a fresh
    ``bincount`` would give."""
    kept = memo.masses.get(tables)
    if kept is None:
        kept = *kernel_masses(dist, plan.positions), {}
        cells = len(kept[1]) * (1 if kept[0] is None else 2)
        if memo.cells + cells <= MAX_ATOMS:
            memo.masses[tables], memo.cells = kept, memo.cells + cells
    places, p, entropies = kept

    def entropy_of(part, bins):
        h = entropies.get(part)
        if h is None:
            h = entropies[part] = mass_entropy(np.bincount(bins if places is None else bins[places], weights=p))
        return h

    h = entropy_of(kernel.parts[0], kernel.rows)
    return h if kernel.keys is None else h - entropy_of(kernel.parts[-1], kernel.keys)


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
    conditioning determines every target, or leaves none live: the value is
    then 0.0 exactly, as the engine would give it.

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
    if reduced is not None and any(mask for _, mask in reduced[1]):
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
    ``memo.values``; and only for a shape not yet there runs the query's
    kernel (``query_kernel``, ``kernel_entropy``), under any law, or,
    without one, ``query_entropy``, storing its value.  A memo may span
    networks of one channel, since a shape names users, not channels, and a
    joint-law source by its position."""
    check_law(network, dist)
    if plan is None:
        return 0.0
    shape = query_shape(dist, plan)
    value = memo.values.get(shape)
    if value is None:
        kernel = query_kernel(network.channel, plan, dist)
        if kernel is None:
            value = query_entropy(network, dist, plan)
        else:
            value = kernel_entropy(kernel, dist, plan, shape[0], memo)
        memo.values[shape] = value
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
