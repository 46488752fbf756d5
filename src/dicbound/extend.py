"""Replicated (extended) networks and the cut chains that recover each bound.

A replication recipe copies each user some number of times and wires every
receiver to exactly one replica of each other user.  Running the base inputs
i.i.d. on all replicas makes every per-replica rate equal the base rate
(``verify_replica_rates`` checks it), so a chain bound on the extended
network is a weighted-rate bound on the channel.

Recipes are data (``data/recipes.json``): replica counts, wiring and peel
order, each copy index a constant or a·v±b in the block variable j or the
size k.  The closed form of a chain is *derived*, not transcribed: walking
the peel order while tracking which interference symbols the conditioning
pins down reduces every term to a base-channel conditional entropy
H(Y_u | V_A).
``chain_closed_form`` is the one closed-form total: it sums a recipe's terms
from one ``base_terms`` evaluation, for ``verify_chain_identity`` and
``limit_bound`` alike.

A built-in recipe is instantiated once per (id, k) and process, and is
evaluated on a few channels under many laws, so what does not depend on the
law is built once.  ``build_extended`` builds and checks a recipe's network
once per channel object and keeps it on the channel
(``DeterministicChannel.extended_networks``), and
``networks.compile_query`` keeps every query compiled on it.  Each ``BoundRecipe`` keeps the compiled
queries of its chain's levels in order, and each ``ReplicationRecipe`` those
of its replica rates (``networks.QueryPlan``), taken from the network's
memo on first use and dropped with the recipe cache; a plan depends on the
counts, the wiring and the product-law mode alone, so it holds on every
channel.  Every law still goes through ``networks.memo_entropy``, and no
kept network, plan or recipe holds a law.  Chain plans belong to the
``BoundRecipe``, never to its network: 4a, 4b and 4e at k = 1, 4c and 4d
share one network and not one chain, as do 4a at k = 2 and 4f, and 4b at
k = 2 and 4g.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import resources
from itertools import accumulate
from typing import Mapping, Sequence

from .channels import DeterministicChannel, is_int
from .entropy import SourceDistribution, base_terms
from .errors import DicboundError, RecipeError, UnsupportedBoundError
from .gcs import CutChain, _chain_value, chain_from_cuts, chain_plans
from .networks import (
    NetworkGraph,
    Replica,
    ShapeMemo,
    base_network,
    compile_query,
    memo_entropy,
    node_labels,
    replicas_from_counts,
    replicate_distribution,
)

IDENTITY_TOL = 1e-9

_INDEX_RE = re.compile(r"(\d+)|(\d*)([jk])([+-]\d+)?")


def _eval_expr(expr: str, k: int | None, j: int | None = None) -> int:
    """Evaluate a recipe index: a constant like '3', or a·v±b like '2j+1' or
    'k-1', with v the loop variable j or the size k."""
    m = _INDEX_RE.fullmatch(expr)
    if not m:
        raise RecipeError(f"cannot parse index expression {expr!r}")
    const, a, var, b = m.groups()
    if const:
        return int(const)
    value = j if var == "j" else k
    if value is None:
        raise RecipeError(f"expression {expr!r} needs {'a loop variable' if var == 'j' else 'k'}")
    return int(a or 1) * value + int(b or 0)


@dataclass(frozen=True)
class ReplicationRecipe:
    """Replica counts plus, per receiver, the interfering copy of each other user."""

    counts: tuple[int, ...]
    wiring: tuple[tuple[Replica, tuple[Replica, ...]], ...]
    _rate_plans: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def rate_plans(self, base: NetworkGraph, network: NetworkGraph) -> tuple:
        """The compiled queries H(Y) and H(Y | X) of each replica of the base
        network, then each replica of ``network``, an instance of this
        recipe, with that replica, under a product law.  They depend on the
        counts and the wiring alone (the base network's on the user count),
        so they are taken from the networks' memos on first use and kept
        with the recipe."""
        if self._rate_plans is None:
            asks = [(net, r, net.mask([r])) for net in (base, network) for r in net.replicas]
            plans = [
                compile_query(net, True, (0, 0, bit), cond) for net, _, bit in asks for cond in ((0, 0, 0), (bit, 0, 0))
            ]
            rates = tuple(zip([r for _, r, _ in asks], plans[::2], plans[1::2]))
            split = len(base.replicas)
            object.__setattr__(self, "_rate_plans", (rates[:split], rates[split:]))
        return self._rate_plans


def build_extended(channel: DeterministicChannel, recipe: ReplicationRecipe) -> NetworkGraph:
    """The recipe's network on a channel, every replica reusing the base
    tables: built, and its counts and wiring checked by ``NetworkGraph``, on
    the first call for this channel object and these counts and wiring, then
    kept on the channel (``DeterministicChannel.extended_networks``) with
    the queries compiled on it.  A network that fails its check is not
    kept."""
    key = recipe.counts, recipe.wiring
    network = channel.extended_networks.get(key)
    if network is None:
        network = channel.extended_networks[key] = NetworkGraph(channel, recipe.counts, recipe.wiring)
    return network


def recipe_from_dict(data: dict) -> ReplicationRecipe:
    """Recipe file form: {"counts": [..], "wiring": {"1^1": {"2": 1, ...}, ...}}.
    Counts and wired copies are integers; the users and copies in the keys
    are read from the key text."""
    try:
        counts = tuple(data["counts"])
        wiring = []
        for key, wires in data["wiring"].items():
            user_s, _, copy_s = key.partition("^")
            rx = (int(user_s), int(copy_s) if copy_s else 1)
            wired = tuple(sorted((int(u), c) for u, c in wires.items()))
            wiring.append((rx, wired))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RecipeError(f"malformed recipe document: {exc!r}") from exc
    bad = [v for v in counts + tuple(c for _, wired in wiring for _, c in wired) if not is_int(v)]
    if bad:
        raise RecipeError(f"replica counts and wired copies must be integers, got {bad[0]!r}")
    return ReplicationRecipe(counts=counts, wiring=tuple(sorted(wiring)))


def recipe_to_dict(recipe: ReplicationRecipe) -> dict:
    """The recipe file form that ``recipe_from_dict`` reads."""
    return {
        "counts": list(recipe.counts),
        "wiring": {
            f"{u}^{c}": {str(w[0]): w[1] for w in wired} for (u, c), wired in recipe.wiring
        },
    }


# -- closed-form derivation ----------------------------------------------------


@dataclass(frozen=True)
class ClosedTerm:
    """One chain term reduced to the base channel: H(Y_user | V_A).

    ``evidence`` records, per conditioned user in A, how the conditioning pins
    that interference symbol down: ("peeled", replica) when the replica's own
    input is conditioned, ("recovered", receiver) when it is recovered from a
    conditioned (input, output) pair.  A is read from it.
    """

    level: int
    target: Replica
    evidence: tuple[tuple[int, tuple[str, Replica]], ...]

    @cached_property
    def given(self) -> frozenset[int]:
        return frozenset(user for user, _ in self.evidence)

    @cached_property
    def key(self) -> tuple[int, frozenset[int]]:
        return self.target[0], self.given

    def describe(self) -> str:
        given = ",".join(f"V{u}" for u in sorted(self.given))
        head = f"H(Y{self.target[0]}^{self.target[1]}"
        return head + (f" | {given})" if given else ")")


def derive_closed_terms(
    counts: Sequence[int],
    wiring: Mapping[Replica, tuple[Replica, ...]],
    peel: Sequence[Sequence[Replica]],
) -> tuple[ClosedTerm, ...]:
    """Walk the peel order and reduce every chain term to H(Y_u | V_A).

    Raises if two targets peeled at the same level share an undetermined
    source, in which case the joint term would not split into base terms.
    """
    known: dict[Replica, tuple[str, Replica]] = {}
    peeled: set[Replica] = set()
    terms = []
    for level_idx, level in enumerate(peel, start=1):
        used_sources: set[Replica] = set()
        for target in level:
            if target in peeled:
                raise RecipeError(f"replica {target} peeled twice")
            evidence = []
            undetermined = {target}
            if target in known:
                evidence.append((target[0], known[target]))
            for w in wiring[target]:
                if w in known:
                    evidence.append((w[0], known[w]))
                else:
                    undetermined.add(w)
            if undetermined & used_sources:
                raise RecipeError(
                    f"level {level_idx}: targets share undetermined source "
                    f"{sorted(undetermined & used_sources)}; closed form would not split"
                )
            used_sources |= undetermined
            terms.append(ClosedTerm(level=level_idx, target=target, evidence=tuple(sorted(evidence))))
        for target in level:
            peeled.add(target)
            known.setdefault(target, ("peeled", target))
            for w in wiring[target]:
                known.setdefault(w, ("recovered", target))
    all_replicas = set(replicas_from_counts(counts))
    if peeled != all_replicas:
        raise RecipeError(f"peel order misses replicas {sorted(all_replicas - peeled)}")
    return tuple(terms)


# -- built-in recipes ----------------------------------------------------------


@dataclass(frozen=True)
class BoundRecipe:
    """A bound id instantiated at size k: network recipe (its replica counts
    are the rate weights), cut chain, and the derived closed form."""

    recipe: ReplicationRecipe
    chain: CutChain
    closed_terms: tuple[ClosedTerm, ...]
    _level_plans: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def level_plans(self, network: NetworkGraph) -> tuple:
        """The compiled queries of the chain's levels on ``network``, an
        instance of ``recipe``, under a product law (``gcs.chain_plans``).
        They depend on the counts and the wiring alone, so they are compiled
        on first use and kept with this recipe: the chain is this recipe's
        own, so equal network recipes of other ids never share them."""
        if self._level_plans is None:
            object.__setattr__(self, "_level_plans", chain_plans(network, self.chain, product=True))
        return self._level_plans

    def term_counts(self) -> Counter[tuple[int, frozenset[int]]]:
        """How often each closed-term key occurs, counted once per recipe:
        the Counter returned is kept, and is read, never changed."""
        return self._term_counts

    @cached_property
    def _term_counts(self) -> Counter[tuple[int, frozenset[int]]]:
        return Counter(t.key for t in self.closed_terms)


@cache
def _load_recipe_specs() -> dict:
    """The bundled recipes by id, parsed once per process (shared: read only)."""
    raw = json.loads(resources.files("dicbound.data").joinpath("recipes.json").read_text())
    return {entry["id"]: entry for entry in raw["recipes"]}


def supported_bounds(users: int | None = None) -> tuple[str, ...]:
    specs = _load_recipe_specs()
    ids = [i for i, s in specs.items() if users is None or s["users"] == users]
    return tuple(ids)


def bound_support_info(bound_id: str) -> dict:
    """Raw recipe entry, including reconstruction flags and notes."""
    specs = _load_recipe_specs()
    if bound_id not in specs:
        raise UnsupportedBoundError(f"no built-in recipe for bound {bound_id!r}")
    return specs[bound_id]


def _iter_rule(rule: dict, k: int | None):
    loop = rule.get("loop")
    if loop is None:
        yield None
        return
    var, lo, hi, step = loop
    lo_v = _eval_expr(lo, k)
    hi_v = _eval_expr(hi, k)
    if step not in (1, -1):
        raise RecipeError("loop step must be 1 or -1")
    if (step == 1 and lo_v > hi_v) or (step == -1 and lo_v < hi_v):
        return
    yield from range(lo_v, hi_v + step, step)


def _instantiate(spec: dict, k: int | None):
    counts = tuple(_eval_expr(c, k) for c in spec["counts"])
    wiring: dict[Replica, tuple[Replica, ...]] = {}
    for rule in spec["wiring"]:
        rx_user, rx_copy = rule["rx"]
        for j in _iter_rule(rule, k):
            rx = (int(rx_user), _eval_expr(rx_copy, k, j))
            wired = tuple(
                sorted((int(u), _eval_expr(c, k, j)) for u, c in rule["from"].items())
            )
            if rx in wiring:
                raise RecipeError(f"{spec['id']}: receiver {rx} wired twice")
            wiring[rx] = wired
    peel: list[list[Replica]] = []
    for rule in spec["peel"]:
        for j in _iter_rule(rule, k):
            for level in rule["levels"]:
                peel.append([(int(u), _eval_expr(c, k, j)) for u, c in level])
    return counts, wiring, peel


def builtin_recipe(bound_id: str, k: int | None = None) -> BoundRecipe:
    """Instantiate a built-in bound recipe, once per (id, k) and process.

    Parametric recipes need k >= 1; constant-size recipes ignore k and are
    cached under k = None.  A recipe depends on neither channel nor law.
    """
    return _builtin_recipe(bound_id, k if bound_support_info(bound_id)["parametric"] else None)


@cache  # an error raised inside is not cached
def _builtin_recipe(bound_id: str, k: int | None) -> BoundRecipe:
    spec = bound_support_info(bound_id)
    if spec["parametric"]:
        if k is None:
            raise DicboundError(f"bound {bound_id} is parametric; k is required")
        lo, hi = spec["k_range"]
        if not lo <= k <= hi:
            raise UnsupportedBoundError(f"bound {bound_id} supports k in {lo}..{hi}, got {k}")
    counts, wiring, peel = _instantiate(spec, k)
    recipe = ReplicationRecipe(counts=counts, wiring=tuple(sorted(wiring.items())))
    closed = derive_closed_terms(counts, wiring, peel)
    labels = {r: node_labels(r) for r in replicas_from_counts(counts)}
    # the replicas not yet peeled after each level, from all of them down to none
    uncut = list(accumulate(peel, lambda left, level: left - set(level), initial=frozenset(labels)))
    return BoundRecipe(recipe=recipe, chain=chain_from_cuts(labels, uncut), closed_terms=closed)


# -- verification --------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class RateReport:
    """Per-replica single-letter I(X;Y) against the base channel value: the
    network's ``replicas`` and one float per replica in ``values``, shared
    by replicas whose H(Y) and H(Y | X) are shared."""

    base_values: tuple[float, ...]
    replicas: tuple[Replica, ...]
    values: tuple[float, ...]
    max_deviation: float

    @property
    def replica_values(self) -> tuple[tuple[Replica, float], ...]:
        """(replica, I(X;Y)) for each replica of the network, in order."""
        return tuple(zip(self.replicas, self.values))

    def __repr__(self) -> str:
        return (
            f"RateReport(base_values={self.base_values!r}, replica_values={self.replica_values!r}, "
            f"max_deviation={self.max_deviation!r})"
        )


def verify_replica_rates(
    channel: DeterministicChannel, recipe: ReplicationRecipe, dist: SourceDistribution
) -> RateReport:
    """With identical i.i.d. replica inputs, every replica's I(X;Y) must equal
    the base channel's.  Each is H(Y) - H(Y | X) from ``memo_entropy`` with
    one memo over both networks, so a replica asks its user's base shapes,
    and those all read the base law's one table tuple: the check costs one
    enumeration.  ``memo_entropy`` returns the memo's own float for a shape
    met before, so a replica whose two shapes are a base replica's holds
    that replica's I(X;Y), one float, not a copy."""
    network = build_extended(channel, recipe)
    rdist = replicate_distribution(network, dist)
    base = base_network(channel)
    base_rates, replica_rates = recipe.rate_plans(base, network)
    memo, rates = ShapeMemo(), {}

    def mi(net, d, y, y_given_x):
        hy, hyx = memo_entropy(net, d, y, memo), memo_entropy(net, d, y_given_x, memo)
        # keyed by the memo's floats themselves: equal pairs of values that
        # are not the same floats may differ in the sign of a zero
        pair = id(hy), id(hyx)
        if pair not in rates:
            rates[pair] = hy - hyx
        return rates[pair]

    base_values = tuple([mi(base, dist, *plans) for _, *plans in base_rates])
    values = tuple([mi(network, rdist, *plans) for _, *plans in replica_rates])
    deviation = max((abs(value - base_values[u - 1]) for (u, _), value in zip(network.replicas, values)), default=0.0)
    return RateReport(base_values=base_values, replicas=network.replicas, values=values, max_deviation=deviation)


def chain_closed_form(recipe: BoundRecipe, values: Mapping) -> float:
    """The derived closed form: ``math.fsum`` over every copy of every term,
    reading each term's value from ``values`` (as ``base_terms`` returns them)."""
    return math.fsum(values[t.key] for t in recipe.closed_terms)


@dataclass(frozen=True)
class IdentityReport:
    bound_id: str
    ok: bool
    per_k: tuple[tuple[int, float, float, float], ...]  # (k, chain, closed, |diff|)
    increments: tuple[float, ...]
    diagnostics: tuple[str, ...]


def verify_chain_identity(
    bound_id: str,
    channel: DeterministicChannel,
    dist: SourceDistribution,
    k_range: Sequence[int] = (1, 2, 3),
) -> IdentityReport:
    """Check the chain value == derived closed form, up to ``IDENTITY_TOL``,
    for each k, reporting the first diverging term on mismatch and per-k
    increments.  The sizes are read in order and never listed, so a long
    range stops at its first unsupported k; a parametric id refuses an
    empty one.  Recipe chains come from ``chain_from_cuts`` and are valid
    by construction, so none is re-validated."""
    spec = bound_support_info(bound_id)
    ks = k_range if spec["parametric"] else [None]
    recipes = [builtin_recipe(bound_id, k) for k in ks]
    if not recipes:
        raise DicboundError(f"bound {bound_id} is parametric; k_range must hold at least one size")
    # one channel and the replicas of one base law: a query shape met at one
    # size has the same value at every other, so the memo spans the range
    shapes = ShapeMemo()
    evaluated = []
    for recipe in recipes:
        network = build_extended(channel, recipe.recipe)
        rdist = replicate_distribution(network, dist)
        evaluated.append(_chain_value(network, rdist, recipe.level_plans(network), shapes))
    values = base_terms(channel, dist, (key for r in recipes for key in r.term_counts()))
    per_k, diagnostics, ok = [], [], True
    for k, recipe, value in zip(ks, recipes, evaluated):
        closed_total = chain_closed_form(recipe, values)
        diff = abs(value.total - closed_total)
        if diff > IDENTITY_TOL:
            ok = False
            for level, term_value in enumerate(value.terms, start=1):
                terms = [t for t in recipe.closed_terms if t.level == level]
                expected = sum(values[t.key] for t in terms)
                if abs(term_value - expected) > IDENTITY_TOL:
                    diagnostics.append(
                        f"k={k}: level {level} evaluates to {term_value:.12g} but the closed form "
                        f"{' + '.join(t.describe() for t in terms) or '0'} gives {expected:.12g}"
                    )
                    break
        per_k.append((k if k is not None else 0, value.total, closed_total, diff))
    increments = tuple(b[2] - a[2] for a, b in zip(per_k, per_k[1:]))
    return IdentityReport(
        bound_id=bound_id,
        ok=ok,
        per_k=tuple(per_k),
        increments=increments,
        diagnostics=tuple(diagnostics),
    )


def limit_bound(
    bound_id: str, channel: DeterministicChannel, dist: SourceDistribution
) -> tuple[tuple[int, ...], float]:
    """The weighted-rate bound the recipe family yields in the large-size limit.

    Parametric recipes are affine in k, so one difference extracts the per-k
    increment; constant-size recipes contribute their full chain value.  Both
    closed forms read one base-term evaluation.
    """
    spec = bound_support_info(bound_id)
    if not spec["parametric"]:
        recipe = builtin_recipe(bound_id)
        return recipe.recipe.counts, chain_closed_form(recipe, base_terms(channel, dist, recipe.term_counts()))
    lo, _ = spec["k_range"]
    r_lo, r_hi = builtin_recipe(bound_id, lo), builtin_recipe(bound_id, lo + 1)
    values = base_terms(channel, dist, r_lo.term_counts() | r_hi.term_counts())
    weights = tuple(h - l for l, h in zip(r_lo.recipe.counts, r_hi.recipe.counts))
    return weights, chain_closed_form(r_hi, values) - chain_closed_form(r_lo, values)

