"""Replicated (extended) networks and the cut chains that recover each bound.

A replication recipe copies each user some number of times and wires every
receiver to exactly one replica of each other user.  Running the base inputs
i.i.d. on all replicas makes every per-replica rate equal the base rate, so a
chain bound on the extended network is a weighted-rate bound on the channel.

Recipes are data (``data/recipes.json``): replica counts, wiring and peel
order, with copy indices affine in the block variable j and the size k.  The
closed form of a chain is *derived*, not transcribed: walking the peel order
while tracking which interference symbols the conditioning pins down reduces
every term to a base-channel conditional entropy H(Y_u | V_A).
``chain_closed_form`` is the one closed-form total: it sums a recipe's terms
from one ``base_terms`` evaluation, for ``verify_chain_identity`` and
``limit_bound`` alike.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import accumulate
from typing import Mapping, Sequence

from .channels import DeterministicChannel
from .entropy import SourceDistribution, X, Y, base_terms, row_entropy
from .errors import DicboundError, RecipeError, UnsupportedBoundError
from .gcs import CutChain, chain_from_cuts, evaluate_chain
from .networks import (
    NetworkGraph,
    Replica,
    base_network,
    node_labels,
    replicas_from_counts,
    replicate_distribution,
    symbol_rows,
)

IDENTITY_TOL = 1e-9

_TERM_RE = re.compile(r"([+-]?)(\d*)([jk]?)")


def _eval_expr(expr: str, k: int | None, j: int | None = None) -> int:
    """Evaluate an affine index expression like '2j+1', 'k-1', '3'."""
    total = 0
    pos = 0
    text = expr.replace(" ", "")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise RecipeError(f"cannot parse index expression {expr!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        var = m.group(3)
        if var == "k":
            if k is None:
                raise RecipeError(f"expression {expr!r} needs k")
            total += sign * coeff * k
        elif var == "j":
            if j is None:
                raise RecipeError(f"expression {expr!r} needs a loop variable")
            total += sign * coeff * j
        else:
            if not m.group(2):
                raise RecipeError(f"cannot parse index expression {expr!r}")
            total += sign * coeff
        pos = m.end()
    return total


@dataclass(frozen=True)
class ReplicationRecipe:
    """Replica counts plus, per receiver, the interfering copy of each other user."""

    counts: tuple[int, ...]
    wiring: tuple[tuple[Replica, tuple[Replica, ...]], ...]

    def replicas(self) -> tuple[Replica, ...]:
        return replicas_from_counts(self.counts)


def build_extended(channel: DeterministicChannel, recipe: ReplicationRecipe) -> NetworkGraph:
    """Instantiate the recipe on a channel; every replica reuses the base tables.

    ``NetworkGraph`` checks the recipe's replicas and wiring against the
    channel.  Counts that exceed the wiring are refused first, naming the
    first unwired replica, so a file asking for millions of replicas is
    refused before they are listed.
    """
    counts = recipe.counts
    if all(n >= 1 for n in counts) and sum(counts) > len(recipe.wiring):
        wired = dict(recipe.wiring)
        replicas = ((u, c) for u, n in enumerate(counts, start=1) for c in range(1, n + 1))
        missing = next(r for r in replicas if r not in wired)
        raise RecipeError(f"no interference wiring for replica {missing}")
    return NetworkGraph(channel=channel, replicas=recipe.replicas(), wiring=recipe.wiring)


def recipe_from_dict(data: dict) -> ReplicationRecipe:
    """Recipe file form: {"counts": [..], "wiring": {"1^1": {"2": 1, ...}, ...}}."""
    try:
        counts = tuple(int(c) for c in data["counts"])
        wiring = []
        for key, wires in data["wiring"].items():
            user_s, _, copy_s = key.partition("^")
            rx = (int(user_s), int(copy_s) if copy_s else 1)
            wired = tuple(sorted((int(u), int(c)) for u, c in wires.items()))
            wiring.append((rx, wired))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RecipeError(f"malformed recipe document: {exc!r}") from exc
    return ReplicationRecipe(counts=counts, wiring=tuple(sorted(wiring)))


def recipe_to_dict(recipe: ReplicationRecipe) -> dict:
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
    conditioned (input, output) pair.
    """

    level: int
    target: Replica
    given: frozenset[int]
    evidence: tuple[tuple[int, tuple[str, Replica]], ...]

    @property
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
            given = set()
            evidence = []
            undetermined = {target}
            if target in known:
                given.add(target[0])
                evidence.append((target[0], known[target]))
            for w in wiring[target]:
                if w in known:
                    given.add(w[0])
                    evidence.append((w[0], known[w]))
                else:
                    undetermined.add(w)
            if undetermined & used_sources:
                raise RecipeError(
                    f"level {level_idx}: targets share undetermined source "
                    f"{sorted(undetermined & used_sources)}; closed form would not split"
                )
            used_sources |= undetermined
            terms.append(
                ClosedTerm(
                    level=level_idx,
                    target=target,
                    given=frozenset(given),
                    evidence=tuple(sorted(evidence)),
                )
            )
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

    bound_id: str
    k: int | None
    parametric: bool
    recipe: ReplicationRecipe
    chain: CutChain
    closed_terms: tuple[ClosedTerm, ...]

    def term_counts(self) -> Counter[tuple[int, frozenset[int]]]:
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
    parametric = spec["parametric"]
    if parametric:
        if k is None:
            raise DicboundError(f"bound {bound_id} is parametric; k is required")
        lo, hi = spec.get("k_range", [1, 8])
        if not lo <= k <= hi:
            raise UnsupportedBoundError(f"bound {bound_id} supports k in {lo}..{hi}, got {k}")
    counts, wiring, peel = _instantiate(spec, k)
    recipe = ReplicationRecipe(counts=counts, wiring=tuple(sorted(wiring.items())))
    closed = derive_closed_terms(counts, wiring, peel)
    labels = {r: node_labels(r) for r in replicas_from_counts(counts)}
    # the replicas not yet peeled after each level, from all of them down to none
    uncut = list(accumulate(peel, lambda left, level: left - set(level), initial=frozenset(labels)))
    return BoundRecipe(
        bound_id=bound_id,
        k=k,
        parametric=parametric,
        recipe=recipe,
        chain=chain_from_cuts(labels, uncut),
        closed_terms=closed,
    )


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Per-replica single-letter I(X;Y) against the base channel value."""

    base_values: tuple[float, ...]
    replica_values: tuple[tuple[Replica, float], ...]
    max_deviation: float


def verify_replica_rates(
    channel: DeterministicChannel, recipe: ReplicationRecipe, dist: SourceDistribution
) -> RateReport:
    """With identical i.i.d. replica inputs, every replica's I(X;Y) must equal
    the base channel's."""
    network = build_extended(channel, recipe)
    rdist = replicate_distribution(network, dist)
    base = base_network(channel)

    def mi(net, d, user, copy):
        # I(X;Y) = H(X) + H(Y) - H(X,Y), from one enumeration
        values, p = symbol_rows(net, d, [X(user, copy), Y(user, copy)])
        return row_entropy(values[:, :1], p) + row_entropy(values[:, 1:], p) - row_entropy(values, p)

    base_values = tuple(mi(base, dist, u, 1) for u in range(1, channel.user_count + 1))
    replica_values = tuple(((u, c), mi(network, rdist, u, c)) for u, c in network.replicas)
    deviation = max((abs(value - base_values[u - 1]) for (u, _), value in replica_values), default=0.0)
    return RateReport(base_values=base_values, replica_values=replica_values, max_deviation=deviation)


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
    """Check evaluate_chain == derived closed form, up to ``IDENTITY_TOL``, for
    each k, reporting the first diverging term on mismatch and per-k
    increments.  The sizes are read in order and never listed, so a long
    range stops at its first unsupported k."""
    spec = bound_support_info(bound_id)
    ks = k_range if spec["parametric"] else [None]
    recipes = [builtin_recipe(bound_id, k) for k in ks]
    evaluated = []
    for recipe in recipes:
        network = build_extended(channel, recipe.recipe)
        evaluated.append(evaluate_chain(network, recipe.chain, replicate_distribution(network, dist)))
    values = base_terms(channel, dist, (t.key for r in recipes for t in r.closed_terms))
    per_k = []
    diagnostics = []
    ok = True
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
    lo, _ = spec.get("k_range", [1, 8])
    r_lo, r_hi = builtin_recipe(bound_id, lo), builtin_recipe(bound_id, lo + 1)
    values = base_terms(channel, dist, r_lo.term_counts() | r_hi.term_counts())
    weights = tuple(h - l for l, h in zip(r_lo.recipe.counts, r_hi.recipe.counts))
    return weights, chain_closed_form(r_hi, values) - chain_closed_form(r_lo, values)


def affine_term_multiplicities(bound_id: str) -> dict[tuple[int, frozenset[int]], tuple[int, int]]:
    """Closed-form term multiplicities as (a, b) meaning a*k + b.

    Validated at three sizes; a constant-size recipe ignores k, so it reports a = 0.
    """
    lo, _ = bound_support_info(bound_id).get("k_range", [1, 8])
    counts = [builtin_recipe(bound_id, k).term_counts() for k in (lo, lo + 1, lo + 2)]
    out = {}
    for key in set().union(*counts):
        c0, c1, c2 = (c[key] for c in counts)
        a = c1 - c0
        b = c0 - a * lo
        if c2 != a * (lo + 2) + b:
            raise RecipeError(f"{bound_id}: term multiplicity for {key} is not affine in k")
        out[key] = (a, b)
    return out
