"""Law-free query plans kept on the kept networks.

A channel builds each extended network once and each network compiles each
query once, and keeps the plan tuples of the recipe chains and replica
rates evaluated on it; every law after that only builds shapes from them.
The plans must give what a fresh evaluation gives, bit for bit, whichever
recipes were compiled first and on whichever channel, and nothing kept may
hold a law.
"""

import ast
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import dicbound
from dicbound import extend, networks
from dicbound.channels import builtin_channel
from dicbound.entropy import SourceDistribution, X, Y, base_terms
from dicbound.extend import (
    build_extended,
    builtin_recipe,
    chain_closed_form,
    supported_bounds,
    verify_chain_identity,
    verify_replica_rates,
)
from dicbound.gcs import _chain_levels, _chain_value, chain_plans, min_chain_bound
from dicbound.networks import (
    NetworkGraph,
    QueryPlan,
    ShapeMemo,
    base_network,
    cond_entropy_network,
    network_entropy,
    replicate_distribution,
)
from dicbound.sampling import sample_product_distribution

from first_principles import recipe_chain, reference_terms

# (bound id, k) groups whose recipes are equal networks with chains of their
# own: a plan keyed by the network alone would give one id the other's levels
SHARED_NETWORKS = (
    (("4a", 1), ("4b", 1), ("4e", 1), ("4c", None), ("4d", None)),
    (("4a", 2), ("4f", None)),
    (("4b", 2), ("4g", None)),
)


@pytest.fixture
def fresh_recipes():
    """No recipe, and so no plan, compiled by an earlier test."""
    extend._builtin_recipe.cache_clear()
    yield
    extend._builtin_recipe.cache_clear()


def fresh_identity(channel, law, bound_id, k):
    """The per-k entry of ``verify_chain_identity`` from plans compiled for
    this call, with a new shape memo, checked against the label-read
    reference level by level."""
    recipe = builtin_recipe(bound_id, k)
    net = build_extended(channel, recipe.recipe)
    rdist = replicate_distribution(net, law)
    chain = recipe_chain(recipe)
    value = _chain_value(net, rdist, chain_plans(net, _chain_levels(net, chain), True), ShapeMemo())
    assert value.terms == reference_terms(net, chain, rdist)
    closed = chain_closed_form(recipe, base_terms(channel, law, recipe.term_counts()))
    return (k or 0, value.total, closed, abs(value.total - closed))


def fresh_rates(channel, law, recipe):
    """``verify_replica_rates``' values, each I(X;Y) from two public queries
    with memos of their own."""

    def mi(net, dist, replica):
        y, x = Y(*replica), X(*replica)
        return network_entropy(net, dist, [y]) - cond_entropy_network(net, dist, [y], [x])

    net = build_extended(channel, recipe)
    rdist = replicate_distribution(net, law)
    base = base_network(channel)
    base_values = tuple(mi(base, law, r) for r in base.replicas)
    replica_values = tuple((r, mi(net, rdist, r)) for r in net.replicas)
    deviation = max(abs(value - base_values[u - 1]) for (u, _), value in replica_values)
    return base_values, replica_values, deviation


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_recipes_of_one_network_keep_their_own_plans(fresh_recipes, order):
    # compiled on shift2:3,3,1 in one order, then read on shift2:5,5,2: the
    # identity and the rates are what fresh plans give, bit for bit
    groups = [group if order == "forward" else group[::-1] for group in SHARED_NETWORKS]
    for channel in (builtin_channel("shift2", [3, 3, 1]), builtin_channel("shift2", [5, 5, 2])):
        law = sample_product_distribution(channel.input_sizes, 8, 0)
        for group in groups if order == "forward" else groups[::-1]:
            for bound_id, k in group:
                report = verify_chain_identity(bound_id, channel, law, [k])
                assert report.ok
                expected = fresh_identity(channel, law, bound_id, k)
                assert [tuple(float(v).hex() for v in entry) for entry in report.per_k] == [
                    tuple(float(v).hex() for v in expected)
                ]
                rates = verify_replica_rates(channel, builtin_recipe(bound_id, k).recipe, law)
                assert (rates.base_values, rates.replica_values, rates.max_deviation) == fresh_rates(
                    channel, law, builtin_recipe(bound_id, k).recipe
                )
    # each group shares one network, and not one chain
    for group in SHARED_NETWORKS:
        recipes = [builtin_recipe(bound_id, k) for bound_id, k in group]
        assert len({r.recipe for r in recipes}) == 1 < len({recipe_chain(r) for r in recipes})


def test_a_recipe_compiles_its_plans_once(fresh_recipes, count_calls):
    # the first identity sweep and rate check of 4a on a channel object
    # compile every level and both rate queries of every replica, and a
    # kernel per law-free shape; later laws on it reduce and compile
    # nothing, and still run a kernel for each shape their memos lack, while
    # another channel object compiles its own plans and kernels, once.  The
    # channels are fresh objects: a session fixture's networks keep what
    # earlier tests compiled on them
    xor2, concat3 = builtin_channel("xor2"), builtin_channel("concat3")
    reductions = count_calls(networks, "reduce_query")
    queries = count_calls(networks, "kernel_entropy")
    kernels = count_calls(networks, "compile_kernel")
    unkerneled = count_calls(networks, "query_entropy")
    ks = (1, 2, 3)
    # the k = 3 chain's first level is H(Y1^3), which the rate check asks
    # too: the network compiles that query once for both
    levels = sum(len(builtin_recipe("4a", k).peel) for k in ks) - 1
    replicas = sum(builtin_recipe("4a", 3).recipe.counts)
    once = levels + 2 * (2 + replicas)  # what one two-user channel object compiles
    asked, built = [], []
    rounds = (xor2, once), (builtin_channel("shift2", [3, 3, 1]), 2 * once), (xor2, 2 * once)
    for seed, (channel, compiled) in enumerate(rounds):
        law = sample_product_distribution(channel.input_sizes, seed, 0)
        assert verify_chain_identity("4a", channel, law, ks).ok
        assert verify_replica_rates(channel, builtin_recipe("4a", 3).recipe, law).max_deviation == 0.0
        assert len(reductions) == compiled
        asked.append(len(queries))
        built.append(len(kernels))
    assert 0 < asked[0] < asked[1] < asked[2]
    assert 0 < built[0] < built[1] == built[2] and unkerneled == []
    # a three-user recipe compiles on its own first use, the chain only
    assert verify_chain_identity("ineq8", concat3, SourceDistribution.uniform([2, 2, 2])).ok
    assert len(reductions) == 2 * once + len(builtin_recipe("ineq8").peel)


def joint_law(sizes, seed):
    """A correlated law over the whole source tuple space."""
    weights = {xs: 1.0 + (seed * 7 + i) % 5 for i, xs in enumerate(product(*map(range, sizes)))}
    total = sum(weights.values())
    return SourceDistribution("joint", sizes, {xs: w / total for xs, w in weights.items()})


def chains_round(channel, bound_id, k, max_l, seed):
    """What one ``chains`` benchmark round asks of a channel: an identity
    sweep over the id's k range, a rate check at its largest k, a search on
    its extended network and a joint-law search on the base network; the
    values, and the extended network searched."""
    law = sample_product_distribution(channel.input_sizes, seed, 0)
    spec = extend.bound_support_info(bound_id)
    ks = [k, k + 1] if spec["parametric"] else [None]
    identity = verify_chain_identity(bound_id, channel, law, ks)
    rates = verify_replica_rates(channel, builtin_recipe(bound_id, ks[-1]).recipe, law)
    net = build_extended(channel, builtin_recipe(bound_id, k).recipe)
    search = min_chain_bound(net, replicate_distribution(net, law), max_l)
    joint = min_chain_bound(base_network(channel), joint_law(channel.input_sizes, seed), 3)
    return net, (identity, rates, search, joint)


@pytest.mark.parametrize(
    "family, params, bound_id, k, max_l", [("shift2", [3, 3, 1], "4a", 2, 2), ("concat3", None, "ineq5", 1, 2)]
)
def test_a_channel_builds_each_network_and_compiles_each_query_once(
    count_calls, monkeypatch, family, params, bound_id, k, max_l
):
    # a second round on the same channel object builds no network and
    # reduces nothing, and its values are the first round's, bit for bit;
    # an equal channel object builds and compiles its own
    built = []
    check = NetworkGraph.__post_init__

    def counting(network):
        built.append(network.counts)
        check(network)

    monkeypatch.setattr(NetworkGraph, "__post_init__", counting)
    reductions = count_calls(networks, "reduce_query")
    channel = builtin_channel(family, params)
    net, first = chains_round(channel, bound_id, k, max_l, 1)
    first_built, first_reductions = list(built), len(reductions)
    assert first_built and first_reductions
    for seed in (1, 2):
        again, values = chains_round(channel, bound_id, k, max_l, seed)
        assert again is net and built == first_built and len(reductions) == first_reductions
    assert repr(values) != repr(first)  # another law, other values
    assert repr(chains_round(channel, bound_id, k, max_l, 1)[1]) == repr(first)
    built.clear()
    other = builtin_channel(family, params)
    assert other == channel and other is not channel
    other_net, values = chains_round(other, bound_id, k, max_l, 1)
    assert other_net is not net and sorted(built) == sorted(first_built)
    assert len(reductions) > first_reductions
    assert repr(values) == repr(first)


# parameter names that carry a law through the library
LAW_PARAMETERS = {"dist", "law", "base_dist"}


def cached_functions():
    """(module, function, parameter names) of every library function under
    ``functools.cache`` or ``lru_cache``, however the decorator is spelled."""
    out = []
    for path in sorted(Path(dicbound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                    if name in ("cache", "lru_cache"):
                        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                        out.append((path.stem, node.name, {a.arg for a in args}))
    return out


def test_no_process_cache_is_keyed_by_a_law():
    # laws hash by identity, so a process-wide cache keyed by one would hold
    # every law ever asked; plans live on the recipes, which hold no law
    cached = cached_functions()
    assert ("extend", "_builtin_recipe", {"bound_id", "k"}) in cached
    assert [(module, name) for module, name, params in cached if params & LAW_PARAMETERS] == []


def leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def reachable(root):
    """Every object reachable from ``root`` through containers and the
    fields of instances, private ones included."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            yield obj
            if isinstance(obj, dict):
                stack += [*obj.keys(), *obj.values()]
            elif isinstance(obj, (tuple, list, set, frozenset)):
                stack += obj
            elif hasattr(obj, "__dict__") and not isinstance(obj, type):
                stack += vars(obj).values()


def unkept():
    pytest.fail("a plan tuple was not kept")


def test_kept_plans_hold_no_law(fresh_recipes):
    # every plan tuple the networks keep after an identity sweep and a rate
    # check of each id holds ints and column kinds only: no float, no table,
    # no law; and after a chains round, nothing the channel keeps, its
    # networks and their plan memos included, is a law, a shape memo or a
    # float table.  The kernel store's interned partitions are int arrays,
    # pairwise unequal, found by int hashes, and every kernel array is the
    # one partition its number names, so an array has at most one number
    kept = {}  # users -> the plans the channel's networks keep for its recipes
    channels = (2, builtin_channel("shift2", [3, 3, 1])), (3, builtin_channel("concat3"))
    for users, channel in channels:
        law = sample_product_distribution(channel.input_sizes, 4, 0)
        plans = kept[users] = []
        for bound_id in supported_bounds(users):
            spec = extend.bound_support_info(bound_id)
            k = spec["k_range"][0] if spec["parametric"] else None
            verify_chain_identity(bound_id, channel, law, [k])
            recipe = builtin_recipe(bound_id, k)
            verify_replica_rates(channel, recipe.recipe, law)
            net = build_extended(channel, recipe.recipe)
            plans += [plan for plan in net.kept(("chain", True, recipe.peel), unkept) if plan is not None]
            for network in (channel.network, net):
                plans += [plan for asks in network.kept(("rates", True), unkept) for plan in asks if plan]
    assert all(plans and all(isinstance(plan, QueryPlan) for plan in plans) for plans in kept.values())
    assert {type(leaf) for leaf in leaves(list(kept.values()))} == {int, str}
    for (users, channel), search in zip(channels, (("4a", 2, 2), ("ineq5", 1, 3))):
        chains_round(channel, *search, 4)
        found = list(reachable(channel))
        assert len(channel.extended_networks) > 1 and any(obj is channel.network for obj in found)
        # the plans the recipes keep are the networks' own, not copies
        assert {id(plan) for plan in kept[users]} <= {id(obj) for obj in found if isinstance(obj, QueryPlan)}
        assert [obj for obj in found if isinstance(obj, (float, SourceDistribution, ShapeMemo))] == []
        assert {obj.dtype.kind for obj in found if isinstance(obj, np.ndarray)} == {"i"}
        store = channel.kernels
        assert store.parts and {part.dtype.kind for part in store.parts} == {"i"}
        assert len({part.tobytes() for part in store.parts}) == len(store.parts)
        assert {type(leaf) for leaf in leaves([*store.numbers.items()])} == {int}
        assert sorted(leaves(list(store.numbers.values()))) == list(range(len(store.parts)))
        for kernel in store.kernels.values():
            arrays = (kernel.rows,) if kernel.keys is None else (kernel.rows, kernel.keys)
            assert len(kernel.parts) == len(arrays)
            assert all(store.parts[number] is array for number, array in zip(kernel.parts, arrays))
