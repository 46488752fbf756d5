import json
import math
import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicbound.gcs
from dicbound.channels import builtin_channel
from dicbound.cli import main
from dicbound.entropy import SourceDistribution, V, X, Y, conditional_entropy, entropy, induce_joint
from dicbound.errors import BudgetExceededError, ChainValidationError, DicboundError
from dicbound.extend import build_extended, builtin_recipe, recipe_to_dict
from dicbound.gcs import (
    CutChain,
    chain_from_cuts,
    chain_values,
    enumerate_chains,
    evaluate_chain,
    min_chain_bound,
    tightest_chain,
    validate_chain,
)
from dicbound.networks import base_network, cond_entropy_network, replicate_distribution
from dicbound.sampling import sample_product_distribution

FIG_A = CutChain.of([{"S1", "S2", "D1"}, {"S1"}])  # opens on receiver 2
FIG_B = CutChain.of([{"S1", "S2", "D2"}, {"S2"}])  # opens on receiver 1


def brute_force_chains(network, max_l):
    """All valid chains by raw iteration over node-subset sequences."""
    nodes = sorted(network.nodes())
    subsets = []
    for mask in range(1 << len(nodes)):
        subsets.append(frozenset(n for i, n in enumerate(nodes) if mask >> i & 1))
    found = set()
    for length in range(1, max_l + 1):
        for seq in iproduct(subsets, repeat=length):
            chain = CutChain(tuple(seq))
            if not validate_chain(network, chain):
                found.add(chain.canonical())
    return found


def test_base_network_structure(xor2):
    net = base_network(xor2)
    assert net.nodes() == frozenset({"S1", "S2", "D1", "D2"})
    assert len(net.pairs()) == xor2.user_count


def test_named_chains_validate(xor2):
    net = base_network(xor2)
    assert validate_chain(net, FIG_A) == []
    assert validate_chain(net, CutChain.of([{"S1", "S2"}])) == []
    violations = validate_chain(net, CutChain.of([{"S1", "D1"}, {"S1"}]))
    assert violations and any("S2" in v for v in violations)


def test_nesting_violation_detected(xor2):
    net = base_network(xor2)
    bad = CutChain.of([{"S1", "S2", "D1"}, {"S2", "S1", "D2"}])
    assert any("contained" in v for v in validate_chain(net, bad))


def test_chain_value_examples(xor2):
    net = base_network(xor2)
    uniform = SourceDistribution.uniform([2, 2])
    value = evaluate_chain(net, FIG_A, uniform)
    assert value.terms == pytest.approx((1.0, 0.0), abs=1e-12)
    classical = evaluate_chain(net, CutChain.of([{"S1", "S2"}]), uniform)
    assert classical.total == pytest.approx(1.0, abs=1e-12)  # both outputs coincide
    point = SourceDistribution.point_mass([2, 2], (1, 1))
    assert evaluate_chain(net, FIG_A, point).total == pytest.approx(0.0, abs=1e-12)


def test_invalid_chain_raises(xor2):
    net = base_network(xor2)
    with pytest.raises(ChainValidationError):
        evaluate_chain(net, CutChain.of([{"S1"}]), SourceDistribution.uniform([2, 2]))


def test_enumeration_counts_and_oracle(xor2, concat3):
    net = base_network(xor2)
    chains = enumerate_chains(net, 2)
    assert len([c for c in chains if len(c) == 1]) == 1
    assert len([c for c in chains if len(c) == 2]) == 4
    assert len(chains) == 5
    got = {c.canonical() for c in chains}
    assert got == brute_force_chains(net, 2)
    # every emitted chain passes validation
    assert all(validate_chain(net, c) == [] for c in chains)
    chains = enumerate_chains(net, 3)
    assert len(chains) == 14
    assert {c.canonical() for c in chains} == brute_force_chains(net, 3)
    # three-user base network against the same oracle
    net3 = base_network(concat3)
    chains3 = enumerate_chains(net3, 2)
    assert {c.canonical() for c in chains3} == brute_force_chains(net3, 2)


def test_chain_from_uncut_replica_sets(xor2):
    net = base_network(xor2)
    labels = dict(zip(net.replicas, net.pairs()))
    both = {(1, 1), (2, 1)}
    assert chain_from_cuts(labels, [both, {(1, 1)}, set()]) == FIG_A
    assert chain_from_cuts(labels, [both, set()]) == CutChain.of([{"S1", "S2"}])
    with pytest.raises(DicboundError):
        chain_from_cuts(labels, [both, {(1, 1)}])  # receiver 1 never cut
    with pytest.raises(DicboundError):
        chain_from_cuts(labels, [{(1, 1)}, set()])  # receiver 2 cut before level 1
    with pytest.raises(DicboundError):
        chain_from_cuts(labels, [both, {(1, 1)}, {(2, 1)}, set()])  # not nested


def test_enumerate_command_evaluates_each_chain_once(count_calls, capsys):
    # 36 chains on concat3 up to length 3: one enumeration and one level walk
    # per chain, and the tightest chain is picked from the printed values
    enumerations = count_calls(dicbound.gcs, "enumerate_chains")
    walks = count_calls(dicbound.gcs, "_chain_levels")
    assert main(["gcs", "--channel", "concat3", "--enumerate", "--max-l", "3"]) == 0
    assert capsys.readouterr().out.startswith("valid chains up to length 3: 36\n")
    assert len(enumerations) == 1
    assert len(walks) == 36


def test_min_chain_bound_does_not_revalidate_enumerated_chains(concat3, count_calls):
    validations = count_calls(dicbound.gcs, "validate_chain")
    chain, bits = min_chain_bound(base_network(concat3), SourceDistribution.uniform([2, 2, 2]), 3)
    assert validations == []
    assert validate_chain(base_network(concat3), chain) == []
    assert bits == pytest.approx(3.0, abs=1e-12)


def test_enumeration_rejects_bad_max_l(xor2):
    with pytest.raises(DicboundError):
        enumerate_chains(base_network(xor2), 0)


def test_chain_count_is_a_sum_of_powers(xor2, concat3):
    # a chain of length l cuts each of the n replicas at one of its l levels
    for channel, n in ((xor2, 2), (concat3, 3)):
        for max_l in range(1, 6):
            chains = enumerate_chains(base_network(channel), max_l)
            assert len(chains) == len(set(chains)) == sum(l**n for l in range(1, max_l + 1))


def test_enumeration_past_the_cap_is_refused_before_any_chain_is_built(monkeypatch, xor2):
    net = base_network(xor2)
    # the largest length that fits: 1 + 4 + ... + 30^2 = 9,455 chains
    assert len(enumerate_chains(net, 30)) == 9455 <= dicbound.gcs.MAX_CHAINS
    monkeypatch.setattr(dicbound.gcs, "chain_from_cuts", lambda labels, uncut: pytest.fail("built a chain"))
    for max_l in (31, 1500, 10**12):
        with pytest.raises(BudgetExceededError, match="more than 10000 cut chains"):
            enumerate_chains(net, max_l)


def test_networks_past_16_nodes_are_enumerated_within_the_chain_cap(xor2):
    # 4a at k = 8: 9 replicas, 18 nodes
    net = build_extended(xor2, builtin_recipe("4a", 8).recipe)
    assert len(net.replicas) == 9 and len(net.nodes()) == 18
    chains = enumerate_chains(net, 2)
    assert len(chains) == len(set(chains)) == 1 + 2**9
    with pytest.raises(BudgetExceededError, match="more than 10000 cut chains"):
        enumerate_chains(net, 3)  # 513 + 3**9


def test_min_chain_bound(xor2):
    net = base_network(xor2)
    chain, bits = min_chain_bound(net, SourceDistribution.uniform([2, 2]), 2)
    assert bits == pytest.approx(1.0, abs=1e-12)
    point = SourceDistribution.point_mass([2, 2], (0, 0))
    assert min_chain_bound(net, point, 2)[1] == pytest.approx(0.0, abs=1e-12)


def test_chain_value_invariant_under_relabeling(shift2_221):
    # evaluating the mirrored chain on the user-swapped channel must agree
    net = base_network(shift2_221)
    dist = sample_product_distribution([4, 4], 21, 3)
    swapped = SourceDistribution("product", [4, 4], [dist.tables[1], dist.tables[0]])
    a = evaluate_chain(net, FIG_A, dist).total
    b = evaluate_chain(net, FIG_B, swapped).total
    assert abs(a - b) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_form_equivalence_conditioned_outputs_redundant(seed):
    # H(all fresh outputs | ...) equals H(fresh outputs in the previous set | ...)
    channel = builtin_channel("shift2", [2, 2, 1])
    net = base_network(channel)
    dist = sample_product_distribution([4, 4], seed, 0)
    table = induce_joint(channel, dist)
    lhs = conditional_entropy(table, [Y(1), Y(2)], [X(2), Y(2)])
    rhs = conditional_entropy(table, [Y(1)], [X(2), Y(2)])
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_opening_chain_identities(seed):
    # the two-step chain equals its interference-conditioned closed form exactly
    channel = builtin_channel("shift2", [3, 3, 2])
    dist = sample_product_distribution([8, 8], seed, 0)
    table = induce_joint(channel, dist)
    step = conditional_entropy(table, [Y(1)], [X(2), Y(2)])
    with_v = conditional_entropy(table, [Y(1)], [X(2), Y(2), V(1), V(2)])
    relaxed = conditional_entropy(table, [Y(1)], [V(1), V(2)])
    assert abs(step - with_v) < 1e-12
    assert step <= relaxed + 1e-12


def test_joint_mode_distribution_accepted(xor2):
    # correlated sources are allowed for chain evaluation
    net = base_network(xor2)
    dist = SourceDistribution("joint", [2, 2], {(0, 0): 0.5, (1, 1): 0.5})
    value = evaluate_chain(net, FIG_A, dist)
    # outputs vanish (both receivers see input xor itself = 0)
    assert value.total == pytest.approx(0.0, abs=1e-12)
    mixed = SourceDistribution("joint", [2, 2], {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.5})
    table = induce_joint(xor2, mixed)
    got = evaluate_chain(net, FIG_A, mixed)
    assert abs(got.terms[0] - entropy(table, [Y(2)])) < 1e-12
    assert abs(got.terms[1] - conditional_entropy(table, [Y(1)], [X(2), Y(2)])) < 1e-12


def test_enumeration_oracle_on_eight_node_network(xor2):
    # replicated network with 8 nodes: enumeration still matches raw iteration
    net = build_extended(xor2, builtin_recipe("4e", 2).recipe)
    assert len(net.nodes()) == 8
    chains = enumerate_chains(net, 2)
    assert {c.canonical() for c in chains} == brute_force_chains(net, 2)
    assert all(validate_chain(net, c) == [] for c in chains)


# -- the memo-free reference evaluator ------------------------------------------


def reference_levels(network, chain):
    """Per level: (target outputs, conditioning), read from the node labels of
    every replica at every level, with no assumption that the chain is valid."""
    full = [network.nodes()] + list(chain.subsets)
    levels = []
    for omega_prev, omega in zip(full, full[1:]):
        targets, cond = set(), set()
        for (user, copy), (src, dst) in zip(network.replicas, network.pairs()):
            if dst in omega_prev and dst not in omega:
                targets.add(Y(user, copy))
            if dst not in omega_prev:
                cond.add(Y(user, copy))
            if src not in omega:
                cond.add(X(user, copy))
        levels.append((targets, cond))
    return levels


def reference_terms(network, chain, dist):
    """Every level of the chain evaluated with its own network query."""
    return tuple(
        cond_entropy_network(network, dist, targets, cond) if targets else 0.0
        for targets, cond in reference_levels(network, chain)
    )


def extended_search(channel, bound_id, k, seed):
    net = build_extended(channel, builtin_recipe(bound_id, k).recipe)
    law = sample_product_distribution(channel.input_sizes, seed, 1)
    return net, replicate_distribution(net, law)


def random_joint_law(sizes, seed):
    rng = random.Random(seed)
    weights = {xs: rng.random() for xs in iproduct(*(range(s) for s in sizes))}
    total = sum(weights.values())
    return SourceDistribution("joint", sizes, {xs: w / total for xs, w in weights.items()})


def searches(shift2_331, concat3, xor2):
    """The benchmark's extended searches and the three base networks under a
    random joint law: (network, law, max chain length)."""
    out = [
        (*extended_search(shift2_331, "4a", 3, 21), 2),
        (*extended_search(concat3, "ineq5", 1, 22), 3),
    ]
    for seed, channel in enumerate((xor2, shift2_331, concat3)):
        out.append((base_network(channel), random_joint_law(channel.input_sizes, seed), 3))
    return out


def test_chain_values_equal_the_memo_free_reference(shift2_331, concat3, xor2):
    # bit for bit: a level shared by many chains is evaluated once, and every
    # chain still gets the float its own walk gives
    for net, dist, max_l in searches(shift2_331, concat3, xor2):
        values = chain_values(net, dist, max_l)
        expected = [(chain, math.fsum(reference_terms(net, chain, dist))) for chain, _ in values]
        assert values == expected
        assert tightest_chain(values) == tightest_chain(expected)


def test_each_distinct_level_is_one_query(concat3, count_calls):
    # the ineq5 search asks one query per distinct non-empty level; the levels
    # are counted here from the labels, as (targets, conditioning) pairs
    net, dist = extended_search(concat3, "ineq5", 1, 22)
    distinct = {
        (frozenset(targets), frozenset(cond))
        for chain in enumerate_chains(net, 3)
        for targets, cond in reference_levels(net, chain)
        if targets
    }
    calls = count_calls(dicbound.networks, "cond_entropy_network")
    chain_values(net, dist, 3)
    assert len(calls) == len(distinct) < sum(len(c) for c in enumerate_chains(net, 3))


# hand-written chains on 4a at k = 2 (replicas 1^1, 1^2, 2^1); the last has an
# empty level, which costs no query
HAND_CHAINS = (
    [["S1^1", "S1^2", "S2^1", "D1^1", "D2^1"], ["S1^1", "S2^1"]],
    [["S1^1", "S1^2", "S2^1", "D1^2"], ["S1^2", "D1^2"], ["S1^2"]],
)
HAND_INVALID = [["S1^1", "S1^2", "S2^1", "D1^1"], ["S1^1", "D2^1"]]
HAND_VIOLATIONS = [
    "subset 2 is not contained in subset 1",
    "level 2: destination D2^1 in subset iff source S2^1 in next (got True vs False)",
]


def test_given_chains_match_the_reference_term_by_term(shift2_331, tmp_path, capsys):
    recipe = builtin_recipe("4a", 2)
    net = build_extended(shift2_331, recipe.recipe)
    network = tmp_path / "net.json"
    channel = {"family": "shift2", "params": [3, 3, 1]}
    network.write_text(json.dumps({"channel": channel, "recipe": recipe_to_dict(recipe.recipe)}))
    dist = sample_product_distribution(net.source_sizes(), 42, 0)  # what --dist seed:42 draws
    for doc in HAND_CHAINS + (recipe.chain.canonical(),):
        chain = CutChain.of(doc)
        terms = reference_terms(net, chain, dist)
        value = evaluate_chain(net, chain, dist)
        assert value.terms == terms and value.total == math.fsum(terms)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps([sorted(s) for s in doc]))
        assert main(["gcs", "--network", str(network), "--chain", str(path), "--dist", "seed:42"]) == 0
        lines = [f"term {i}: {t:.12g}" for i, t in enumerate(terms, start=1)]
        assert capsys.readouterr().out == "\n".join(lines + [f"total: {math.fsum(terms):.12g}"]) + "\n"
    with pytest.raises(ChainValidationError) as exc:
        evaluate_chain(net, CutChain.of(HAND_INVALID), dist)
    assert exc.value.violations == validate_chain(net, CutChain.of(HAND_INVALID)) == HAND_VIOLATIONS
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(HAND_INVALID))
    assert main(["gcs", "--network", str(network), "--chain", str(path), "--dist", "seed:42"]) == 1
    assert capsys.readouterr().out == "invalid chain:\n" + "".join(f"  {v}\n" for v in HAND_VIOLATIONS)
