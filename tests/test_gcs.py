import hashlib
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
from dicbound.errors import BudgetExceededError, ChainValidationError, DicboundError, DistributionError
from dicbound.extend import (
    bound_support_info,
    build_extended,
    builtin_recipe,
    recipe_to_dict,
    supported_bounds,
    verify_chain_identity,
)
from dicbound.gcs import (
    CutChain,
    _walk_chains,
    chain_values,
    enumerate_chains,
    evaluate_chain,
    min_chain_bound,
    tightest_chain,
    validate_chain,
)
from dicbound.networks import (
    NetworkGraph,
    ShapeMemo,
    base_network,
    compile_query,
    cond_entropy_network,
    memo_entropy,
    query_plan,
    query_shape,
    reduce_query,
    replicas_from_counts,
    replicate_distribution,
)
from dicbound.sampling import sample_product_distribution

from first_principles import (
    check_recipe_search,
    reads,
    recipe_chain,
    reference_levels,
    reference_query_shape,
    reference_reduce_query,
    reference_replica_sets,
    reference_terms,
)

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


def brute_force_labels(network, walk):
    """The chain of a walk from the level that cuts each replica: subset j
    holds the source of every replica cut at j or later and the destination
    of every replica cut after j."""
    replicas = range(len(network.replicas))
    cut_at = [next(j for j, (_, fresh) in enumerate(walk, start=1) if fresh >> i & 1) for i in replicas]
    return CutChain.of(
        [src for (src, _), level in zip(network.pairs(), cut_at) if level >= j]
        + [dst for (_, dst), level in zip(network.pairs(), cut_at) if level > j]
        for j in range(1, len(walk) + 1)
    )


def test_walk_chains_match_a_brute_force_label_build(xor2, concat3):
    net = base_network(concat3)
    walks = dicbound.gcs._chain_walks(net, 3)
    assert _walk_chains(net, walks) == [brute_force_labels(net, walk) for walk in walks]
    # FIG_A cuts receiver 2 at level 1 and receiver 1 at level 2
    net = base_network(xor2)
    one, two = net.mask([(1, 1)]), net.mask([(2, 1)])
    assert _walk_chains(net, [((0, two), (two, one)), ((0, one | two),)]) == [FIG_A, CutChain.of([{"S1", "S2"}])]


def test_equal_chains_print_equally(concat3):
    # a chain prints its canonical form, not its frozensets in hash-table
    # order: every chain of the ineq5 search, rebuilt from its label sets in
    # reverse order, is equal and prints the same
    net, _ = extended_search(concat3, "ineq5", 1, 22)
    chains = enumerate_chains(net, 3)
    rebuilt = [CutChain.of(sorted(s, reverse=True) for s in chain.subsets) for chain in chains]
    assert rebuilt == chains
    assert [repr(c) for c in rebuilt] == [repr(c) for c in chains]
    assert repr(FIG_A) == "CutChain.of((('D1', 'S1', 'S2'), ('S1',)))"
    assert eval(repr(FIG_A), {"CutChain": CutChain}) == FIG_A


def test_enumerate_command_evaluates_each_chain_once(count_calls, capsys):
    # 36 chains on concat3 up to length 3: one walk enumeration, every walk
    # valued in one pass and turned into its printed chain once, none read
    # back from its labels, and the tightest chain is picked from the
    # printed values
    enumerations = count_calls(dicbound.gcs, "_chain_walks")
    valuations = count_calls(dicbound.gcs, "_walk_values")
    chains = count_calls(dicbound.gcs, "_walk_chains")
    relabelled = count_calls(dicbound.gcs, "_chain_levels")
    assert main(["gcs", "--channel", "concat3", "--enumerate", "--max-l", "3"]) == 0
    assert capsys.readouterr().out.startswith("valid chains up to length 3: 36\n")
    assert len(enumerations) == 1 and len(valuations) == 1
    walks = valuations[0][2]
    assert len(walks) == len(set(walks)) == 36
    assert len(chains) == 1 and sorted(chains[0][1]) == sorted(walks) and relabelled == []


def test_the_search_meets_each_recipe_chain_at_its_identity_value(xor2, shift2_331, concat3):
    # every id at its least size whose search up to the chain's length has
    # at most 400 walks: 7 on each two-user channel, 4 on concat3
    searched = []
    for seed, channel in enumerate((xor2, shift2_331, concat3)):
        law = sample_product_distribution(channel.input_sizes, seed, 0)
        searched += [b for b in supported_bounds(channel.user_count) if check_recipe_search(channel, law, b)]
    assert len(searched) == 18


def test_min_chain_bound_does_not_revalidate_enumerated_chains(concat3, count_calls):
    validations = count_calls(dicbound.gcs, "validate_chain")
    chain, bits = min_chain_bound(base_network(concat3), SourceDistribution.uniform([2, 2, 2]), 3)
    assert validations == []
    assert validate_chain(base_network(concat3), chain) == []
    assert bits == pytest.approx(3.0, abs=1e-12)


def test_enumeration_rejects_bad_max_l(xor2):
    net, law = base_network(xor2), SourceDistribution.uniform([2, 2])
    for max_l in (0, -3):
        for search in (lambda: enumerate_chains(net, max_l), lambda: chain_values(net, law, max_l)):
            with pytest.raises(DicboundError, match="^max_l must be >= 1$") as exc:
                search()
            assert type(exc.value) is DicboundError
        with pytest.raises(DicboundError, match="^max_l must be >= 1$") as exc:
            min_chain_bound(net, law, max_l)
        assert type(exc.value) is DicboundError


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
    monkeypatch.setattr(dicbound.gcs, "_walk_chains", lambda network, walks: pytest.fail("built a chain"))
    monkeypatch.setattr(dicbound.gcs, "_extend_walk", lambda *args: pytest.fail("built a walk"))
    law = SourceDistribution.uniform([2, 2])
    for max_l in (31, 1500, 10**12):
        for search in (lambda: enumerate_chains(net, max_l), lambda: min_chain_bound(net, law, max_l)):
            with pytest.raises(BudgetExceededError, match="more than 10000 cut chains"):
                search()


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


def test_min_chain_bound_is_the_tightest_of_every_chain(shift2_331, concat3, xor2):
    # only the walks tied at the least value become chains, and the tie rule
    # then picks among them what it picks among every chain: on the bench
    # searches, and under uniform laws on the base networks, where many
    # chains tie exactly
    cases = searches(shift2_331, concat3, xor2) + [
        (base_network(xor2), SourceDistribution.uniform([2, 2]), 3),
        (base_network(concat3), SourceDistribution.uniform([2, 2, 2]), 3),
    ]
    ties = []
    for net, dist, max_l in cases:
        values = chain_values(net, dist, max_l)
        reference = [(chain, math.fsum(reference_terms(net, chain, dist))) for chain in enumerate_chains(net, max_l)]
        chain, value = min_chain_bound(net, dist, max_l)
        for other, other_value in (tightest_chain(values), tightest_chain(reference)):
            assert (chain, value.hex()) == (other, other_value.hex())
        ties.append(sum(v == value for _, v in values))
    assert ties[-2] > 1 and ties[-1] > 1


def test_search_and_identity_values_are_pinned(shift2_331, concat3):
    # every chain value of the ineq5 (k = 1) and 4a (k = 3) searches, and
    # every per-k entry of the ineq26 identity on concat3 at k = 1..6, as
    # float.hex: a value that moves in its last bit changes the digest
    lines = []
    for net, dist, max_l in (
        (*extended_search(concat3, "ineq5", 1, 22), 3),
        (*extended_search(shift2_331, "4a", 3, 21), 2),
    ):
        lines += [f"{chain.canonical()}: {value.hex()}" for chain, value in chain_values(net, dist, max_l)]
    law = sample_product_distribution(concat3.input_sizes, 5, 0)
    report = verify_chain_identity("ineq26", concat3, law, k_range=range(1, 7))
    assert report.ok
    lines += [f"k={k}: {' '.join(v.hex() for v in values)}" for k, *values in report.per_k]
    assert len(lines) == 817
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "908bc34abd0668e092eae8578fe9284be42db761236622d9fccb1e492a066628"


def level_plan(network, dist, targets, cond):
    """The compiled query of a (targets, conditioning) level for the law's
    mode, or None when the level needs no query."""
    return compile_query(network, dist.mode == "product", network.replica_sets(targets), network.replica_sets(cond))


def level_shape(network, dist, targets, cond):
    """The query shape of a (targets, conditioning) level, from the public
    steps, or None when the level needs no query."""
    plan = level_plan(network, dist, targets, cond)
    return plan and query_shape(dist, plan)


def level_reads(network, dist, targets, cond):
    """The source replicas the reduced query of a level reads."""
    reduced = reduce_query(
        network, dist.mode == "product", network.replica_sets(targets), network.replica_sets(cond)
    )
    if reduced is None:
        return set()
    keys, live = reduced  # (kind, replica bitmask) groups
    columns = [(kind, r) for kind, mask in keys + live for i, r in enumerate(network.replicas) if mask >> i & 1]
    return {s for kind, r in columns for s in reads(network, kind, r)}


def search_levels(network, max_l):
    """The distinct non-empty (targets, conditioning) levels of every chain
    up to length max_l, read from the labels."""
    return {
        (frozenset(targets), frozenset(cond))
        for chain in enumerate_chains(network, max_l)
        for targets, cond in reference_levels(network, chain)
        if targets
    }


def test_each_distinct_level_is_one_query(concat3, count_calls):
    # the ineq5 search reduces each distinct non-empty level once and asks
    # one engine query per distinct query shape among them, which are fewer
    # than the levels themselves.  The search runs on a fresh channel object,
    # whose network has compiled nothing yet: the shapes are read from the
    # session channel's own network
    net, dist = extended_search(concat3, "ineq5", 1, 22)
    distinct = search_levels(net, 3)
    shapes = {level_shape(net, dist, *level) for level in distinct} - {None}
    fresh, fresh_dist = extended_search(builtin_channel("concat3"), "ineq5", 1, 22)
    assert fresh is not net
    reductions = count_calls(dicbound.networks, "reduce_query")
    calls = [count_calls(dicbound.networks, name) for name in ("query_entropy", "kernel_entropy", "compile_kernel")]
    chain_values(fresh, fresh_dist, 3)
    assert len(reductions) == len(distinct) == 665
    queries, kernels, compiles = map(len, calls)
    assert queries == 0
    assert kernels == len(shapes) < len(distinct) < sum(len(c) for c in enumerate_chains(net, 3))
    # the product-law queries run kernels, one compiled per law-free shape
    # (users, keys, columns) on the fresh channel; another law compiles none
    assert compiles == len({(tuple(u for u, _ in tables), keys, columns) for tables, keys, columns in shapes})
    chain_values(fresh, replicate_distribution(fresh, sample_product_distribution((2, 2, 2), 23, 0)), 3)
    assert list(map(len, calls)) == [0, 2 * kernels, compiles]


def test_the_ineq5_search_enumerates_each_source_table_tuple_once(concat3, count_calls):
    # replicas of a user run i.i.d. copies of its inputs, so the 622 engine
    # queries read only 8 distinct source-table tuples, and the memo builds
    # the masses of each of them once, for the kernels; no source is
    # enumerated
    net, dist = extended_search(concat3, "ineq5", 1, 22)
    shapes = {level_shape(net, dist, *level) for level in search_levels(net, 3)} - {None}
    atoms = count_calls(dicbound.networks, "source_atoms")
    masses = count_calls(dicbound.networks, "product_masses")
    chain_values(net, dist, 3)
    assert len(atoms) == 0
    assert len(masses) == len({tables for tables, _, _ in shapes}) == 8


def test_a_memo_keeps_no_enumeration_past_the_atom_cap(monkeypatch):
    # every enumeration of the search fits a cap of 64 atoms, but not all of
    # their mass vectors: the memo keeps what fits and nothing past it, and
    # every value is still the one a fresh memo gives, bit for bit.  Without
    # kernels (a fresh channel with no kernel cells) every query runs the
    # memo-free enumeration and the memo keeps no array; with them it keeps
    # mass vectors
    monkeypatch.setattr(dicbound.networks, "MAX_ATOMS", 64)
    for cells in (0, dicbound.networks.MAX_KERNEL_CELLS):
        monkeypatch.setattr(dicbound.networks, "MAX_KERNEL_CELLS", cells)
        net, dist = extended_search(builtin_channel("concat3"), "ineq5", 1, 22)
        memo, tuples = ShapeMemo(), set()
        for targets, cond in search_levels(net, 3):
            shape = level_shape(net, dist, targets, cond)
            if shape:
                tuples.add(shape[0])
            got = memo_entropy(net, dist, level_plan(net, dist, targets, cond), memo)
            assert got == cond_entropy_network(net, dist, targets, cond)
            assert memo.cells <= 64
            assert memo.cells == sum(len(p) for places, p in memo.masses.values() if places is None)
        assert 0 < len(memo.masses) < len(tuples) == 8 if cells else memo.masses == {}


def recipe_levels(channel, law):
    """(network, replicated law, targets, conditioning) for every non-empty
    level of every recipe chain of the channel's bound ids, at k = 1..3."""
    out = []
    for bound_id in supported_bounds(channel.user_count):
        ks = (1, 2, 3) if bound_support_info(bound_id)["parametric"] else (None,)
        for k in ks:
            recipe = builtin_recipe(bound_id, k)
            net = build_extended(channel, recipe.recipe)
            rdist = replicate_distribution(net, law)
            out += [(net, rdist, *level) for level in reference_levels(net, recipe_chain(recipe)) if level[0]]
    return out


@pytest.mark.parametrize("seed", [3, 4])
def test_levels_with_equal_shapes_have_equal_values(xor2, shift2_331, concat3, seed):
    # equal shapes rename replicas of one user under one table, so their
    # direct queries agree bit for bit, across bound ids and sizes alike
    for channel in (xor2, shift2_331, concat3):
        law = sample_product_distribution(channel.input_sizes, seed, 0)
        levels = recipe_levels(channel, law)
        if channel is concat3:
            net, dist = extended_search(concat3, "ineq5", 1, seed)
            levels += [(net, dist, *level) for level in search_levels(net, 3)]
        by_shape = {}
        for net, dist, targets, cond in levels:
            shape = level_shape(net, dist, targets, cond)
            if shape is not None:
                by_shape.setdefault(shape, set()).add(cond_entropy_network(net, dist, targets, cond))
        assert len(by_shape) < len(levels)
        assert all(len(values) == 1 for values in by_shape.values())


def test_the_mask_reduction_matches_the_set_reference(xor2, shift2_331, concat3):
    # reduce_query and query_shape work on replica bitmasks; the set-based
    # reference, asked on the sets the masks stand for, gives the same shape
    # and the same sorted sources on every
    # recipe level, every search level (the ineq5 and 4a searches, and joint
    # laws on the base networks), and on random asks that condition outputs
    # without their inputs, so every branch of the reduction is met
    asks = []
    for channel in (xor2, shift2_331, concat3):
        law = sample_product_distribution(channel.input_sizes, 5, 0)
        asks += recipe_levels(channel, law)
    for net, dist, max_l in searches(shift2_331, concat3, xor2):
        asks += [(net, dist, *level) for level in search_levels(net, max_l)]
    rng = random.Random(30)
    for net, dist, _ in searches(shift2_331, concat3, xor2):
        variables = net.all_variables()
        for _ in range(100):
            asks.append((net, dist, *({v for v in variables if rng.random() < 0.3} for _ in "tc")))
    branches = set()  # (law mode, every conditioned output with its input, determined)
    for net, dist, targets, cond in asks:
        masks = net.replica_sets(targets), net.replica_sets(cond)
        sets = reference_replica_sets(net, targets), reference_replica_sets(net, cond)
        assert masks == tuple(tuple(sum(1 << net.replicas.index(r) for r in rs) for rs in triple) for triple in sets)
        reduced = reduce_query(net, dist.mode == "product", *masks)
        expected = reference_reduce_query(net, dist, *sets)
        assert (reduced is None) == (expected is None)
        if reduced is not None:
            plan = query_plan(net, *reduced)
            shape, sources = query_shape(dist, plan), [net.replicas[i] for i in plan.positions]
            assert (shape, sources) == reference_query_shape(net, dist, *expected)
            assert plan.users == tuple(u for u, _ in sources)
        branches.add((dist.mode, sets[1][2] <= sets[1][0], reduced is None))
    assert {("product", True, True), ("product", True, False), ("product", False, False)} <= branches
    assert {("joint", True, False), ("joint", False, False)} <= branches


def test_a_replica_with_its_own_table_changes_every_shape_that_reads_it(concat3):
    # a product law that is not replicated: copy 2 of user 1 gets a table of its own
    net, replicated = extended_search(concat3, "ineq5", 1, 22)
    assert (1, 2) in net.replicas
    tables = list(replicated.tables)
    tables[net.replicas.index((1, 2))] = (0.9, 0.1)
    law = SourceDistribution("product", replicated.sizes, tables)
    reading = 0
    for level in search_levels(net, 3):
        reads = (1, 2) in level_reads(net, law, *level)
        reading += reads
        assert (level_shape(net, law, *level) != level_shape(net, replicated, *level)) == reads
    assert 0 < reading < len(search_levels(net, 3))
    values = chain_values(net, law, 3)
    assert values == [(chain, math.fsum(reference_terms(net, chain, law))) for chain, _ in values]


def test_joint_law_searches_ask_one_query_per_distinct_level(concat3, count_calls):
    # a joint-law source is named by its position in the law, so every
    # distinct level has a shape, and the 19 queries, which all read the
    # three sources, run kernels and share one enumeration of the law's atoms
    net, law = base_network(concat3), random_joint_law(concat3.input_sizes, 2)
    distinct = search_levels(net, 3)
    shapes = {level_shape(net, law, *level) for level in distinct}
    assert None not in shapes and len(shapes) == 19
    calls = count_calls(dicbound.networks, "kernel_entropy")
    unkerneled = count_calls(dicbound.networks, "query_entropy")
    atoms = count_calls(dicbound.networks, "source_atoms")
    chain_values(net, law, 3)
    assert len(calls) == len(distinct) == 19
    assert len(atoms) == 1 and unkerneled == []


def two_user_network(channel, counts):
    """A two-user network of the given replica counts, every receiver wired
    to copy 1 of the other user."""
    replicas = replicas_from_counts(counts)
    return NetworkGraph(channel, counts, tuple((r, ((3 - r[0], 1),)) for r in replicas))


def test_one_memo_keeps_joint_laws_and_networks_apart(concat3, xor2):
    # a joint-law shape names the law object and each source's position and
    # user: a memo shared across two laws of equal sizes, or across networks
    # whose replicas differ at a position, gives what a fresh memo gives
    base = base_network(concat3)
    laws = [random_joint_law(concat3.input_sizes, seed) for seed in (0, 1)]
    asks = [(base, dist, level) for dist in laws for level in search_levels(base, 2)]
    law = random_joint_law((2, 2, 2), 3)
    for counts in ((2, 1), (1, 2)):
        net = two_user_network(xor2, counts)
        asks += [(net, law, level) for level in search_levels(net, 2)]
    memo, seen = ShapeMemo(), {}
    for net, dist, (targets, cond) in asks:
        got = memo_entropy(net, dist, level_plan(net, dist, targets, cond), memo)
        assert got == cond_entropy_network(net, dist, targets, cond)
        seen.setdefault((net.counts, targets, cond), set()).add(got)
    # the two concat3 laws disagree on some level, so a shared key would show
    assert any(len(values) > 1 for values in seen.values())


def _evaluate(xor2, law):
    recipe = builtin_recipe("4a", 2)
    return evaluate_chain(build_extended(xor2, recipe.recipe), recipe_chain(recipe), law)


def _values(xor2, law):
    return chain_values(build_extended(xor2, builtin_recipe("4a", 2).recipe), law, 2)


def _identity(xor2, law):
    return verify_chain_identity("4a", xor2, law, k_range=[1, 2, 3])


NOT_FIT = r"law over alphabet sizes \[2, 2\] does not fit the sources X1, X1\^2, X2 with sizes \[2, 2, 2\]"


@pytest.mark.parametrize(
    "evaluate, law, message",
    [
        (_evaluate, SourceDistribution.uniform([2, 2]), NOT_FIT),  # two tables for three sources
        (_values, SourceDistribution.uniform([2, 2]), NOT_FIT),
        # the replicated law is built for the network's sizes and refuses the tables
        (_identity, SourceDistribution.uniform([3, 3]), "table length 3 does not match alphabet size 2"),
    ],
    ids=["evaluate_chain", "chain_values", "verify_chain_identity"],
)
def test_a_law_that_does_not_fit_is_refused_before_any_shape(xor2, count_calls, evaluate, law, message):
    # a shape reads the law's tables, so the law is checked first, with the
    # parent's message, whatever the shape memo already holds
    shapes = count_calls(dicbound.networks, "query_shape")
    with pytest.raises(DistributionError, match=f"^{message}$"):
        evaluate(xor2, law)
    assert shapes == []


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
    for doc in HAND_CHAINS + (recipe_chain(recipe).canonical(),):
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


def test_an_empty_chain_is_refused(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text("[]")
    assert main(["gcs", "--channel", "xor2", "--chain", str(path)]) == 1
    assert capsys.readouterr().out == "invalid chain:\n  chain must contain at least one subset\n"
