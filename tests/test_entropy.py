import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicbound.channels import builtin_channel
from dicbound.entropy import (
    SourceDistribution,
    V,
    VariableId,
    X,
    Y,
    conditional_entropy,
    entropy,
    induce_joint,
    mutual_information,
)
from dicbound.errors import BudgetExceededError, DicboundError, DistributionError
from dicbound.extend import build_extended, builtin_recipe
from dicbound.gcs import evaluate_chain
from dicbound import networks
from dicbound.networks import base_network, cond_entropy_network, network_entropy
from dicbound.sampling import sample_product_distribution

from first_principles import (
    fixed_point_closure,
    oracle_cond_entropy,
    oracle_joint,
    oracle_network_atoms,
    oracle_network_cond_entropy,
    oracle_product_law,
    recipe_chain,
)


def keys(variables):
    return [(v.kind, v.user, v.copy) for v in variables]


def test_point_mass_single_atom(xor2):
    dist = SourceDistribution.point_mass([2, 2], (1, 0))
    table = induce_joint(xor2, dist)
    assert len(table.atoms) == 1
    for subset in ([X(1)], [Y(1), Y(2)], [X(1), V(2), Y(1)]):
        assert entropy(table, subset) == 0.0


def test_uniform_product_atoms_and_marginals(xor2):
    table = induce_joint(xor2, SourceDistribution.uniform([2, 2]))
    assert len(table.atoms) == 4
    assert all(abs(p - 0.25) < 1e-15 for _, p in table.atoms)
    assert entropy(table, []) == 0.0
    assert abs(entropy(table, [Y(1)]) - 1.0) < 1e-12
    assert abs(entropy(table, [X(1), X(2)]) - 2.0) < 1e-12


def test_half_deterministic_product(xor2):
    dist = SourceDistribution("product", [2, 2], [[1.0, 0.0], [0.5, 0.5]])
    table = induce_joint(xor2, dist)
    assert len(table.atoms) == 2
    assert all(abs(p - 0.5) < 1e-15 for _, p in table.atoms)


def test_conditional_entropy_examples(xor2):
    table = induce_joint(xor2, SourceDistribution.uniform([2, 2]))
    assert abs(conditional_entropy(table, [Y(1)], [X(1)]) - 1.0) < 1e-12
    assert abs(conditional_entropy(table, [Y(1)], [X(1)]) - entropy(table, [V(2)])) < 1e-12
    assert conditional_entropy(table, [Y(1)], [X(1), X(2)]) == pytest.approx(0.0, abs=1e-12)
    assert conditional_entropy(table, [Y(2)], []) == entropy(table, [Y(2)])


def test_mutual_information_examples(xor2):
    table = induce_joint(xor2, SourceDistribution.uniform([2, 2]))
    assert abs(mutual_information(table, [X(1)], [Y(1)])) < 1e-12
    a = [Y(1), X(2)]
    assert abs(mutual_information(table, a, a) - entropy(table, a)) < 1e-12
    point = induce_joint(xor2, SourceDistribution.point_mass([2, 2], (0, 1)))
    assert mutual_information(point, [X(1)], [Y(2)]) == pytest.approx(0.0, abs=1e-12)


def test_string_subsets_and_unknown_variable(xor2):
    table = induce_joint(xor2, SourceDistribution.uniform([2, 2]))
    assert entropy(table, ["Y1"]) == entropy(table, [Y(1)])
    with pytest.raises(DicboundError):
        entropy(table, [VariableId("Y", 3)])


def test_distribution_validation():
    with pytest.raises(DistributionError):
        SourceDistribution("product", [2], [[0.7, 0.2]])  # not normalized
    with pytest.raises(DistributionError):
        SourceDistribution("product", [2], [[1.2, -0.2]])  # negative entry
    with pytest.raises(DistributionError):
        SourceDistribution("joint", [2, 2], [0.5, 0.5, 0.25, -0.25])
    uniform_joint = SourceDistribution("joint", [2, 2], [0.25] * 4)
    assert len(uniform_joint.joint) == 4
    # joint keys must be tuples of in-range integers, probabilities numbers
    for probs in (
        {"00": 0.5, "11": 0.5},  # string keys, as a JSON object gives them
        {(0, 2): 1.0},
        {(0,): 1.0},
        {(0.0, 1.0): 1.0},
        {0: 1.0},
        {(0, 0): "1"},
        [0.25, 0.25, 0.25, None],
        0.5,
    ):
        with pytest.raises(DistributionError):
            SourceDistribution("joint", [2, 2], probs)
    for probs in ([["0.5", "0.5"], [0.5, 0.5]], [0.5, 0.5], "ab", [[float("nan"), 1.0], [0.5, 0.5]]):
        with pytest.raises(DistributionError):
            SourceDistribution("product", [2, 2], probs)


@pytest.mark.parametrize(
    "sizes, tables, order, message",
    [
        ([2, 3], ([0.5, 0.5],), (0, 0), "table length 2 does not match alphabet size 3"),
        ([2, 2], ([0.7, 0.2],), (0, 0), "probability table does not sum to 1"),
        ([2, 2], ([True, False],), (0, 0), "expected a list of probabilities"),
        # the second source fails first, although the shared table fails later
        ([2, 2, 3], ([0.5, 0.5], [1.2, -0.2]), (0, 1, 0), "negative probability entry"),
    ],
)
def test_a_shared_table_is_refused_as_its_copies_are(sizes, tables, order, message):
    # each distinct table object is converted and checked once: passing one
    # object for several sources must give the error distinct copies give
    for probs in ([tables[i] for i in order], [list(tables[i]) for i in order]):
        with pytest.raises(DistributionError, match=f"^{message}"):
            SourceDistribution("product", sizes, probs)


def test_induce_joint_dimension_mismatch(xor2):
    with pytest.raises(DistributionError):
        induce_joint(xor2, SourceDistribution.uniform([2, 2, 2]))
    with pytest.raises(DistributionError):
        induce_joint(xor2, SourceDistribution.uniform([2, 3]))


def test_atom_budget_enforced(shift2_331, monkeypatch):
    monkeypatch.setattr(networks, "MAX_ATOMS", 63)
    dist = SourceDistribution.uniform([8, 8])
    net = base_network(shift2_331)
    with pytest.raises(BudgetExceededError):
        induce_joint(shift2_331, dist)
    with pytest.raises(BudgetExceededError):
        network_entropy(net, dist, [Y(1)])  # Y1 depends on both sources: 64 atoms
    assert network_entropy(net, dist, [X(1)]) == pytest.approx(3.0, abs=1e-12)


def test_a_kept_kernel_never_answers_past_a_lowered_atom_cap(monkeypatch):
    # H(Y1) on a fresh channel object compiles its 64-atom kernel under the
    # default cap; with the cap lowered below that, the same query on the
    # same object is refused as source_atoms refuses it, and with the cap
    # back the kernel answers again
    channel = builtin_channel("shift2", [3, 3, 1])
    net, dist = base_network(channel), SourceDistribution.uniform([8, 8])
    value = network_entropy(net, dist, [Y(1)])
    assert [kernel.rows.size for kernel in channel.kernels.kernels.values()] == [64]
    monkeypatch.setattr(networks, "MAX_ATOMS", 63)
    with pytest.raises(BudgetExceededError, match="64 source atoms over 2 sources exceed the cap of 63"):
        network_entropy(net, dist, [Y(1)])
    monkeypatch.undo()
    assert network_entropy(net, dist, [Y(1)]) == value


def test_kernels_past_the_cell_cap_are_not_kept(monkeypatch):
    # with room for some kernels but not all, a fresh channel object keeps
    # those that fit, and every query, run by a kernel or not, has the value
    # the memo-free enumerating engine gives, bit for bit
    from dicbound.gcs import _chain_walks, chain_plans
    from dicbound.networks import ShapeMemo, memo_entropy, query_entropy, replicate_distribution

    monkeypatch.setattr(networks, "MAX_KERNEL_CELLS", 200)
    channel = builtin_channel("concat3")
    net = build_extended(channel, builtin_recipe("ineq5", 1).recipe)
    dist = replicate_distribution(net, sample_product_distribution(channel.input_sizes, 7, 0))
    plans = {plan for walk in _chain_walks(net, 2) for plan in chain_plans(net, walk, True)} - {None}
    for plan in plans:
        got = memo_entropy(net, dist, plan, ShapeMemo())
        assert got == query_entropy(net, dist, plan)
    shapes = {(plan.users, plan.keys, plan.columns): plan for plan in plans}
    store = channel.kernels
    assert store.kernels.keys() == {key for key, plan in shapes.items() if networks.query_kernel(channel, plan, dist)}
    assert 0 < len(store.kernels) < len(shapes)
    assert store.cells == sum(k.rows.size + (0 if k.keys is None else k.keys.size) for k in store.kernels.values())
    assert store.cells <= 200


def test_law_that_does_not_fit_the_network_is_rejected(xor2, shift2_221):
    recipe = builtin_recipe("4e", 2)
    extended = build_extended(xor2, recipe.recipe)
    with pytest.raises(DistributionError):
        evaluate_chain(extended, recipe_chain(recipe), SourceDistribution.uniform([2, 2]))
    with pytest.raises(DistributionError):
        cond_entropy_network(base_network(shift2_221), SourceDistribution.uniform([2, 2]), [Y(1)], [X(1)])
    with pytest.raises(DistributionError):
        induce_joint(extended, SourceDistribution.uniform([2, 2]))


def test_a_law_that_does_not_fit_is_refused_on_every_query(xor2):
    # the law is checked before the reduction, so also on queries that the
    # conditioning answers without the engine, and on the empty query
    net, law = base_network(xor2), SourceDistribution.uniform([3, 3, 3])
    message = "law over alphabet sizes [3, 3, 3] does not fit the sources X1, X2 with sizes [2, 2]"
    for query in (
        lambda: cond_entropy_network(net, law, [Y(1)], [X(1), X(2)]),  # Y1 is determined
        lambda: cond_entropy_network(net, law, [V(1)], [X(1)]),  # V1 is determined
        lambda: network_entropy(net, law, []),
    ):
        with pytest.raises(DistributionError, match=f"^{re.escape(message)}$"):
            query()


def test_variables_outside_the_network_are_rejected(xor2):
    net = base_network(xor2)
    dist = SourceDistribution.uniform([2, 2])
    with pytest.raises(DicboundError, match="not in this network"):
        network_entropy(net, dist, [Y(3)])
    with pytest.raises(DicboundError, match="not in this network"):
        cond_entropy_network(net, dist, [Y(1)], [X(3)])
    with pytest.raises(DicboundError, match="not in this network"):
        cond_entropy_network(net, dist, [Y(1, 2)], [X(1)])


def test_a_replica_mask_has_one_bit_per_position(shift2_221):
    net = build_extended(shift2_221, builtin_recipe("4a", 2).recipe)
    assert [net.mask([r]) for r in net.replicas] == [1 << i for i in range(len(net.replicas))]
    assert net.mask(net.replicas + net.replicas[:1]) == (1 << len(net.replicas)) - 1
    assert net.mask([]) == 0
    with pytest.raises(DicboundError, match=r"^replica \(1, 9\) is not in this network$"):
        net.mask([(1, 9)])


def test_engine_matches_first_principles_oracle(shift2_221):
    tables = sample_product_distribution([4, 4], 99, 0).tables
    dist = SourceDistribution("product", [4, 4], tables)
    table = induce_joint(shift2_221, dist)
    atoms = oracle_joint(shift2_221, tables)
    want = oracle_cond_entropy(atoms, lambda a: (a[2][0],), lambda a: (a[0][0],))
    got = conditional_entropy(table, [Y(1)], [X(1)])
    assert abs(got - want) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10**6),
    mask_a=st.integers(0, 63),
    mask_b=st.integers(0, 63),
)
def test_monotonicity_and_submodularity(seed, mask_a, mask_b):
    channel = builtin_channel("shift2", [2, 2, 1])
    dist = sample_product_distribution([4, 4], seed, 0)
    table = induce_joint(channel, dist)
    variables = list(table.variables)
    a = {variables[i] for i in range(6) if mask_a >> i & 1}
    b = {variables[i] for i in range(6) if mask_b >> i & 1}
    h_a = entropy(table, a)
    h_b = entropy(table, b)
    h_union = entropy(table, a | b)
    h_inter = entropy(table, a & b)
    assert h_union >= h_a - 1e-12
    assert h_a + h_b >= h_union + h_inter - 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), mask=st.integers(0, 63))
def test_everything_determined_by_inputs(seed, mask):
    channel = builtin_channel("xor2")
    dist = sample_product_distribution([2, 2], seed, 1)
    table = induce_joint(channel, dist)
    variables = list(table.variables)
    subset = [variables[i] for i in range(6) if mask >> i & 1]
    h = conditional_entropy(table, subset, [X(1), X(2)])
    assert h == pytest.approx(0.0, abs=1e-12)


def test_interference_entropy_identity_on_all_builtins():
    cases = [
        builtin_channel("xor2"),
        builtin_channel("shift2", [2, 2, 1]),
        builtin_channel("shift2", [3, 3, 2]),
        builtin_channel("concat3"),
    ]
    for channel in cases:
        for i in range(5):
            dist = sample_product_distribution(channel.input_sizes, 13, i)
            table = induce_joint(channel, dist)
            for u in range(channel.user_count):
                interferers = [V(j + 1) for j in channel.interferers(u)]
                lhs = conditional_entropy(table, [Y(u + 1)], [X(u + 1)])
                rhs = entropy(table, interferers)
                assert abs(lhs - rhs) < 1e-12


def test_reduced_network_evaluation_agrees_with_table(shift2_221):
    net = base_network(shift2_221)
    dist = sample_product_distribution([4, 4], 5, 2)
    table = induce_joint(shift2_221, dist)
    atoms = oracle_network_atoms(net, oracle_product_law(dist.tables))
    want = oracle_network_cond_entropy(atoms, keys([Y(1)]), keys([X(2), Y(2)]))
    assert abs(cond_entropy_network(net, dist, [Y(1)], [X(2), Y(2)]) - want) < 1e-12
    assert abs(conditional_entropy(table, [Y(1)], [X(2), Y(2)]) - want) < 1e-12
    want = oracle_network_cond_entropy(atoms, keys([Y(1), V(1)]))
    assert abs(network_entropy(net, dist, [Y(1), V(1)]) - want) < 1e-12
    assert abs(entropy(table, [Y(1), V(1)]) - want) < 1e-12


def test_joint_mode_source_distribution(xor2):
    # perfectly correlated inputs force identical interference symbols
    dist = SourceDistribution("joint", [2, 2], {(0, 0): 0.5, (1, 1): 0.5})
    table = induce_joint(xor2, dist)
    assert len(table.atoms) == 2
    assert entropy(table, [Y(1)]) == pytest.approx(0.0, abs=1e-12)
    assert entropy(table, [X(1)]) == pytest.approx(1.0, abs=1e-12)


def test_budget_env_override(shift2_221, monkeypatch):
    # the cap is read when the atoms are counted, so a patched cap takes effect
    monkeypatch.setattr(networks, "MAX_ATOMS", 8)
    with pytest.raises(BudgetExceededError, match="16 source atoms over 2 sources exceed the cap of 8"):
        induce_joint(shift2_221, SourceDistribution.uniform([4, 4]))
    monkeypatch.undo()
    assert networks.MAX_ATOMS == 1 << 22
    assert len(induce_joint(shift2_221, SourceDistribution.uniform([4, 4])).probs) == 16


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), mask_a=st.integers(0, 63), pairs=st.integers(0, 3), extra_v=st.integers(0, 3))
def test_reduced_conditional_entropy_matches_table(seed, mask_a, pairs, extra_v):
    # self-conditioned conditioning sets (every output with its own input)
    # exercise the fast path; compare it and the materialized table against
    # the first-principles oracle
    channel = builtin_channel("shift2", [2, 2, 1])
    net = base_network(channel)
    dist = sample_product_distribution([4, 4], seed, 0)
    table = induce_joint(channel, dist)
    variables = list(table.variables)
    a = {variables[i] for i in range(6) if mask_a >> i & 1}
    b = set()
    if pairs & 1:
        b |= {X(1), Y(1)}
    if pairs & 2:
        b |= {X(2), Y(2)}
    if extra_v & 1:
        b.add(V(1))
    if extra_v & 2:
        b.add(X(2))
    want = oracle_network_cond_entropy(
        oracle_network_atoms(net, oracle_product_law(dist.tables)), keys(a), keys(b)
    )
    assert abs(cond_entropy_network(net, dist, a, b) - want) < 1e-12
    assert abs(conditional_entropy(table, a, b) - want) < 1e-12


def _network_and_law(k, mode, seed):
    channel = builtin_channel("shift2", [2, 2, 1])
    net = base_network(channel) if k is None else build_extended(channel, builtin_recipe("4a", k).recipe)
    sizes = net.source_sizes()
    if mode == "product":
        dist = sample_product_distribution(sizes, seed, 0)
        return net, dist, oracle_product_law(dist.tables)
    rng = random.Random(seed)
    tuples = list(product(*(range(s) for s in sizes)))
    weights = {xs: rng.random() if rng.random() < 0.6 else 0.0 for xs in tuples}
    weights[rng.choice(tuples)] = 1.0  # never all zero
    total = sum(weights.values())
    law = {xs: w / total for xs, w in weights.items()}
    return net, SourceDistribution("joint", sizes, law), law


@pytest.mark.parametrize("mode", ["product", "joint"])
@pytest.mark.parametrize("k", [None, 2])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), mask_a=st.integers(1, 511), mask_b=st.integers(0, 511), fast=st.booleans())
def test_engine_matches_first_principles_on_networks(k, mode, seed, mask_a, mask_b, fast):
    # the base network and a replicated one (4a at k = 2), product and joint
    # laws; under a product law ``fast`` pairs every conditioned output with
    # its input (the fast path), otherwise Y1 is conditioned without X1 (the
    # general path); joint laws always take the general path
    net, dist, law = _network_and_law(k, mode, seed)
    variables = net.all_variables()
    a = {v for i, v in enumerate(variables) if mask_a >> i & 1}
    b = {v for i, v in enumerate(variables) if mask_b >> i & 1}
    if fast:
        b |= {X(v.user, v.copy) for v in b if v.kind == "Y"}
    else:
        b = (b | {Y(1)}) - {X(1)}
    atoms = oracle_network_atoms(net, law)
    want = oracle_network_cond_entropy(atoms, keys(a), keys(b))
    assert abs(cond_entropy_network(net, dist, a, b) - want) < 1e-12
    assert abs(conditional_entropy(induce_joint(net, dist), a, b) - want) < 1e-12
    assert abs(network_entropy(net, dist, a) - oracle_network_cond_entropy(atoms, keys(a))) < 1e-12


def test_network_entropy_is_the_query_with_nothing_conditioned(shift2_221):
    # bit for bit, also when H of the empty key is not exactly 0: a product
    # table off 1 in the last bits, and a joint law
    net = base_network(shift2_221)
    off_one = SourceDistribution("product", [4, 4], [[0.1, 0.2, 0.3, 0.4 + 1e-12], [0.25] * 4])
    _, joint_law, _ = _network_and_law(None, "joint", 8)
    variables = net.all_variables()
    for dist in (off_one, joint_law):
        for mask in range(1, 1 << len(variables)):
            subset = [v for i, v in enumerate(variables) if mask >> i & 1]
            assert network_entropy(net, dist, subset) == cond_entropy_network(net, dist, subset)


def test_a_query_with_nothing_live_has_no_plan(shift2_221):
    # under the general reduction, targets inside the conditioning, or no
    # targets, leave nothing live: no plan, and the value 0.0, under a joint
    # law as under a product law, without a kernel of no columns
    net = base_network(shift2_221)
    _, joint_law, _ = _network_and_law(None, "joint", 8)
    for dist in (joint_law, SourceDistribution.uniform([4, 4])):
        product = dist.mode == "product"
        for targets, cond in (([], []), ([Y(1)], [Y(1)]), ([X(2), Y(1)], [X(2), Y(1), V(2)])):
            assert networks.compile_query(net, product, net.replica_sets(targets), net.replica_sets(cond)) is None
            assert cond_entropy_network(net, dist, targets, cond) == 0.0


def test_one_source_enumeration_per_query(count_calls):
    # a query compiles its kernel once per channel object, under a joint law
    # or a product law (Y1 conditioned without X1), and every later law only
    # runs it; a joint law's atoms are enumerated once, for the masses the
    # kernel reads, and a product law enumerates nothing.  A joint law that
    # lists fewer atoms than the query's 16 source tuples compiles no kernel
    # and enumerates its atoms instead.  The channel is a fresh object: a
    # session fixture keeps the kernels that earlier tests compiled on it
    net = base_network(builtin_channel("shift2", [2, 2, 1]))
    calls = [count_calls(networks, name) for name in ("source_atoms", "compile_kernel", "kernel_entropy")]
    _, joint_law, _ = _network_and_law(None, "joint", 3)
    sparse_law = SourceDistribution("joint", [4, 4], {(0, 1): 0.25, (3, 2): 0.75})
    product_laws = [sample_product_distribution([4, 4], seed, 0) for seed in (3, 4)]
    asks = [(sparse_law, [X(1), Y(1)], [1, 0, 0]), (joint_law, [X(1), Y(1)], [1, 1, 1])]
    asks += [(law, [Y(1), V(2)], [0, compiles, 1]) for law, compiles in zip(product_laws, (1, 0))]
    for dist, cond, counts in asks:
        for c in calls:
            c.clear()
        cond_entropy_network(net, dist, [X(2), Y(2)], cond)
        assert [len(c) for c in calls] == counts


def test_one_pass_closure_is_the_fixed_point(shift2_221, concat3):
    nets = [
        base_network(shift2_221),
        build_extended(shift2_221, builtin_recipe("4a", 2).recipe),
        build_extended(concat3, builtin_recipe("ineq5", 1).recipe),
    ]
    rng = random.Random(5)
    for net in nets:
        variables = net.all_variables()
        for _ in range(300):
            # V's and Y's are often conditioned without their X
            share = rng.choice((0.15, 0.35, 0.6))
            cond = {v for v in variables if rng.random() < share}
            # the closure works on bitmasks over replica positions
            known = networks._closure(net, *net.replica_sets(cond))
            one_pass = {
                VariableId(kind, *r) for kind, mask in zip("XVY", known) for i, r in enumerate(net.replicas) if mask >> i & 1
            }
            assert one_pass == fixed_point_closure(net, cond)
