import sys

import pytest

from dicbound.channels import builtin_channel
from dicbound.entropy import SourceDistribution, X, Y, base_terms, conditional_entropy, induce_joint
from dicbound.errors import BudgetExceededError, DicboundError, DistributionError, RecipeError, UnsupportedBoundError
from dicbound.extend import (
    ReplicationRecipe,
    affine_term_multiplicities,
    bound_support_info,
    build_extended,
    builtin_recipe,
    chain_closed_form,
    limit_bound,
    recipe_from_dict,
    recipe_to_dict,
    supported_bounds,
    verify_chain_identity,
    verify_replica_rates,
)
from dicbound.gcs import evaluate_chain, validate_chain
from dicbound.networks import base_network, replicate_distribution
from dicbound.regions import bound_vector
from dicbound.sampling import sample_product_distribution

UNIFORM2 = SourceDistribution.uniform([2, 2])
UNIFORM3 = SourceDistribution.uniform([2, 2, 2])


def identity_recipe(users):
    wiring = []
    for u in range(1, users + 1):
        wired = tuple((j, 1) for j in range(1, users + 1) if j != u)
        wiring.append(((u, 1), wired))
    return ReplicationRecipe(counts=(1,) * users, wiring=tuple(wiring))


def test_one_copy_recipe_isomorphic_to_base(xor2):
    net = build_extended(xor2, identity_recipe(2))
    base = base_network(xor2)
    assert len(net.pairs()) == len(base.pairs())
    d = SourceDistribution.uniform([2, 2])
    t_net = induce_joint(net, d)
    t_base = induce_joint(base, d)
    assert [p for _, p in t_net.atoms] == [p for _, p in t_base.atoms]
    assert [vals for vals, _ in t_net.atoms] == [vals for vals, _ in t_base.atoms]


def test_out_of_range_wiring_rejected(xor2):
    recipe = ReplicationRecipe(
        counts=(2, 1),
        wiring=(((1, 1), ((2, 2),)), ((1, 2), ((2, 1),)), ((2, 1), ((1, 1),))),
    )
    with pytest.raises(RecipeError):
        build_extended(xor2, recipe)


def test_all_copies_interfered_by_one_sender(xor2):
    recipe = builtin_recipe("4a", 3).recipe
    assert recipe.counts == (3, 1)
    wiring = dict(recipe.wiring)
    assert all(wiring[(1, j)] == ((2, 1),) for j in (1, 2, 3))
    assert wiring[(2, 1)] == ((1, 1),)
    net = build_extended(xor2, recipe)
    assert len(net.pairs()) == 4


def test_recipe_json_round_trip():
    recipe = builtin_recipe("4e", 2).recipe
    assert recipe_from_dict(recipe_to_dict(recipe)) == recipe


def test_builtin_recipe_chain_validates_on_channels(xor2, shift2_331, concat3):
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        channel = xor2 if spec["users"] == 2 else concat3
        ks = [1, 2, 4] if spec["parametric"] else [None]
        for k in ks:
            recipe = builtin_recipe(bound_id, k)
            net = build_extended(channel, recipe.recipe)
            assert validate_chain(net, recipe.chain) == []


def test_unknown_and_out_of_range_bounds():
    with pytest.raises(UnsupportedBoundError):
        builtin_recipe("4q", 2)
    with pytest.raises(DicboundError):
        builtin_recipe("4a")  # parametric without k
    with pytest.raises(DicboundError):
        builtin_recipe("4a", 0)


def test_recipe_examples_match_stated_structure():
    r4a = builtin_recipe("4a", 3)
    assert r4a.recipe.counts == (3, 1)
    assert len(r4a.chain) == 4
    r4e = builtin_recipe("4e", 2)
    assert r4e.recipe.counts == (2, 2)
    assert len(r4e.chain) == 4
    r4f = builtin_recipe("4f")
    assert r4f.recipe.counts == (2, 1)
    assert len(r4f.chain) == 3


def _closed(channel, dist, bound_id, k=None):
    recipe = builtin_recipe(bound_id, k)
    return chain_closed_form(recipe, base_terms(channel, dist, recipe.term_counts()))


def test_closed_form_values(xor2):
    assert _closed(xor2, UNIFORM2, "4a", 3) == pytest.approx(3.0, abs=1e-12)
    assert _closed(xor2, UNIFORM2, "4f") == pytest.approx(2.0, abs=1e-12)
    point = SourceDistribution.point_mass([2, 2], (0, 0))
    assert _closed(xor2, point, "4e", 3) == pytest.approx(0.0, abs=1e-12)


def test_replica_rates_examples(xor2, shift2_221):
    report = verify_replica_rates(xor2, builtin_recipe("4a", 3).recipe, UNIFORM2)
    assert report.base_values == pytest.approx((0.0, 0.0), abs=1e-12)
    assert report.max_deviation <= 1e-12
    report2 = verify_replica_rates(xor2, identity_recipe(2), UNIFORM2)
    assert report2.max_deviation <= 1e-12
    report3 = verify_replica_rates(
        shift2_221, builtin_recipe("4e", 2).recipe, SourceDistribution.uniform([4, 4])
    )
    assert report3.max_deviation <= 1e-12


def test_replica_rates_all_recipes_k6(xor2, concat3):
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        channel = xor2 if spec["users"] == 2 else concat3
        dist = UNIFORM2 if spec["users"] == 2 else UNIFORM3
        k = 6 if spec["parametric"] else None
        report = verify_replica_rates(channel, builtin_recipe(bound_id, k).recipe, dist)
        assert report.max_deviation <= 1e-12, bound_id


def test_replica_rates_enumerate_once_per_replica_and_base_user(shift2_221, count_calls):
    # I(X;Y) = H(X) + H(Y) - H(X,Y) from one enumeration over (X, Y)
    from dicbound import networks

    atoms = count_calls(networks, "source_atoms")
    recipe = builtin_recipe("4e", 3).recipe
    dist = sample_product_distribution([4, 4], 12, 0)
    report = verify_replica_rates(shift2_221, recipe, dist)
    assert len(atoms) == len(recipe.replicas()) + shift2_221.user_count
    assert report.max_deviation == 0.0
    table = induce_joint(shift2_221, dist)
    for user, value in enumerate(report.base_values, start=1):
        want = conditional_entropy(table, [Y(user)], []) - conditional_entropy(table, [Y(user)], [X(user)])
        assert value == pytest.approx(want, abs=1e-12)


def test_identity_against_materialized_joint(shift2_221):
    # independent cross-check: evaluate chain terms on the fully materialized
    # joint table instead of the reduced path
    recipe = builtin_recipe("4e", 2)
    net = build_extended(shift2_221, recipe.recipe)
    dist = sample_product_distribution([4, 4], 31, 0)
    rdist = replicate_distribution(net, dist)
    chain = recipe.chain
    reduced = evaluate_chain(net, chain, rdist)
    table = induce_joint(net, rdist)
    full = [frozenset(net.nodes())] + list(chain.subsets)
    total = 0.0
    for j in range(1, len(full)):
        targets, cond = [], []
        for r in net.replicas:
            dst, src = net.dest_label(r), net.source_label(r)
            if dst in full[j - 1] and dst not in full[j]:
                targets.append(Y(r[0], r[1]))
            if dst not in full[j - 1]:
                cond.append(Y(r[0], r[1]))
            if src not in full[j]:
                cond.append(X(r[0], r[1]))
        total += conditional_entropy(table, targets, cond)
    assert abs(total - reduced.total) < 1e-10
    closed = chain_closed_form(recipe, base_terms(shift2_221, dist, recipe.term_counts()))
    assert abs(total - closed) < 1e-9


def test_chain_identity_two_user_sweep(xor2, shift2_331):
    for channel, sizes in ((xor2, [2, 2]), (shift2_331, [8, 8])):
        for bound_id in ("4a", "4b", "4c", "4d", "4e", "4f", "4g"):
            for i in range(6):
                dist = sample_product_distribution(sizes, 71, i)
                report = verify_chain_identity(bound_id, channel, dist, k_range=[1, 2, 3, 4, 5])
                assert report.ok, (bound_id, i, report.diagnostics)


def test_chain_identity_three_user_sweep(concat3):
    for bound_id in supported_bounds(3):
        for i in range(3):
            dist = sample_product_distribution([2, 2, 2], 73, i)
            report = verify_chain_identity(bound_id, concat3, dist, k_range=[1, 2, 3])
            assert report.ok, (bound_id, i, report.diagnostics)


def test_increment_recovers_bound_examples(xor2):
    report = verify_chain_identity("4a", xor2, UNIFORM2, k_range=[1, 2, 3, 4, 5])
    assert report.ok
    assert all(abs(inc - 1.0) < 1e-9 for inc in report.increments)  # H(Y1|V2)
    report_e = verify_chain_identity("4e", xor2, UNIFORM2, k_range=[1, 2, 3])
    assert all(abs(inc - 2.0) < 1e-9 for inc in report_e.increments)


def test_limit_bound_examples(xor2):
    assert limit_bound("4a", xor2, UNIFORM2) == ((1, 0), pytest.approx(1.0, abs=1e-9))
    assert limit_bound("4e", xor2, UNIFORM2) == ((1, 1), pytest.approx(2.0, abs=1e-9))
    assert limit_bound("4f", xor2, UNIFORM2) == ((2, 1), pytest.approx(2.0, abs=1e-9))


def test_limit_bound_matches_rate_bounds_everywhere(xor2, shift2_331, concat3):
    cases = [(xor2, [2, 2]), (shift2_331, [8, 8]), (concat3, [2, 2, 2])]
    for channel, sizes in cases:
        for i in range(4):
            dist = sample_product_distribution(sizes, 77, i)
            vector = bound_vector(channel, dist)
            for bound_id in supported_bounds(channel.user_count):
                weights, bits = limit_bound(bound_id, channel, dist)
                assert abs(bits - vector[bound_id]) < 1e-9, (bound_id, i)


def test_limit_weights_match_template_rates():
    from dicbound.regions import template_by_id

    xor2 = builtin_channel("xor2")
    concat3 = builtin_channel("concat3")
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        channel = xor2 if spec["users"] == 2 else concat3
        dist = UNIFORM2 if spec["users"] == 2 else UNIFORM3
        weights, _ = limit_bound(bound_id, channel, dist)
        assert weights == template_by_id(bound_id).rates, bound_id


def test_affine_multiplicities():
    mults = affine_term_multiplicities("4a")
    assert mults[(1, frozenset({2}))] == (1, -1)  # the repeated middle term
    assert mults[(2, frozenset({1, 2}))] == (0, 1)
    for bound_id in supported_bounds():
        affine_term_multiplicities(bound_id)  # must be affine for every recipe


def test_support_covers_enough_bounds():
    assert len(supported_bounds(3)) >= 20
    assert len(supported_bounds(2)) == 7
    # reconstruction provenance is recorded per entry
    for bound_id in supported_bounds():
        info = bound_support_info(bound_id)
        assert "reconstructed" in info and "recovery" in info


def test_index_expressions():
    from dicbound.extend import _eval_expr

    assert _eval_expr("2j+1", k=4, j=3) == 7
    assert _eval_expr("k-1", k=4) == 3
    assert _eval_expr("3", k=None) == 3
    assert _eval_expr("2k", k=5) == 10
    assert _eval_expr("j", k=1, j=1) == 1
    with pytest.raises(RecipeError):
        _eval_expr("j", k=1)  # loop variable outside a loop
    with pytest.raises(RecipeError):
        _eval_expr("q+1", k=1, j=1)


def test_peel_walk_rejects_malformed_orders():
    from dicbound.extend import derive_closed_terms

    wiring = {(1, 1): ((2, 1),), (2, 1): ((1, 1),)}
    with pytest.raises(RecipeError):
        derive_closed_terms((1, 1), wiring, [[(1, 1)], [(1, 1)]])  # peeled twice
    with pytest.raises(RecipeError):
        derive_closed_terms((1, 1), wiring, [[(1, 1)]])  # receiver 2 never peeled
    # joint level whose targets share an undetermined source cannot split
    wiring3 = {(1, 1): ((2, 1),), (1, 2): ((2, 1),), (2, 1): ((1, 1),)}
    with pytest.raises(RecipeError):
        derive_closed_terms((2, 1), wiring3, [[(1, 1), (1, 2)], [(2, 1)]])


def test_identity_mismatch_diagnostic(xor2):
    # evaluating a deliberately wrong closed form names the diverging level
    import dicbound.extend as ext

    recipe = builtin_recipe("4a", 2)
    broken = recipe.closed_terms[:-1] + (
        ext.ClosedTerm(
            level=recipe.closed_terms[-1].level,
            target=recipe.closed_terms[-1].target,
            given=frozenset(),
            evidence=(),
        ),
    )
    values = base_terms(xor2, UNIFORM2, [t.key for t in recipe.closed_terms + broken])
    good = sum(values[t.key] for t in recipe.closed_terms)
    bad = sum(values[t.key] for t in broken)
    assert bad != pytest.approx(good, abs=1e-9)


def test_reduced_evaluation_matches_materialized_joint_broadly(xor2, concat3):
    # strongest check of the conditioning reduction: on networks small enough
    # to materialize, every chain term must match the table computation
    cases = [("4a", 3), ("4b", 2), ("4e", 3), ("4f", None), ("4g", None)]
    cases += [("ineq1", 1), ("ineq5", 1), ("ineq9", None), ("ineq12", 1), ("ineq22", 1)]
    for bound_id, k in cases:
        spec = bound_support_info(bound_id)
        channel = xor2 if spec["users"] == 2 else concat3
        recipe = builtin_recipe(bound_id, k)
        net = build_extended(channel, recipe.recipe)
        dist = sample_product_distribution(channel.input_sizes, 404, 1)
        rdist = replicate_distribution(net, dist)
        chain = recipe.chain
        reduced = evaluate_chain(net, chain, rdist)
        table = induce_joint(net, rdist)
        full = [frozenset(net.nodes())] + list(chain.subsets)
        for j in range(1, len(full)):
            targets, cond = [], []
            for r in net.replicas:
                dst, src = net.dest_label(r), net.source_label(r)
                if dst in full[j - 1] and dst not in full[j]:
                    targets.append(Y(r[0], r[1]))
                if dst not in full[j - 1]:
                    cond.append(Y(r[0], r[1]))
                if src not in full[j]:
                    cond.append(X(r[0], r[1]))
            want = conditional_entropy(table, targets, cond)
            assert abs(reduced.terms[j - 1] - want) < 1e-10, (bound_id, k, j)


def test_chain_enumeration_guard_on_large_networks(shift2_331):
    from dicbound.gcs import enumerate_chains

    # 16 replicas: the chain count, not the node count, is capped
    net = build_extended(shift2_331, builtin_recipe("4e", 8).recipe)
    assert len(net.nodes()) == 32
    assert len(enumerate_chains(net, 1)) == 1
    with pytest.raises(BudgetExceededError, match="more than 10000 cut chains"):
        enumerate_chains(net, 2)  # 1 + 2**16 chains


def test_term_structure_matches_templates_symbolically():
    # the per-size increment (parametric) or the full term multiset (constant)
    # must equal the bound template term for term, not just numerically
    from dicbound.regions import template_by_id

    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        template = template_by_id(bound_id)
        want = {}
        for term in template.terms:
            key = (term.y_user, frozenset(term.given))
            want[key] = want.get(key, 0) + term.mult
        mults = affine_term_multiplicities(bound_id)
        if spec["parametric"]:
            got = {key: a for key, (a, b) in mults.items() if a}
        else:
            got = {key: b for key, (a, b) in mults.items() if b}
        assert got == want, (bound_id, got, want)


def test_frozen_closed_forms_for_fixed_size_recipes():
    # hand-frozen expectations for a selection of fixed-size peels
    expected = {
        "4f": {(1, frozenset()): 1, (2, frozenset({2})): 1, (1, frozenset({1, 2})): 1},
        "ineq8": {
            (3, frozenset()): 1,
            (2, frozenset({1, 2, 3})): 1,
            (1, frozenset({1, 2, 3})): 1,
        },
        "ineq9": {
            (1, frozenset()): 1,
            (3, frozenset({1, 2, 3})): 1,
            (2, frozenset({2, 3})): 1,
            (1, frozenset({1, 2, 3})): 1,
        },
        "ineq28": {
            (1, frozenset()): 1,
            (2, frozenset({2, 3})): 2,
            (1, frozenset({1, 2, 3})): 3,
            (3, frozenset({3})): 1,
        },
    }
    for bound_id, want in expected.items():
        assert builtin_recipe(bound_id).term_counts() == want, bound_id


def test_asymmetric_custom_channel_through_the_stack():
    # users with different alphabets and a lossy interference map
    from dicbound.channels import DeterministicChannel, validate_channel

    channel = DeterministicChannel(
        user_count=2,
        input_sizes=(4, 2),
        g=((0, 0, 1, 1), (0, 1)),                     # top bit / identity
        f=(
            tuple(x ^ v for x in range(4) for v in range(2)),   # xor into low bit
            tuple(x + 2 * v for x in range(2) for v in range(2)),  # stacked symbol
        ),
    )
    assert validate_channel(channel).valid
    for i in range(5):
        dist = sample_product_distribution([4, 2], 909, i)
        vector = bound_vector(channel, dist)
        for bound_id in supported_bounds(2):
            rep = verify_chain_identity(bound_id, channel, dist, k_range=[1, 2, 3])
            assert rep.ok, (bound_id, rep.diagnostics)
            _, bits = limit_bound(bound_id, channel, dist)
            assert abs(bits - vector[bound_id]) < 1e-9, bound_id
        rates = verify_replica_rates(channel, builtin_recipe("4e", 3).recipe, dist)
        assert rates.max_deviation <= 1e-12


def test_wiring_for_a_receiver_that_is_not_a_replica_is_rejected(xor2):
    from dicbound.networks import NetworkGraph

    wiring = (((1, 1), ((2, 1),)), ((1, 5), ((2, 1),)), ((2, 1), ((1, 1),)))
    with pytest.raises(RecipeError, match=r"\(1, 5\)"):
        build_extended(xor2, ReplicationRecipe(counts=(1, 1), wiring=wiring))
    with pytest.raises(RecipeError, match="not replicas"):
        NetworkGraph(channel=xor2, replicas=((1, 1), (2, 1)), wiring=wiring)


def test_user_count_mismatch_names_both_counts(xor2):
    from dicbound.networks import NetworkGraph

    replicas = ((1, 1), (2, 1), (3, 1))
    wiring = tuple((r, tuple(w for w in replicas if w != r)) for r in replicas)
    with pytest.raises(RecipeError, match=r"3 users.*channel has 2"):
        NetworkGraph(channel=xor2, replicas=replicas, wiring=wiring)
    with pytest.raises(RecipeError, match=r"3 users.*channel has 2"):
        build_extended(xor2, builtin_recipe("ineq5", 1).recipe)


def test_a_count_below_one_is_named_as_the_fault(xor2):
    wiring = (((1, 1), ((2, 1),)), ((2, 1), ((1, 1),)))
    for counts in ((0, 1), (-1, 1)):
        with pytest.raises(RecipeError, match="replica counts must be positive"):
            build_extended(xor2, ReplicationRecipe(counts=counts, wiring=wiring))


def test_channel_validity_checked_once_per_channel(monkeypatch):
    import dicbound.channels
    import dicbound.networks

    calls = []
    real = dicbound.channels.validate_channel

    def counting(channel):
        calls.append(channel)
        return real(channel)

    monkeypatch.setattr(dicbound.channels, "validate_channel", counting)
    monkeypatch.setattr(dicbound.networks, "validate_channel", counting, raising=False)
    channel = builtin_channel("shift2", [2, 2, 1])
    for k in range(1, 6):
        base_network(channel)
        build_extended(channel, builtin_recipe("4e", k).recipe)
    assert len(calls) == 1


def test_identity_check_validates_each_chain_once(xor2, monkeypatch):
    import dicbound.extend
    import dicbound.gcs

    calls = []
    real = dicbound.gcs.validate_chain

    def counting(network, chain):
        calls.append(chain)
        return real(network, chain)

    monkeypatch.setattr(dicbound.gcs, "validate_chain", counting)
    monkeypatch.setattr(dicbound.extend, "validate_chain", counting, raising=False)
    report = verify_chain_identity("4e", xor2, UNIFORM2, k_range=[1, 2, 3])
    assert report.ok
    assert len(calls) == 3


def test_limit_bound_builds_one_joint_table(xor2, count_calls):
    # both closed forms of a parametric bound read one table, bit-equal to two
    tables = count_calls(sys.modules["dicbound.entropy"], "induce_joint")
    weights, bits = limit_bound("4e", xor2, UNIFORM2)
    assert len(tables) == 1
    hi, lo = (_closed(xor2, UNIFORM2, "4e", k) for k in (2, 1))
    assert (weights, bits) == ((1, 1), hi - lo)


def test_every_base_term_reader_rejects_a_joint_law(xor2):
    # base terms are defined over independent inputs only, whichever reader asks
    joint = SourceDistribution("joint", [2, 2], [0.5, 0, 0, 0.5])
    readers = [
        lambda: bound_vector(xor2, joint),
        lambda: limit_bound("4e", xor2, joint),
        lambda: base_terms(xor2, joint, builtin_recipe("4e", 2).term_counts()),
        lambda: verify_chain_identity("4e", xor2, joint),
    ]
    for read in readers:
        with pytest.raises(DistributionError):
            read()


def test_identity_check_evaluates_each_base_term_once(xor2, count_calls):
    entropy = sys.modules["dicbound.entropy"]
    tables = count_calls(entropy, "induce_joint")
    terms = count_calls(entropy, "conditional_entropy")
    ks = range(1, 7)
    assert verify_chain_identity("4a", xor2, UNIFORM2, k_range=ks).ok
    distinct = set().union(*(builtin_recipe("4a", k).term_counts() for k in ks))
    assert (len(tables), len(terms)) == (1, len(distinct))


def test_closed_form_builds_one_table_and_reads_each_term_once(xor2, count_calls):
    recipe = builtin_recipe("4a", 6)
    assert len(recipe.closed_terms) > len(recipe.term_counts())  # repeated terms
    entropy = sys.modules["dicbound.entropy"]
    tables = count_calls(entropy, "induce_joint")
    terms = count_calls(entropy, "conditional_entropy")
    chain_closed_form(recipe, base_terms(xor2, UNIFORM2, recipe.term_counts()))
    assert (len(tables), len(terms)) == (1, len(recipe.term_counts()))


def test_recipes_are_built_once_per_id_and_size():
    assert builtin_recipe("4a", 3) is builtin_recipe("4a", 3)
    assert builtin_recipe("ineq5", 2) is builtin_recipe("ineq5", 2)
    assert builtin_recipe("4a", 3) is not builtin_recipe("4a", 4)
    # a constant-size recipe ignores k, so every k shares the k = None entry
    assert builtin_recipe("4f", 3) is builtin_recipe("4f")
    # errors are not cached: every call raises again
    for _ in range(2):
        with pytest.raises(UnsupportedBoundError):
            builtin_recipe("4a", 99)
        with pytest.raises(DicboundError):
            builtin_recipe("4a")
