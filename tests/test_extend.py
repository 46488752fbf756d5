import dataclasses
import re
import sys

import pytest

from dicbound.channels import builtin_channel
from dicbound.entropy import SourceDistribution, X, Y, base_terms, conditional_entropy, induce_joint, row_entropy
from dicbound.errors import BudgetExceededError, DicboundError, DistributionError, RecipeError, UnsupportedBoundError
from dicbound.extend import (
    ReplicationRecipe,
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
from dicbound.networks import base_network, evaluate_columns, replicate_distribution, source_atoms
from dicbound.regions import bound_vector, load_templates
from dicbound.sampling import sample_product_distribution

from first_principles import affine_term_multiplicities, reads

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
    # the identity check evaluates recipe chains without re-validating them,
    # so every chain it can meet is validated here, at every supported k
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        channels = (xor2, shift2_331) if spec["users"] == 2 else (concat3,)
        ks = range(spec["k_range"][0], spec["k_range"][1] + 1) if spec["parametric"] else [None]
        for k in ks:
            recipe = builtin_recipe(bound_id, k)
            for channel in channels:
                net = build_extended(channel, recipe.recipe)
                assert validate_chain(net, recipe.chain) == [], (bound_id, k, channel)


def test_a_recipe_declares_a_k_range_exactly_when_parametric():
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        assert ("k_range" in spec) == spec["parametric"], bound_id


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


def replica_rate_alone(network, dist, replica):
    """I(X;Y) = H(X) + H(Y) - H(X,Y) at one replica, from one enumeration of
    its own, with no memo: the sources its output reads, enumerated by
    position, and its X and Y as columns over those positions."""
    y_reads = reads(network, "Y", replica)
    sources = sorted(y_reads)
    label = {r: i for i, r in enumerate(sources)}
    xs, p = source_atoms(dist, [network.replicas.index(r) for r in sources])
    columns = [("X", (label[replica],)), ("Y", tuple(label[r] for r in y_reads))]
    values = evaluate_columns(network.channel, [u for u, _ in sources], xs, columns, {})
    return row_entropy(values[:, :1], p) + row_entropy(values[:, 1:], p) - row_entropy(values, p)


def test_replica_rates_all_recipes_k6(xor2, concat3):
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        channel = xor2 if spec["users"] == 2 else concat3
        dist = UNIFORM2 if spec["users"] == 2 else UNIFORM3
        k = 6 if spec["parametric"] else None
        recipe = builtin_recipe(bound_id, k).recipe
        report = verify_replica_rates(channel, recipe, dist)
        assert report.max_deviation <= 1e-12, bound_id
        # every memoized value against its replica enumerated alone
        net = build_extended(channel, recipe)
        rdist = replicate_distribution(net, dist)
        assert [r for r, _ in report.replica_values] == list(net.replicas)
        for replica, value in report.replica_values:
            assert abs(value - replica_rate_alone(net, rdist, replica)) <= 1e-12, (bound_id, replica)


def test_a_replica_under_another_table_deviates(concat3, monkeypatch):
    # the memo keys on the law's tables: a replica whose input law is not its
    # user's is asked on its own and shows up in the deviation
    import dicbound.extend

    def skewed(network, dist):
        law = replicate_distribution(network, dist)
        tables = list(law.tables)
        tables[network.replicas.index((1, 2))] = (0.9, 0.1)
        return SourceDistribution("product", law.sizes, tables)

    monkeypatch.setattr(dicbound.extend, "replicate_distribution", skewed)
    report = verify_replica_rates(concat3, builtin_recipe("ineq5", 1).recipe, UNIFORM3)
    assert report.max_deviation > 0
    assert dict(report.replica_values)[(1, 2)] < report.base_values[0]


def test_replica_rates_enumerate_once_per_query_shape(shift2_221, count_calls):
    # I(X;Y) = H(Y) - H(Y | X): every replica's two queries have its user's
    # base shapes, so only the base network's queries reach the engine; each
    # reads every user's source under the base tables, one table tuple, so
    # the memo enumerates once
    from dicbound import networks

    atoms = count_calls(networks, "source_atoms")
    recipe = builtin_recipe("4e", 3).recipe
    dist = sample_product_distribution([4, 4], 12, 0)
    report = verify_replica_rates(shift2_221, recipe, dist)
    assert len(atoms) == 1
    assert report.max_deviation == 0.0
    table = induce_joint(shift2_221, dist)
    for user, value in enumerate(report.base_values, start=1):
        want = conditional_entropy(table, [Y(user)], []) - conditional_entropy(table, [Y(user)], [X(user)])
        assert value == pytest.approx(want, abs=1e-12)


def test_a_replicated_law_checks_each_base_table_once(concat3, count_calls):
    # the base law converted and checked each of its tables once; the
    # replicated law reuses them and converts none again
    net = build_extended(concat3, builtin_recipe("ineq26", 6).recipe)
    law = sample_product_distribution(concat3.input_sizes, 5, 0)
    calls = count_calls(sys.modules["dicbound.entropy"], "_probabilities")
    rdist = replicate_distribution(net, law)
    assert len(net.replicas) == 39 and len(calls) == 0
    assert rdist.tables == tuple(law.tables[u - 1] for u, _ in net.replicas)


@pytest.mark.parametrize("sizes, length", [([3, 3], 3), ([2, 3], 3), ([1, 2], 1)])
def test_a_base_law_of_the_wrong_sizes_is_refused(xor2, sizes, length):
    # the right user count, the wrong alphabet sizes: the replicated law
    # refuses the first table that does not fit, as a fresh check of every
    # replica's table would, before any query
    law = SourceDistribution.uniform(sizes)
    net = build_extended(xor2, builtin_recipe("4a", 2).recipe)
    message = f"^table length {length} does not match alphabet size 2$"
    with pytest.raises(DistributionError, match=message):
        replicate_distribution(net, law)
    with pytest.raises(DistributionError, match=message):
        verify_replica_rates(xor2, builtin_recipe("4a", 2).recipe, law)


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


def test_an_empty_size_range_is_refused(xor2):
    # a parametric identity over no size checks nothing, so it is an error,
    # not a report with ok=True and no per-k line
    with pytest.raises(DicboundError, match="^bound 4a is parametric; k_range must hold at least one size$"):
        verify_chain_identity("4a", xor2, UNIFORM2, k_range=[])


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
    templates = {t.id: t for users in (2, 3) for t in load_templates(users)}
    xor2 = builtin_channel("xor2")
    concat3 = builtin_channel("concat3")
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        channel = xor2 if spec["users"] == 2 else concat3
        dist = UNIFORM2 if spec["users"] == 2 else UNIFORM3
        weights, _ = limit_bound(bound_id, channel, dist)
        assert weights == templates[bound_id].rates, bound_id


def test_affine_multiplicities():
    mults = affine_term_multiplicities("4a")
    assert mults[(1, frozenset({2}))] == (1, -1)  # the repeated middle term
    assert mults[(2, frozenset({1, 2}))] == (0, 1)
    for bound_id in supported_bounds():
        affine_term_multiplicities(bound_id)  # must be affine for every recipe


def test_support_covers_enough_bounds():
    assert len(supported_bounds(3)) >= 20
    assert len(supported_bounds(2)) == 7


_COPY = r"[\w+-]+"
# "(V2^j, V3^1) = h1(X1^j+1, Y1^j+1)": receiver 1^{j+1} recovers the wired
# copies V2^j and V3^1 from its input and output, optionally "at every user-1
# receiver" (j over them); "V1^2 = g1(X1^2)": a wired copy is its own input's
# interference
_RECOVERY_RE = re.compile(
    rf"(?P<copies>V\d\^{_COPY}|\(V\d\^{_COPY}(?:, V\d\^{_COPY})+\)) = "
    rf"(?:h(?P<user>\d)\(X(?P=user)\^(?P<copy>{_COPY}), Y(?P=user)\^(?P=copy)\)"
    rf"(?P<every> at every user-(?P=user) receiver)?|g(?P<g_user>\d)\(X(?P=g_user)\^(?P<g_copy>{_COPY})\))"
)


def test_every_recovery_note_matches_the_wiring():
    # each note, at every k in range and j in 1..k (or over the named
    # receivers), names exactly the copies its receiver is wired from; a
    # statement with a copy outside the counts is the wrap-around of a cyclic
    # index (V3^j-1 at j = 1), which the recipe wires separately
    from dicbound.extend import _eval_expr

    statements = 0
    for bound_id in supported_bounds():
        info = bound_support_info(bound_id)
        assert isinstance(info["reconstructed"], bool), bound_id
        sizes = range(info["k_range"][0], info["k_range"][1] + 1) if info["parametric"] else [None]
        for note in info["recovery"]:
            m = _RECOVERY_RE.fullmatch(note)
            assert m, (bound_id, note)
            named = [(int(v[1]), v[3:]) for v in m["copies"].strip("()").split(", ")]
            user, copy = (int(m["user"]), m["copy"]) if m["user"] else (int(m["g_user"]), m["g_copy"])
            checked = 0
            for k in sizes:
                recipe = builtin_recipe(bound_id, k).recipe
                wiring, counts = dict(recipe.wiring), recipe.counts
                for j in range(1, (counts[user - 1] if m["every"] else k) + 1) if "j" in note else [None]:
                    rx = (user, _eval_expr(copy, k, j))
                    copies = {(u, _eval_expr(c, k, j)) for u, c in named}
                    if not all(1 <= c <= counts[u - 1] for u, c in copies | {rx}):
                        continue
                    if m["user"]:
                        assert copies == set(wiring[rx]), (bound_id, note, k, j, wiring[rx])
                    else:
                        assert copies == {rx} and any(rx in wired for wired in wiring.values()), (bound_id, note, k)
                    checked += 1
            assert checked, (bound_id, note)
            statements += checked
    assert statements == 1087


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
    # forms outside a constant and a·v±b, which no bundled recipe uses
    for expr in ("k+j", "2 j", "+3"):
        with pytest.raises(RecipeError, match="cannot parse"):
            _eval_expr(expr, k=1, j=1)


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


def test_identity_mismatch_diagnostic(xor2, monkeypatch, capsys):
    # a recipe whose last closed term at k = 2 drops its conditioning:
    # verify_chain_identity names that level with both values, and
    # `extend --verify` prints it as a MISMATCH line and exits 1
    import dicbound.extend as ext
    from dicbound.cli import main

    real = ext.builtin_recipe

    def broken(bound_id, k=None):
        recipe = real(bound_id, k)
        if k != 2:
            return recipe
        last = dataclasses.replace(recipe.closed_terms[-1], evidence=())
        return dataclasses.replace(recipe, closed_terms=recipe.closed_terms[:-1] + (last,))

    monkeypatch.setattr(ext, "builtin_recipe", broken)
    recipe = real("4a", 2)
    level = recipe.closed_terms[-1].level
    net = build_extended(xor2, recipe.recipe)
    chain_term = evaluate_chain(net, recipe.chain, replicate_distribution(net, UNIFORM2)).terms[level - 1]
    closed_term = base_terms(xor2, UNIFORM2, [(2, frozenset())])[(2, frozenset())]
    assert abs(chain_term - closed_term) > 1e-9
    diagnostic = f"k=2: level {level} evaluates to {chain_term:.12g} but the closed form H(Y2^1) gives {closed_term:.12g}"
    report = verify_chain_identity("4a", xor2, UNIFORM2, k_range=[1, 2, 3])
    assert report.ok is False
    assert report.diagnostics == (diagnostic,)
    assert [diff > 1e-9 for _, _, _, diff in report.per_k] == [False, True, False]
    assert main(["extend", "--bound", "4a", "--channel", "xor2", "--verify"]) == 1
    assert f"MISMATCH {diagnostic}\n" in capsys.readouterr().out


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
    templates = {t.id: t for users in (2, 3) for t in load_templates(users)}
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        template = templates[bound_id]
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
        NetworkGraph(xor2, (1, 1), wiring)


def test_user_count_mismatch_names_both_counts(xor2):
    from dicbound.networks import NetworkGraph

    replicas = ((1, 1), (2, 1), (3, 1))
    wiring = tuple((r, tuple(w for w in replicas if w != r)) for r in replicas)
    with pytest.raises(RecipeError, match=r"3 users.*channel has 2"):
        NetworkGraph(xor2, (1, 1, 1), wiring)
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


def test_identity_check_does_not_revalidate_recipe_chains(xor2, count_calls):
    # recipe chains are valid by construction (chain_from_cuts), so only a
    # chain given from outside, to evaluate_chain, is validated
    validations = count_calls(sys.modules["dicbound.gcs"], "validate_chain")
    assert verify_chain_identity("4e", xor2, UNIFORM2, k_range=[1, 2, 3]).ok
    assert validations == []
    recipe = builtin_recipe("4e", 2)
    net = build_extended(xor2, recipe.recipe)
    evaluate_chain(net, recipe.chain, replicate_distribution(net, UNIFORM2))
    assert len(validations) == 1


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


def test_every_bound_entry_refuses_a_nonrecoverable_channel():
    # the direct template path refuses such a channel as the chain path does:
    # its base terms are read off the channel's one-hop network, whose check
    # refuses it; f ignores the interference, so no receiver recovers it
    from dicbound.channels import channel_from_dict

    channel = channel_from_dict(
        {"user_count": 2, "alphabet_sizes": [2, 2], "g": [[0, 1], [0, 1]], "f": [[0, 0, 1, 1], [0, 1, 1, 0]]}
    )
    entries = [
        lambda: bound_vector(channel, UNIFORM2),
        lambda: limit_bound("4e", channel, UNIFORM2),
        lambda: verify_chain_identity("4e", channel, UNIFORM2),
        lambda: verify_replica_rates(channel, builtin_recipe("4e", 2).recipe, UNIFORM2),
    ]
    for entry in entries:
        with pytest.raises(RecipeError, match="interference recoverability"):
            entry()


def test_identity_check_evaluates_each_base_term_once(xor2, count_calls, monkeypatch):
    entropy = sys.modules["dicbound.entropy"]
    tables = count_calls(entropy, "induce_joint")
    # the entropies base_terms takes, not those of the chain queries
    subsets, real = [], entropy.row_entropy
    monkeypatch.setattr(entropy, "row_entropy", lambda *args: subsets.append(args) or real(*args))
    ks = range(1, 7)
    assert verify_chain_identity("4a", xor2, UNIFORM2, k_range=ks).ok
    distinct = set().union(*(builtin_recipe("4a", k).term_counts() for k in ks))
    # H(Y_u | V_A) = H(V_A, Y_u) - H(V_A), one entropy per distinct column subset
    assert (len(tables), len(subsets)) == (1, len(distinct) + len({given for _, given in distinct}))


def test_closed_form_builds_one_table_and_reads_each_term_once(xor2, count_calls):
    recipe = builtin_recipe("4a", 6)
    assert len(recipe.closed_terms) > len(recipe.term_counts())  # repeated terms
    entropy = sys.modules["dicbound.entropy"]
    tables = count_calls(entropy, "induce_joint")
    subsets = count_calls(entropy, "row_entropy")
    chain_closed_form(recipe, base_terms(xor2, UNIFORM2, recipe.term_counts()))
    distinct = recipe.term_counts()
    assert (len(tables), len(subsets)) == (1, len(distinct) + len({given for _, given in distinct}))


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
