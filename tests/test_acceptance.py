"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
report.  Tolerances are fixed here, not calibrated.
"""

import subprocess
import sys
import time
from itertools import product as iproduct

import pytest

from dicbound.channels import DeterministicChannel, builtin_channel, validate_channel
from dicbound.entropy import (
    SourceDistribution,
    V,
    X,
    Y,
    conditional_entropy,
    entropy,
    induce_joint,
)
from dicbound.extend import (
    bound_support_info,
    builtin_recipe,
    limit_bound,
    supported_bounds,
    verify_chain_identity,
    verify_replica_rates,
)
from dicbound.gcs import CutChain, enumerate_chains, evaluate_chain, validate_chain
from dicbound.networks import base_network
from dicbound.prover import appendix_targets, dic_constraints, evaluate_expr, expr_from_names, prove, ProverProblem, verify_certificate
from dicbound.regions import bound_vector, load_templates
from dicbound.sampling import sample_product_distribution

from first_principles import oracle_bound_term

EXACT = 1e-12
NUMERIC = 1e-9


def report(line):
    print(f"\nPASS {line}")


def test_criterion_1_channel_validity():
    start = time.time()
    for name, params in [("xor2", None), ("shift2", [2, 2, 1]), ("shift2", [3, 3, 2]), ("concat3", None)]:
        assert validate_channel(builtin_channel(name, params)).valid
    constant_f = DeterministicChannel(
        user_count=2,
        input_sizes=(2, 2),
        g=((0, 1), (0, 1)),
        f=((0, 0, 1, 1), tuple((x ^ v) for x in range(2) for v in range(2))),
    )
    bad = validate_channel(constant_f)
    assert not bad.valid and len(bad.violations) > 0
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(f"criterion 1: builtin channels valid, constant-map counterexample rejected ({elapsed:.2f}s)")


def test_criterion_2_interference_entropy_identity():
    start = time.time()
    channels = [
        builtin_channel("xor2"),
        builtin_channel("shift2", [2, 2, 1]),
        builtin_channel("shift2", [3, 3, 2]),
        builtin_channel("concat3"),
    ]
    checked = 0
    worst = 0.0
    for channel in channels:
        for i in range(100):
            dist = sample_product_distribution(channel.input_sizes, 2024, i)
            table = induce_joint(channel, dist)
            for u in range(channel.user_count):
                interferers = [V(j + 1) for j in channel.interferers(u)]
                gap = abs(
                    conditional_entropy(table, [Y(u + 1)], [X(u + 1)])
                    - entropy(table, interferers)
                )
                worst = max(worst, gap)
                assert gap <= EXACT
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        f"criterion 2: H(output|own input) = interference entropy on {checked} cases, "
        f"worst gap {worst:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_3_rate_bound_vectors_vs_oracle():
    xor2 = builtin_channel("xor2")
    vector = bound_vector(xor2, SourceDistribution.uniform([2, 2]))
    assert vector.values() == pytest.approx((1, 1, 1, 1, 2, 2, 2), abs=NUMERIC)
    uniform2 = [[0.5, 0.5]] * 2
    for template in load_templates(2):
        want = sum(
            t.mult * oracle_bound_term(xor2, uniform2, t.y_user, t.given)
            for t in template.terms
        )
        assert abs(vector[template.id] - want) <= NUMERIC
    concat3 = builtin_channel("concat3")
    vector3 = bound_vector(concat3, SourceDistribution.uniform([2, 2, 2]))
    assert abs(vector3["ineq1"] - 1.0) <= NUMERIC
    assert abs(vector3["ineq8"] - 3.0) <= NUMERIC
    uniform3 = [[0.5, 0.5]] * 3
    for template in load_templates(3):
        want = sum(
            t.mult * oracle_bound_term(concat3, uniform3, t.y_user, t.given)
            for t in template.terms
        )
        assert abs(vector3[template.id] - want) <= NUMERIC
    report("criterion 3: bound vectors match the first-principles enumeration oracle")


def test_criterion_4_two_step_chains_and_enumeration():
    fig_a = CutChain.of([{"S1", "S2", "D1"}, {"S1"}])
    fig_b = CutChain.of([{"S1", "S2", "D2"}, {"S2"}])
    channels = [
        builtin_channel("xor2"),
        builtin_channel("shift2", [2, 2, 1]),
        builtin_channel("shift2", [3, 3, 2]),
    ]
    for channel in channels:
        net = base_network(channel)
        templates = load_templates(2)
        for i in range(100):
            dist = sample_product_distribution(channel.input_sizes, 404, i)
            table = induce_joint(channel, dist)
            vector = bound_vector(channel, dist, templates)
            value_a = evaluate_chain(net, fig_a, dist).total
            direct_a = entropy(table, [Y(2)]) + conditional_entropy(table, [Y(1)], [X(2), Y(2)])
            assert abs(value_a - direct_a) <= EXACT
            assert value_a <= vector["4c"] + NUMERIC
            value_b = evaluate_chain(net, fig_b, dist).total
            direct_b = entropy(table, [Y(1)]) + conditional_entropy(table, [Y(2)], [X(1), Y(1)])
            assert abs(value_b - direct_b) <= EXACT
            assert value_b <= vector["4d"] + NUMERIC
    net = base_network(builtin_channel("xor2"))
    chains = enumerate_chains(net, 2)
    assert len(chains) == 5
    # brute-force subset-sequence oracle
    nodes = sorted(net.nodes())
    subsets = [
        frozenset(n for i, n in enumerate(nodes) if mask >> i & 1)
        for mask in range(1 << len(nodes))
    ]
    oracle = set()
    for length in (1, 2):
        for seq in iproduct(subsets, repeat=length):
            if not validate_chain(net, CutChain(tuple(seq))):
                oracle.add(CutChain(tuple(seq)).canonical())
    assert {c.canonical() for c in chains} == oracle
    report("criterion 4: two-step chain identities and dominance on 300 sampled laws; "
           "enumeration matches the brute-force oracle (5 chains)")


def test_criterion_5_extended_identities_and_limits():
    start = time.time()
    bounds = ["4a", "4b", "4e", "4f", "4g"]
    channels = [(builtin_channel("xor2"), [2, 2]), (builtin_channel("shift2", [3, 3, 1]), [8, 8])]
    checked = 0
    for channel, sizes in channels:
        for i in range(50):
            dist = sample_product_distribution(sizes, 505, i)
            vector = bound_vector(channel, dist)
            for bound_id in bounds:
                rep = verify_chain_identity(bound_id, channel, dist, k_range=[1, 2, 3, 4, 5])
                assert rep.ok, (bound_id, i, rep.diagnostics)
                weights, bits = limit_bound(bound_id, channel, dist)
                assert abs(bits - vector[bound_id]) <= NUMERIC
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(
        f"criterion 5: chain == closed form for k in 1..5 and limit == rate bound "
        f"on {checked} (bound, law) pairs ({elapsed:.1f}s)"
    )


def test_criterion_6_replica_rates():
    xor2 = builtin_channel("xor2")
    concat3 = builtin_channel("concat3")
    worst = 0.0
    for bound_id in supported_bounds():
        spec = bound_support_info(bound_id)
        channel = xor2 if spec["users"] == 2 else concat3
        dists = [SourceDistribution.uniform(channel.input_sizes)] + [
            sample_product_distribution(channel.input_sizes, 606, i) for i in range(2)
        ]
        ks = [2, 6] if spec["parametric"] else [None]
        for k in ks:
            recipe = builtin_recipe(bound_id, k)
            for dist in dists:
                rep = verify_replica_rates(channel, recipe.recipe, dist)
                worst = max(worst, rep.max_deviation)
                assert rep.max_deviation <= EXACT, (bound_id, k)
    report(f"criterion 6: per-replica I(X;Y) equals the base value for every recipe, "
           f"worst deviation {worst:.2e}")


def test_criterion_7_prover():
    start = time.time()
    proved = 0
    for bound_id in ["4a", "4b", "4c", "4d", "4e", "4f", "4g", "ineq1", "ineq8", "ineq9"]:
        for problem in appendix_targets(bound_id):
            assert len(problem.variables) <= 10
            result = prove(problem)
            assert result.provable, problem.name
            assert verify_certificate(problem, result.certificate)
            proved += 1
    variables, constraints = dic_constraints(2, [1, 1], {(1, 1): ((2, 1),), (2, 1): ((1, 1),)})
    target = expr_from_names(variables, {"Y1 V2": 1, "V2": -1, "Y1": -1})
    problem = ProverProblem(variables=variables, constraints=constraints, target=target)
    result = prove(problem)
    assert result.status == "NotProvable"
    net = base_network(builtin_channel("shift2", [2, 2, 1]))
    counterexample = None
    for i in range(60):
        dist = sample_product_distribution([4, 4], 707, i)
        value = evaluate_expr(target, variables, net, dist)
        if value < -1e-6:
            counterexample = (i, value)
            break
    assert counterexample is not None
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(
        f"criterion 7: {proved} residue targets Provable with exact certificates; "
        f"reverse conditioning NotProvable with numeric counterexample "
        f"(sample {counterexample[0]}, value {counterexample[1]:.3f}) ({elapsed:.1f}s)"
    )


def test_criterion_8_three_user_identities_and_support():
    start = time.time()
    concat3 = builtin_channel("concat3")
    supported = supported_bounds(3)
    assert len(supported) >= 20
    for bound_id in supported:
        for i in range(2):
            dist = sample_product_distribution([2, 2, 2], 808, i)
            rep = verify_chain_identity(bound_id, concat3, dist, k_range=[1, 2, 3])
            assert rep.ok, (bound_id, i, rep.diagnostics)
    # reconstruction provenance is recorded for every shipped recipe
    flagged = [b for b in supported if bound_support_info(b)["reconstructed"]]
    elapsed = time.time() - start
    report(
        f"criterion 8: chain identity holds for all {len(supported)}/28 three-user bounds "
        f"({len(flagged)} carry re-derived replica indexing) ({elapsed:.1f}s)"
    )


def test_criterion_9_compare_determinism():
    cmd = [
        sys.executable, "-m", "dicbound.cli", "compare",
        "--channel", "shift2:2,2,1", "--samples", "6", "--seed", "31",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert first == second and first
    report("criterion 9: compare runs are byte-identical for a fixed seed")
