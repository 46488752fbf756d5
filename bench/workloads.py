"""The four benchmark workloads: inputs made from a seed, operations, checks.

Each workload is a sequence of rounds.  A round has a fixed composition (how
many operations of each kind) and the seed picks the inputs and the order,
so every run measures the same mix and two seeds differ only in the data.
An operation is one library call sequence timed as a unit; its check runs
after the timed loop and never inside an operation's timer.

Library functions are always looked up on their module at call time
(``regions.bound_vector(...)``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable

import oracle

channels = importlib.import_module("dicbound.channels")
entropy = importlib.import_module("dicbound.entropy")
extend = importlib.import_module("dicbound.extend")
gcs = importlib.import_module("dicbound.gcs")
networks = importlib.import_module("dicbound.networks")
prover = importlib.import_module("dicbound.prover")
regions = importlib.import_module("dicbound.regions")

TOL = 1e-9
WORKLOADS = ("regions", "chains", "prove", "refute")


@dataclass(frozen=True)
class Op:
    label: str  # the operation's kind; latency is also summarized per label
    call: Callable[[], object]
    check: Callable[[object], str | None]  # failure message, or None when correct


class Workload:
    """A named, seeded sequence of rounds of operations."""

    def __init__(self, name: str, seed: int, make_round: Callable[[random.Random, int], list]):
        self.name = name
        self.seed = seed
        self._make_round = make_round

    def round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        ops = self._make_round(rng, index)
        rng.shuffle(ops)
        return ops


def build(name: str, seed: int) -> Workload:
    builders = {
        "regions": _regions,
        "chains": _chains,
        "prove": _prove,
        "refute": _refute,
    }
    return Workload(name, seed, builders[name](seed))


# -- inputs ----------------------------------------------------------------------


def _channel(ref: str):
    family, _, params = ref.partition(":")
    return channels.builtin_channel(family, [int(p) for p in params.split(",")] if params else None)


def _dirichlet(rng: random.Random, size: int) -> list[float]:
    draws = [rng.expovariate(1.0) for _ in range(size)]
    total = sum(draws)
    return [d / total for d in draws]


def _product_law(rng: random.Random, channel):
    tables = [_dirichlet(rng, s) for s in channel.input_sizes]
    return tables, entropy.SourceDistribution("product", channel.input_sizes, tables)


def _joint_law(rng: random.Random, channel):
    """A correlated law: flat Dirichlet weights over the whole source tuple space."""
    keys = list(product(*(range(s) for s in channel.input_sizes)))
    probs = dict(zip(keys, _dirichlet(rng, len(keys))))
    return probs, entropy.SourceDistribution("joint", channel.input_sizes, probs)


def _cycle(rng: random.Random, pool: list, count: int, index: int) -> list:
    """``count`` members for round ``index``, walking a seeded permutation of
    the pool so that successive rounds cover it before repeating."""
    order = list(range(len(pool)))
    rng.shuffle(order)
    return [pool[order[(index * count + i) % len(order)]] for i in range(count)]


# -- regions ---------------------------------------------------------------------

# (channel, operations per round).  One operation is one `compare` row group:
# bound_vector plus limit_bound for every bound id, under a fresh law.  The
# counts put the median inside the shift2:4 group and p90 inside the shift2:6
# group, so neither percentile sits on the edge between two alphabet sizes.
REGIONS_ROUND = (
    ("xor2", 2),
    ("shift2:3,3,1", 1),
    ("shift2:4,4,2", 2),
    ("concat3", 1),
    ("shift2:5,5,2", 1),
    ("shift2:6,6,3", 2),
)
# small enough for the first-principles oracle to recompute every bound
ORACLE_CHANNELS = ("xor2", "shift2:3,3,1", "concat3")


def _regions(seed: int):
    setups = []
    for ref, count in REGIONS_ROUND:
        channel = _channel(ref)
        rows = oracle.template_rows(channel.user_count)
        ids = extend.supported_bounds(channel.user_count)
        setups.append((ref, count, channel, ids, rows))

    def make_round(rng, index):
        ops = []
        for ref, count, channel, ids, rows in setups:
            for _ in range(count):
                tables, law = _product_law(rng, channel)
                ops.append(Op(ref, _regions_call(channel, ids, law), _regions_check(ref, channel, ids, rows, tables)))
        return ops

    return make_round


def _regions_call(channel, ids, law):
    def call():
        vector = regions.bound_vector(channel, law)
        return vector, [extend.limit_bound(b, channel, law) for b in ids]

    return call


def _regions_check(ref, channel, ids, rows, tables):
    def check(result):
        vector, limits = result
        for bound_id, (weights, bits) in zip(ids, limits):
            if abs(vector[bound_id] - bits) > TOL:
                return f"{bound_id}: direct bound {vector[bound_id]!r} != chain limit {bits!r}"
            if tuple(weights) != tuple(rows[bound_id]["rates"]):
                return f"{bound_id}: chain limit weights {weights} != template rates"
        if ref in ORACLE_CHANNELS:
            for bound_id, value in oracle.bound_values(channel, tables).items():
                if abs(vector[bound_id] - value) > TOL:
                    return f"{bound_id}: bound_vector {vector[bound_id]!r} != oracle {value!r}"
        return None

    return check


# -- chains ----------------------------------------------------------------------

# Identity sweeps: every bound id of the channel's user count, full k range.
IDENTITY_CHANNELS = ("shift2:5,5,2", "concat3")
# Exhaustive min_chain_bound searches on small extended networks:
# (channel, bound id, k, max chain length).
EXTENDED_SEARCHES = (("shift2:3,3,1", "4a", 3, 2), ("concat3", "ineq5", 1, 3))
# Searches on the base network under a correlated joint-mode law, which takes
# the general (non-product) entropy path: (channel, max chain length).
JOINT_SEARCHES = (("xor2", 3), ("shift2:3,3,1", 3), ("concat3", 3))


def _chains(seed: int):
    identities = []
    for ref in IDENTITY_CHANNELS:
        channel = _channel(ref)
        for bound_id in extend.supported_bounds(channel.user_count):
            spec = extend.bound_support_info(bound_id)
            lo, hi = spec.get("k_range", [1, 8])
            ks = list(range(lo, hi + 1)) if spec["parametric"] else [None]
            identities.append((ref, channel, bound_id, ks))
    searches = [(ref, _channel(ref), b, k, max_l) for ref, b, k, max_l in EXTENDED_SEARCHES]
    joint_searches = [(ref, _channel(ref), max_l) for ref, max_l in JOINT_SEARCHES]

    def make_round(rng, index):
        ops = []
        for ref, channel, bound_id, ks in identities:
            _, law = _product_law(rng, channel)
            ops.append(
                Op(f"identity:{ref}", _identity_call(channel, bound_id, ks, law), _identity_check(ks))
            )
        for ref, channel, bound_id, k, max_l in searches:
            tables, law = _product_law(rng, channel)
            ops.append(
                Op(
                    f"search:{bound_id}",
                    _extended_search_call(channel, bound_id, k, max_l, law),
                    _search_check(channel, lambda net, t=tables: [t[u - 1] for u, _ in net.replicas]),
                )
            )
        for ref, channel, max_l in joint_searches:
            probs, law = _joint_law(rng, channel)
            ops.append(
                Op(
                    f"joint-search:{ref}",
                    _joint_search_call(channel, max_l, law),
                    _search_check(channel, lambda net, p=probs: p),
                )
            )
        return ops

    return make_round


def _identity_call(channel, bound_id, ks, law):
    def call():
        report = extend.verify_chain_identity(bound_id, channel, law, ks)
        recipe = extend.builtin_recipe(bound_id, ks[-1])
        rates = extend.verify_replica_rates(channel, recipe.recipe, law)
        return report, rates

    return call


def _identity_check(ks):
    def check(result):
        report, rates = result
        if not report.ok:
            return f"{report.bound_id}: chain identity fails: {'; '.join(report.diagnostics)}"
        if len(report.per_k) != len(ks):
            return f"{report.bound_id}: {len(report.per_k)} sizes checked, expected {len(ks)}"
        if rates.max_deviation > TOL:
            return f"{report.bound_id}: replica rates deviate by {rates.max_deviation!r}"
        return None

    return check


def _extended_search_call(channel, bound_id, k, max_l, law):
    def call():
        recipe = extend.builtin_recipe(bound_id, k)
        network = extend.build_extended(channel, recipe.recipe)
        rdist = networks.replicate_distribution(network, law)
        chain, value = gcs.min_chain_bound(network, rdist, max_l)
        return network, chain, value

    return call


def _joint_search_call(channel, max_l, law):
    def call():
        network = networks.base_network(channel)
        chain, value = gcs.min_chain_bound(network, law, max_l)
        return network, chain, value

    return call


def _search_check(channel, law_of):
    """The returned chain must be valid and worth the returned value."""

    def check(result):
        network, chain, value = result
        pairs = [(network.source_label(r), network.dest_label(r), r) for r in network.replicas]
        if not oracle.chain_is_valid(pairs, chain.subsets):
            return f"returned chain {chain.canonical()} is not a valid cut chain"
        names, joint = oracle.network_joint(
            channel, network.replicas, dict(network.wiring), law_of(network)
        )
        expected = oracle.chain_value(names, joint, pairs, chain.subsets)
        if abs(expected - value) > TOL:
            return f"chain {chain.canonical()} is worth {expected!r}, search reported {value!r}"
        return None

    return check


# -- prove -----------------------------------------------------------------------

# Residues per round by variable count; None means the whole stratum.  Every
# residue with n <= 8 runs in every round, so the median (inside the n = 7
# group) is taken over the same set whatever the seed.  The seed walks the
# n = 9 and n = 11 strata, so seeds together cover every residue; 16 of n = 9
# put p90 in the middle of the n = 9 group, whose proofs all cost about the
# same, and one n = 11 proof costs about ten n = 9 ones.
PROVE_ROUND = {5: None, 6: None, 7: None, 8: None, 9: 16, 11: 1}


def _prove(seed: int):
    strata: dict[int, list] = {n: [] for n in PROVE_ROUND}
    for bound_id in extend.supported_bounds():
        for problem in prover.appendix_targets(bound_id):
            strata[len(problem.variables)].append(problem)
    verified: dict[tuple, bool] = {}

    def check(result):
        if not result.provable:
            return f"{result.problem.name}: verdict {result.status}, expected Provable"
        key = (id(result.problem), result.certificate)
        if key not in verified:
            verified[key] = prover.verify_certificate(result.problem, result.certificate)
        if not verified[key]:
            return f"{result.problem.name}: certificate fails exact re-summation"
        return None

    def make_round(rng, index):
        ops = []
        for n, count in PROVE_ROUND.items():
            if count is None:
                chosen = strata[n]
            else:
                chosen = _cycle(random.Random(f"prove:{seed}:n{n}"), strata[n], count, index)
            ops += [Op(f"n{n}", _prove_call(problem), check) for problem in chosen]
        return ops

    return make_round


def _prove_call(problem):
    return lambda: prover.prove(problem)


# -- refute ----------------------------------------------------------------------

# Each false claim carries a witness: a small joint distribution on which the
# target is negative (and every constraint holds), evaluated by the oracle, so
# a Provable verdict is caught without trusting the prover.
#
# The claim set is the same for every seed, which only orders it: the exact
# simplex's cost varies up to sevenfold between claims that differ only by a
# relabeling of the variables, so seeded picks would let the mix, not the
# code, set the metrics.  Every round holds every negated elemental
# -I(Zi;Zj|K) at n = 4 and n = 5, one per conditioning size at n = 6, and
# three negated mutual informations under the 2-user structural constraints.
WITNESS_BIT = (0.7, 0.3)
LIGHT_SIZES = (4, 5)
HEAVY_ELEMENTALS = tuple((0, 1, tuple(range(2, 2 + r))) for r in range(5))
DIC_PAIRS = (("X1", "Y1"), ("X2", "Y1"), ("Y1", "Y2"))
DIC_WITNESS_LAW = ((0.7, 0.3), (0.8, 0.2))  # xor2 inputs; every pair above has I > 0


def negated_elemental(n: int, i: int, j: int, k: tuple[int, ...]):
    """-I(Zi;Zj|K) as a problem over Z1..Zn with no constraints, plus a
    witness where Zi = Zj is a biased bit and every other Z is constant."""
    names = tuple(f"Z{t + 1}" for t in range(n))
    k_mask = sum(1 << t for t in k)
    expr: dict[int, Fraction] = {}
    for mask, sign in (((1 << i) | k_mask, -1), ((1 << j) | k_mask, -1), ((1 << i) | (1 << j) | k_mask, 1), (k_mask, 1)):
        if mask:
            expr[mask] = expr.get(mask, Fraction(0)) + sign
    cond = "|" + ",".join(names[t] for t in k) if k else ""
    problem = prover.ProverProblem(
        variables=names,
        constraints=(),
        target={m: c for m, c in expr.items() if c},
        name=f"-I({names[i]};{names[j]}{cond})",
    )
    witness = {tuple(b if t in (i, j) else 0 for t in range(n)): p for b, p in enumerate(WITNESS_BIT)}
    return problem, (names, witness)


def negated_mutual_information(variables, constraints, a: str, b: str):
    index = {v: t for t, v in enumerate(variables)}
    ma, mb = 1 << index[a], 1 << index[b]
    target = {ma: Fraction(-1), mb: Fraction(-1), ma | mb: Fraction(1)}
    return prover.ProverProblem(
        variables=variables, constraints=constraints, target=target, name=f"-I({a};{b}) under DIC constraints"
    )


def _refute(seed: int):
    claims = []
    for n in LIGHT_SIZES:
        for i, j in combinations(range(n), 2):
            others = [t for t in range(n) if t not in (i, j)]
            for r in range(len(others) + 1):
                claims += [(f"n{n}", *negated_elemental(n, i, j, k)) for k in combinations(others, r)]
    claims += [("n6", *negated_elemental(6, i, j, k)) for i, j, k in HEAVY_ELEMENTALS]
    replicas, wiring = oracle.base_wiring(2)
    variables, constraints = prover.dic_constraints(2, [1, 1], wiring)
    witness = oracle.network_joint(_channel("xor2"), replicas, wiring, DIC_WITNESS_LAW)
    claims += [("n6-dic", negated_mutual_information(variables, constraints, a, b), witness) for a, b in DIC_PAIRS]
    checked: dict[int, str | None] = {}

    def check_for(problem, witness):
        def check(result):
            if result.status != "NotProvable":
                return f"{problem.name}: verdict {result.status} for a claim its witness refutes"
            if id(problem) not in checked:
                checked[id(problem)] = _witness_failure(problem, witness)
            return checked[id(problem)]

        return check

    ops = [Op(label, _prove_call(problem), check_for(problem, witness)) for label, problem, witness in claims]
    return lambda rng, index: list(ops)


def _witness_failure(problem, witness) -> str | None:
    names, joint = witness
    if tuple(names) != problem.variables:
        return f"{problem.name}: witness variables do not match the problem"
    for label, expr in problem.constraints:
        value = oracle.expr_value(joint, expr)
        if abs(value) > TOL:
            return f"{problem.name}: witness violates constraint {label} ({value!r})"
    value = oracle.expr_value(joint, problem.target)
    if not value < -TOL:
        return f"{problem.name}: witness evaluates the target to {value!r}, not below zero"
    return None
