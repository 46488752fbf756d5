"""The numpy entropy kernel against the per-atom engine it replaced.

The reference below is that engine, kept as a test oracle: a generator of
(x, p) atoms, a per-atom evaluator closure and a dict merge.  What a
conditioning set determines comes from the fixed-point closure of
``first_principles``, not from the library's one pass.  The kernel must
give the same floats, compared with ``==``: the atom masses are built in the
same order, ``bincount`` merges them in atom order like the dict did, and the
entropy is the same ``math.fsum`` over ``math.log2`` terms.
"""

import math
import os
import random
import subprocess
import sys
from itertools import product
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

import dicbound
from dicbound import networks
from dicbound.channels import DeterministicChannel, builtin_channel
from dicbound.entropy import DENSE_KEYS, SourceDistribution, VariableId, Y, entropy, induce_joint, row_entropy
from dicbound.errors import BudgetExceededError, ChannelFormatError
from dicbound.extend import build_extended, builtin_recipe, supported_bounds
from dicbound.networks import (
    NetworkGraph,
    base_network,
    cond_entropy_network,
    network_entropy,
    replicas_from_counts,
)
from dicbound.sampling import sample_product_distribution

from first_principles import fixed_point_closure, interferers_of, reads, reference_split_entropy

# -- the per-atom reference engine ----------------------------------------------


def reference_atoms(network, dist, sources):
    idx = [network.replicas.index(r) for r in sources]
    if dist.mode == "product":
        supports = [[(s, p) for s, p in enumerate(dist.tables[i]) if p > 0.0] for i in idx]
        for combo in product(*supports):
            yield tuple(s for s, _ in combo), math.prod(p for _, p in combo)
    else:
        yield from dist.marginal_joint(idx).items()


def reference_evaluator(network, variables, sources):
    channel, pos = network.channel, {r: i for i, r in enumerate(sources)}
    v_slots = {}

    def v_index(r):
        return len(sources) + v_slots.setdefault(r, len(v_slots))

    steps = []
    for var in variables:
        r = (var.user, var.copy)
        if var.kind == "Y":
            wired = tuple((v_index(w), channel.v_sizes[w[0] - 1]) for w in interferers_of(network, r))
            steps.append((pos[r], channel.f[var.user - 1], wired))
        else:
            steps.append((pos[r] if var.kind == "X" else v_index(r), None, ()))
    g_steps = [(channel.g[u - 1], pos[(u, c)]) for u, c in v_slots]

    def evaluate(x):
        values = list(x)
        values.extend([g[x[i]] for g, i in g_steps])
        out = []
        for i, f, wired in steps:
            if f is None:
                out.append(values[i])
                continue
            idx = values[i]
            for j, radix in wired:
                idx = idx * radix + values[j]
            out.append(f[idx])
        return tuple(out)

    return evaluate


def reference_merged_entropy(rows):
    merged = {}
    for key, p in rows:
        merged[key] = merged.get(key, 0.0) + p
    return -math.fsum(p * math.log2(p) for p in merged.values() if p > 0.0)


def reference_rows(network, dist, variables):
    sources = sorted(set().union(*(reads(network, v.kind, (v.user, v.copy)) for v in variables)))
    evaluate = reference_evaluator(network, variables, sources)
    return [(evaluate(x), p) for x, p in reference_atoms(network, dist, sources)]


def reference_cond_entropy(network, dist, targets, cond=()):
    targets, cond = set(targets), set(cond)
    self_conditioned = all(VariableId("X", v.user, v.copy) in cond for v in cond if v.kind == "Y")
    if dist.mode == "product" and self_conditioned:
        known = fixed_point_closure(network, cond)
        live = sorted(targets - known)
        if not live:
            return 0.0
        cond_x = {(v.user, v.copy) for v in cond if v.kind == "X"}
        gen_v = sorted(v for v in known if v.kind == "V" and (v.user, v.copy) not in cond_x)
        deps = set()
        for v in live + gen_v:
            deps.update(reads(network, v.kind, (v.user, v.copy)))
        keys = sorted(VariableId("X", u, c) for (u, c) in deps & cond_x) + gen_v
    else:
        live, keys = sorted(targets - cond), sorted(cond)
    rows = reference_rows(network, dist, keys + live)
    if not keys:  # H(live | nothing) is H(live): H(nothing) = 0
        return reference_merged_entropy(rows)
    return reference_merged_entropy(rows) - reference_merged_entropy((v[: len(keys)], p) for v, p in rows)


def reference_entropy(network, rows, subset):
    """H(subset) from the rows of the full joint, keyed by ``itemgetter``."""
    variables = network.all_variables()
    idx = [variables.index(v) for v in sorted(set(subset))]
    if not idx:
        return 0.0
    key = itemgetter(*idx)
    return reference_merged_entropy((key(values), p) for values, p in rows)


# -- laws and queries --------------------------------------------------------------

MAX_ATOMS = 256  # keeps the per-atom reference fast on the larger recipes


def random_product_law(sizes, rng):
    """Random masses on a random support per source, at most MAX_ATOMS atoms
    in all; a source may get a single symbol."""
    tables, atoms = [], 1
    for size in sizes:
        width = rng.randint(1, max(1, min(size, MAX_ATOMS // atoms)))
        atoms *= width
        support = rng.sample(range(size), width)
        weights = [rng.random() + 0.01 for _ in support]
        table = [0.0] * size
        for s, w in zip(support, weights):
            table[s] = w / sum(weights)
        tables.append(table)
    return SourceDistribution("product", sizes, tables)


def random_joint_law(sizes, rng):
    atoms = {tuple(rng.randrange(s) for s in sizes): rng.random() + 0.01 for _ in range(rng.randint(1, 60))}
    total = sum(atoms.values())
    return SourceDistribution("joint", sizes, {x: w / total for x, w in atoms.items()})


def subsets(variables, rng, count):
    """Every subset of a short variable list, else ``count`` random ones."""
    if len(variables) <= 9:
        return [[v for i, v in enumerate(variables) if mask >> i & 1] for mask in range(1 << len(variables))]
    return [rng.sample(variables, rng.randint(0, len(variables))) for _ in range(count)]


def assert_kernel_matches_reference(network, dist, rng, count=25):
    variables = list(network.all_variables())
    table = induce_joint(network, dist)
    rows = reference_rows(network, dist, variables)
    assert table.atoms == tuple(rows)
    for subset in subsets(variables, rng, count):
        want = reference_entropy(network, rows, subset)
        assert entropy(table, subset) == want, subset
        if subset:
            assert network_entropy(network, dist, subset) == reference_cond_entropy(network, dist, subset)
    for _ in range(count):
        targets = rng.sample(variables, rng.randint(1, len(variables)))
        cond = rng.sample(variables, rng.randint(0, len(variables)))
        if rng.random() < 0.5:  # pair every conditioned output with its input
            cond += [VariableId("X", v.user, v.copy) for v in cond if v.kind == "Y"]
        got = cond_entropy_network(network, dist, targets, cond)
        assert got == reference_cond_entropy(network, dist, targets, cond), (targets, cond)


CHANNELS = {"xor2": ("xor2", None), "shift2:3,3,1": ("shift2", [3, 3, 1]), "concat3": ("concat3", None)}
# every 2-user recipe; for concat3, the 3-user recipes with the fewest and
# the most replicas, parametric and not
RECIPES = {2: supported_bounds(users=2), 3: ("ineq1", "ineq8", "ineq17", "ineq26")}


def networks_of(name):
    channel = builtin_channel(*CHANNELS[name])
    yield base_network(channel)
    for bound_id in RECIPES[channel.user_count]:
        seen = set()
        for k in (1, 2, 3):
            recipe = builtin_recipe(bound_id, k)
            if recipe.recipe not in seen:
                seen.add(recipe.recipe)
                yield build_extended(channel, recipe.recipe)


@pytest.mark.parametrize("name", list(CHANNELS))
@pytest.mark.parametrize("mode", ["product", "joint"])
def test_kernel_equals_the_per_atom_engine(name, mode):
    rng = random.Random(f"{name} {mode}")
    law = random_product_law if mode == "product" else random_joint_law
    for network in networks_of(name):
        dist = law(network.source_sizes(), rng)
        assert_kernel_matches_reference(network, dist, rng)


def test_row_keys_never_overflow():
    # 20 replicas on shift2:8,8,4, one or two large symbols per source: 4,096
    # atoms, but 60 columns whose radices multiply far beyond 2^63.  Inputs
    # 240 and 255 make every X and most Y radices 256, so a key that wrapped
    # around would drop the first replicas' inputs and merge their atoms.
    channel = builtin_channel("shift2", [8, 8, 4])
    replicas = replicas_from_counts([10, 10])
    wiring = tuple(((u, c), ((3 - u, c % 10 + 1),)) for u, c in replicas)
    network = NetworkGraph(channel, (10, 10), wiring)
    supports = [{240: 0.25, 255: 0.75} if i < 12 else {255: 1.0} for i in range(len(replicas))]
    tables = [[masses.get(s, 0.0) for s in range(256)] for masses in supports]
    dist = SourceDistribution("product", network.source_sizes(), tables)
    variables = network.all_variables()
    table = induce_joint(network, dist)
    assert math.prod(int(column.max()) + 1 for column in table.values.T) > 1 << 63
    rows = reference_rows(network, dist, variables)
    assert entropy(table, variables) == reference_entropy(network, rows, variables)
    assert network_entropy(network, dist, variables) == reference_cond_entropy(network, dist, variables)
    ys = [v for v in variables if v.kind == "Y"]
    assert cond_entropy_network(network, dist, variables, ys) == reference_cond_entropy(network, dist, variables, ys)


def kernel_arrays(rng):
    """(name, values, probs) for the one-pass kernel: int64 arrays of up to 6
    columns, some atoms of mass 0, and three symbols per column: 0..2, three
    values of at least 2^31 (numbered in order), or 0, 1 and 2^21 - 1, whose
    radix products pass 2^62 from 3 columns on, so a key that wrapped
    around would merge atoms; and two-column arrays whose sparse keys end
    just within and just past ``DENSE_KEYS``, with too few atoms for the
    4-per-atom rule."""
    side = math.isqrt(DENSE_KEYS)
    out = []
    for name in ("small", "huge", "past 2^62", "within the cap", "past the cap"):
        for _ in range(20):
            n, width = int(rng.integers(1, 200)), int(rng.integers(0, 7))
            if name.endswith("the cap"):
                values = rng.integers(0, side, (n, 2))
                values[0] = (side if name == "past the cap" else side - 1, side - 1)
            else:
                values = rng.integers(0, 3, (n, width))
                values[0] = 2  # every column holds its top symbol
                if name == "huge":
                    values = values * (1 << 60) + (1 << 31)
                elif name == "past 2^62":
                    values[values == 2] = (1 << 21) - 1
            probs = rng.random(n) * (rng.random(n) < 0.9)
            out.append((name, values.astype(np.int64), probs / (probs.sum() or 1.0)))
    return out


def test_the_one_pass_kernel_equals_two_reference_passes():
    # bit for bit: H(keys, live) - H(keys) from one key build is the
    # difference of two separate passes, for every key count 0..width
    bounds, widths = {}, set()
    for name, values, probs in kernel_arrays(np.random.default_rng(30)):
        width = values.shape[1]
        widths.add(width)
        bounds.setdefault(name, set()).add(math.prod(int(c.max()) + 1 for c in values.T))
        assert len(probs) * 4 < DENSE_KEYS
        for keys in range(width + 1):
            assert row_entropy(values, probs, keys) == reference_split_entropy(values, probs, keys), (name, keys)
        assert row_entropy(values, probs) == reference_split_entropy(values, probs)
        assert row_entropy(values, probs, width) == 0.0
    assert bounds["within the cap"] == {DENSE_KEYS} and min(bounds["past the cap"]) > DENSE_KEYS
    assert max(bounds["past 2^62"]) >= 1 << 62 and 0 in widths


def test_an_unconditioned_query_subtracts_nothing(concat3):
    # H(nothing) = 0, so H(Y1) asked on the network is the joint table's H(Y1)
    # bit for bit, not H(Y1) - (-s log2 s) for a mass sum s a rounding off 1
    network = base_network(concat3)
    for i in range(200):
        law = sample_product_distribution((2, 2, 2), 7, i)
        assert network_entropy(network, law, [Y(1)]) == entropy(induce_joint(concat3, law), [Y(1)]), i


def test_huge_symbols_fit_and_larger_ones_are_refused():
    # output symbols near 2^63 are numbered in order before keying; a symbol
    # an int64 cannot hold is a format error, not an overflow
    big = (1 << 63) - 1
    channel = DeterministicChannel(2, (2, 2), ((0, 1), (0, 1)), ((0, big, big - 1, 3), (0, 1, big, 2)))
    network = base_network(channel)
    rng = random.Random(63)
    for law in (random_product_law, random_joint_law):
        assert_kernel_matches_reference(network, law(network.source_sizes(), rng), rng)
    with pytest.raises(ChannelFormatError, match="0..2\\^63-1"):
        DeterministicChannel(2, (2, 2), ((0, 1), (0, 1)), ((0, big + 1, 2, 3), (0, 1, 2, 3)))


def test_budget_is_enforced_before_any_atom_array(monkeypatch, shift2_331):
    class Allocated(Exception):
        pass

    def allocate(*args, **kwargs):
        raise Allocated

    network = base_network(shift2_331)
    sizes = network.source_sizes()
    laws = (SourceDistribution.uniform(sizes), SourceDistribution("joint", sizes, [1 / 64] * 64))
    monkeypatch.setattr(networks, "MAX_ATOMS", 63)
    for name in ("empty", "array", "fromiter"):
        monkeypatch.setattr(networks.np, name, allocate)
    for dist in laws:
        with pytest.raises(BudgetExceededError):
            network_entropy(network, dist, network.all_variables())


def test_the_engine_path_loads_no_scipy():
    script = """
import sys
from dicbound import (
    SourceDistribution, appendix_targets, bound_vector, builtin_channel, prove, verify_chain_identity,
)
channel = builtin_channel("xor2")
dist = SourceDistribution.uniform(channel.input_sizes)
bound_vector(channel, dist)
assert verify_chain_identity("4a", channel, dist, k_range=[1, 2]).ok
print(sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
assert prove(appendix_targets("4c")[0]).status == "Provable"
print(sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(dicbound.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split("\n")[:2] == ["[]", "['scipy.optimize', 'scipy.sparse']"]
