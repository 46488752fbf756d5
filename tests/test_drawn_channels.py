"""The chain path against itself and against the template path on drawn
recoverable channels.

A strategy draws two- and three-user channels with alphabets of 2 or 3
symbols, a random g, and for each user and own input an f injective in the
interference tuple, so every channel it draws is recoverable, and a seeded
product law on it.  On each, every supported bound id at its two least sizes
must satisfy the chain identity, its limit bound must equal its template
bound, every replica's rate must equal its user's base rate exactly, and an
equal channel object, which builds its own networks and compiles its own
plans, must give the same floats.  Each id's recipe chain at its least size
must also be met by the chain search, at its identity value, wherever that
search has at most 400 walks.  And under Dirichlet laws, point masses and
tables with zero entries, every query of every recipe chain and replica
rate must have, through its kernel, the value that the memo-free
enumerating engine gives, bit for bit; so must the joint-law queries of
those chains, of the base network's short chains and of every replica
rate, under sparse joint laws with missing tuples and dense Dirichlet
joint laws.  Every base term H(Y_u | V_A), for each user u and each subset
A of users, must equal the network query on the base network, bit for bit,
under the drawn law, the uniform law and a point mass.  A second strategy
draws channels that are not recoverable, and every bound entry must refuse
them.  The examples are derandomized and their number fixed, so the tests
draw the same channels on every run, and each test notes its channel as
the JSON that ``--channel FILE`` reads, so a failure prints a file that
``dicbound validate`` and the other commands load as the drawn channel.
"""

import contextlib
import io
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from dicbound.channels import DeterministicChannel, channel_to_dict, validate_channel
from dicbound.cli import _resolve_channel, main
from dicbound.entropy import SourceDistribution, base_terms
from dicbound.extend import (
    _rate_plans,
    _recipe_plans,
    _recipe_walk,
    bound_support_info,
    build_extended,
    builtin_recipe,
    limit_bound,
    supported_bounds,
    verify_chain_identity,
    verify_replica_rates,
)
from dicbound.errors import RecipeError
from dicbound.gcs import _chain_walks, chain_plans, min_chain_bound
from dicbound.networks import (
    ShapeMemo,
    base_network,
    compile_query,
    memo_entropy,
    query_entropy,
    replicate_distribution,
)
from dicbound.regions import bound_vector
from dicbound.sampling import sample_product_distribution

from first_principles import check_recipe_search

LIMIT_TOL = 1e-9


@st.composite
def recoverable_channels(draw):
    """A channel of 2 or 3 users with alphabets of 2 or 3 symbols: g drawn
    freely, and for each own input a row of f of distinct outputs, one per
    interference tuple, drawn from one more symbol than there are tuples."""
    users = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(2, 3), min_size=users, max_size=users))
    g = [draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)) for size in sizes]
    v_sizes = [max(table) + 1 for table in g]
    f = []
    for u, size in enumerate(sizes):
        tuples = math.prod(v for j, v in enumerate(v_sizes) if j != u)
        row = st.lists(st.integers(0, tuples), min_size=tuples, max_size=tuples, unique=True)
        f.append(tuple(y for _ in range(size) for y in draw(row)))
    return DeterministicChannel(users, tuple(sizes), tuple(map(tuple, g)), tuple(f))


@st.composite
def non_recoverable_channels(draw):
    """A channel drawn as ``recoverable_channels`` draws one, except that one
    user's f row at one own input gives two interference tuples the same
    output; another user's g takes two values, so that user sees at least
    two tuples."""
    users = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(2, 3), min_size=users, max_size=users))
    g = [draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)) for size in sizes]
    bad = draw(st.integers(0, users - 1))
    own = draw(st.integers(0, sizes[bad] - 1))
    g[(bad + 1) % users][:2] = [0, 1]
    v_sizes = [max(table) + 1 for table in g]
    f = []
    for u, size in enumerate(sizes):
        tuples = math.prod(v for j, v in enumerate(v_sizes) if j != u)
        rows = [draw(st.lists(st.integers(0, tuples), min_size=tuples, max_size=tuples, unique=True)) for _ in range(size)]
        if u == bad:
            rows[own][1] = rows[own][0]
        f.append(tuple(y for row in rows for y in row))
    return DeterministicChannel(users, tuple(sizes), tuple(map(tuple, g)), tuple(f))


def channel_note(channel):
    """The drawn channel as the JSON document ``--channel FILE`` reads,
    noted so that a failing example prints it."""
    text = json.dumps(channel_to_dict(channel))
    note(f"channel file: {text}")
    return text


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(channel=st.one_of(recoverable_channels(), non_recoverable_channels()))
def test_a_noted_channel_reloads_from_its_file(tmp_path, channel):
    path = tmp_path / "drawn.json"
    path.write_text(channel_note(channel))
    loaded = _resolve_channel(str(path))
    assert loaded == channel and loaded.valid == channel.valid
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "--channel", str(path)])
    assert (code == 0) == channel.valid
    assert out.getvalue().startswith(f"channel {path}: {'valid' if channel.valid else 'INVALID'}")


def sizes_of(bound_id):
    """The two least sizes of a parametric id, or the one size of a constant one."""
    spec = bound_support_info(bound_id)
    return [spec["k_range"][0], spec["k_range"][0] + 1] if spec["parametric"] else [None]


def checked_values(channel, law):
    """Per supported id: the identity report, the limit bound and the rate
    reports at each size, each checked."""
    vector = bound_vector(channel, law)
    out = []
    for bound_id in supported_bounds(channel.user_count):
        identity = verify_chain_identity(bound_id, channel, law, sizes_of(bound_id))
        assert identity.ok, (bound_id, identity.diagnostics)
        weights, bits = limit_bound(bound_id, channel, law)
        assert abs(bits - vector[bound_id]) <= LIMIT_TOL, bound_id
        rates = [verify_replica_rates(channel, builtin_recipe(bound_id, k).recipe, law) for k in sizes_of(bound_id)]
        assert [rate.max_deviation for rate in rates] == [0.0] * len(rates), bound_id
        out.append((identity, weights, bits, rates))
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(channel=recoverable_channels(), seed=st.integers(0, 1 << 16))
def test_the_three_checks_hold_on_drawn_recoverable_channels(channel, seed):
    channel_note(channel)
    assert channel.valid
    law = sample_product_distribution(channel.input_sizes, seed, 0)
    values = checked_values(channel, law)
    assert any([check_recipe_search(channel, law, bound_id) for bound_id in supported_bounds(channel.user_count)])
    twin = DeterministicChannel(channel.user_count, channel.input_sizes, channel.g, channel.f)
    assert twin == channel and twin is not channel
    # repr spells each float exactly, so equal text is equal floats
    assert repr(checked_values(twin, law)) == repr(values)
    kept = channel.extended_networks
    assert twin.extended_networks.keys() == kept.keys()
    assert all(net is not kept[key] for key, net in twin.extended_networks.items())


@st.composite
def product_laws(draw, sizes):
    """A product law on the given alphabet sizes: a seeded Dirichlet law, a
    point mass, or tables with zero entries (each a random support of one
    symbol or more), so that the support is often smaller than the alphabet
    product."""
    kind = draw(st.sampled_from(["dirichlet", "point", "zeros"]))
    if kind == "dirichlet":
        return sample_product_distribution(sizes, draw(st.integers(0, 1 << 16)), 0)
    if kind == "point":
        return SourceDistribution.point_mass(sizes, [draw(st.integers(0, size - 1)) for size in sizes])
    tables = []
    for size in sizes:
        weights = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=size, max_size=size))
        weights = weights if any(weights) else [1.0] + weights[1:]
        tables.append([w / sum(weights) for w in weights])
    return SourceDistribution("product", sizes, tables)


DENSE_TUPLES = 1 << 8


def joint_laws(sizes, seed):
    """A sparse law on at most 60 tuples of the sources' tuple space, at
    least one tuple missing, and, on a tuple space of at most
    ``DENSE_TUPLES``, a dense Dirichlet law over all of it."""
    space, rng = math.prod(sizes), np.random.default_rng(seed)
    places = rng.choice(space, size=int(rng.integers(1, min(60, space - 1), endpoint=True)), replace=False)
    weights = rng.random(len(places)) + 0.01
    atoms = zip(zip(*np.unravel_index(places, sizes)), (weights / weights.sum()).tolist())
    laws = [SourceDistribution("joint", sizes, {tuple(map(int, key)): w for key, w in atoms})]
    if space <= DENSE_TUPLES:
        laws.append(SourceDistribution("joint", sizes, rng.dirichlet(np.ones(space)).tolist()))
    return laws


def joint_plans(net, walks):
    """The joint-law plans of the walks' levels and of every replica's
    H(Y) and H(Y | X) on the network."""
    bits = [net.mask([r]) for r in net.replicas]
    plans = [plan for walk in walks for plan in chain_plans(net, walk, False)]
    plans += [compile_query(net, False, (0, 0, bit), (x, 0, 0)) for bit in bits for x in (0, bit)]
    return [plan for plan in plans if plan is not None]


def base_term_plans(base):
    """Per key (u, A), for every user u and every subset A of users, the
    product-law plan of H(Y_u | V_A) on the base network."""
    users = range(1, base.channel.user_count + 1)
    subsets = [frozenset(given) for size in range(len(users) + 1) for given in combinations(users, size)]
    return {
        (u, given): compile_query(base, True, (0, 0, base.mask([(u, 1)])), (0, base.mask([(w, 1) for w in given]), 0))
        for u in users
        for given in subsets
    }


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), channel=recoverable_channels(), seed=st.integers(0, 1 << 16))
def test_kernels_give_the_enumerating_values_bit_for_bit(data, channel, seed):
    channel_note(channel)
    law = data.draw(product_laws(channel.input_sizes))
    base = base_network(channel)
    queries = [(base, law, plan) for plans in _rate_plans(base) for plan in plans]
    nets = [(base, _chain_walks(base, 2))]
    for bound_id in supported_bounds(channel.user_count):
        recipe = builtin_recipe(bound_id, sizes_of(bound_id)[0])
        net = build_extended(channel, recipe.recipe)
        rdist = replicate_distribution(net, law)
        plans = _recipe_plans(net, recipe) + tuple(plan for pair in _rate_plans(net) for plan in pair)
        queries += [(net, rdist, plan) for plan in plans if plan is not None]
        nets.append((net, [_recipe_walk(net, recipe)]))
    memo = ShapeMemo()  # one memo, so the masses of a table tuple are shared
    for net, dist, plan in queries:
        assert memo_entropy(net, dist, plan, memo) == query_entropy(net, dist, plan)
    # every query ran a kernel: the memo holds a mass vector for each
    assert channel.kernels.kernels and memo.masses
    # under joint laws, on the base network and each id's least network; a
    # dense law runs first and compiles kernels, and the sparse law, which
    # lists too few atoms to compile most of its own, gathers at those kept
    for net, walks in nets:
        plans = joint_plans(net, walks)
        for dist in reversed(joint_laws(net.source_sizes(), seed)):
            memo = ShapeMemo()
            for plan in plans:
                assert memo_entropy(net, dist, plan, memo) == query_entropy(net, dist, plan)
            assert memo.masses and all(places is not None for places, _, _ in memo.masses.values())
    # each base term is the network query on the base network, bit for bit
    sizes = channel.input_sizes
    point = SourceDistribution.point_mass(sizes, data.draw(st.tuples(*[st.integers(0, size - 1) for size in sizes])))
    terms = base_term_plans(base)
    for dist in (law, SourceDistribution.uniform(sizes), point):
        values = {key: memo_entropy(base, dist, plan, ShapeMemo()) for key, plan in terms.items()}
        assert base_terms(channel, dist, terms) == values


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(channel=non_recoverable_channels(), seed=st.integers(0, 1 << 16))
def test_every_entry_refuses_a_drawn_non_recoverable_channel(channel, seed):
    channel_note(channel)
    assert not validate_channel(channel).valid
    law = sample_product_distribution(channel.input_sizes, seed, 0)
    bound_id = supported_bounds(channel.user_count)[0]
    recipe = builtin_recipe(bound_id, sizes_of(bound_id)[0]).recipe
    entries = [
        lambda: bound_vector(channel, law),
        lambda: limit_bound(bound_id, channel, law),
        lambda: verify_chain_identity(bound_id, channel, law, sizes_of(bound_id)),
        lambda: verify_replica_rates(channel, recipe, law),
        lambda: min_chain_bound(base_network(channel), law, 2),
    ]
    for entry in entries:
        with pytest.raises(RecipeError, match="interference recoverability"):
            entry()
