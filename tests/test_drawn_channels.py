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
search has at most 400 walks.  The examples are derandomized and their
number fixed, so the test draws the same channels on every run.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from dicbound.channels import DeterministicChannel
from dicbound.extend import (
    bound_support_info,
    builtin_recipe,
    limit_bound,
    supported_bounds,
    verify_chain_identity,
    verify_replica_rates,
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
