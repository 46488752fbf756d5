import math
import sys
from itertools import permutations

import pytest

from dicbound.entropy import SourceDistribution
from dicbound.errors import BudgetExceededError, DicboundError, DistributionError
from dicbound.regions import (
    MAX_SAMPLES,
    bound_vector,
    contains,
    load_templates,
    permute_templates,
    region_polytope,
    render_region_svg,
    sample_region,
)
from dicbound.sampling import sample_product_distribution

from first_principles import oracle_bound_term


def test_template_inventory():
    two = load_templates(2)
    three = load_templates(3)
    assert [t.id for t in two] == ["4a", "4b", "4c", "4d", "4e", "4f", "4g"]
    assert [t.id for t in three] == [f"ineq{i}" for i in range(1, 29)]
    assert all(all(c >= 0 for c in t.rates) for t in two + three)


def test_xor2_uniform_vector_against_oracle(xor2):
    vector = bound_vector(xor2, SourceDistribution.uniform([2, 2]))
    assert list(vector) == [t.id for t in load_templates(2)]
    assert tuple(vector.values()) == pytest.approx((1, 1, 1, 1, 2, 2, 2), abs=1e-9)
    # cross-check every template term against the first-principles oracle
    tables = [[0.5, 0.5], [0.5, 0.5]]
    for template in load_templates(2):
        want = sum(
            term.mult * oracle_bound_term(xor2, tables, term.y_user, term.given)
            for term in template.terms
        )
        assert abs(vector[template.id] - want) < 1e-9


def test_concat3_uniform_oracle_values(concat3):
    vector = bound_vector(concat3, SourceDistribution.uniform([2, 2, 2]))
    assert vector["ineq1"] == pytest.approx(1.0, abs=1e-9)
    assert vector["ineq8"] == pytest.approx(3.0, abs=1e-9)
    tables = [[0.5, 0.5]] * 3
    for template in load_templates(3):
        want = sum(
            term.mult * oracle_bound_term(concat3, tables, term.y_user, term.given)
            for term in template.terms
        )
        assert abs(vector[template.id] - want) < 1e-9


def test_point_mass_vector_is_zero(shift2_221):
    dist = SourceDistribution.point_mass([4, 4], (2, 3))
    vector = bound_vector(shift2_221, dist)
    assert all(abs(v) < 1e-12 for v in vector.values())


def test_joint_mode_rejected(xor2):
    dist = SourceDistribution("joint", [2, 2], [0.25] * 4)
    with pytest.raises(DistributionError):
        bound_vector(xor2, dist)


@pytest.mark.parametrize("name,distinct", [("xor2", 8), ("concat3", 20)])
def test_bound_vector_evaluates_each_base_term_once(request, count_calls, name, distinct):
    # a term H(Y_u | V_A) is H(V_A, Y_u) - H(V_A): one keyed pass per
    # distinct term
    channel = request.getfixturevalue(name)
    keys = {term.key for t in load_templates(channel.user_count) for term in t.terms}
    entropy = sys.modules["dicbound.entropy"]
    tables = count_calls(entropy, "induce_joint")
    passes = count_calls(entropy, "row_entropy")
    bound_vector(channel, SourceDistribution.uniform(channel.input_sizes))
    assert len(keys) == distinct
    assert (len(tables), len(passes)) == (1, distinct)


def test_bounds_never_exceed_output_entropy_budget(shift2_331):
    # each term is at most the log-size of the output it conditions
    budgets = {
        t.id: sum(term.mult * math.log2(shift2_331.y_sizes[term.y_user - 1]) for term in t.terms)
        for t in load_templates(2)
    }
    for i in range(10):
        dist = sample_product_distribution([8, 8], 3, i)
        for template_id, value in bound_vector(shift2_331, dist).items():
            assert -1e-12 <= value <= budgets[template_id] + 1e-9


def test_polytope_membership(xor2):
    templates = load_templates(2)
    vector = bound_vector(xor2, SourceDistribution.uniform([2, 2]))
    poly = region_polytope(vector, templates)
    assert contains(poly, (0.4, 0.4))
    assert not contains(poly, (0.7, 0.5))  # violates the sum-rate 1
    assert contains(poly, (0.0, 0.0))
    assert not contains(poly, (-0.1, 0.0))


def test_membership_tolerance_is_tight(xor2):
    # a point 1e-6 past the sum-rate halfspace is outside; 1e-10 past it is
    # within CONTAINS_TOL
    poly = region_polytope(bound_vector(xor2, SourceDistribution.uniform([2, 2])), load_templates(2))
    rhs = min(rhs for coeffs, rhs in poly.halfspaces if coeffs == (1, 1))
    assert not contains(poly, (rhs / 2, rhs / 2 + 1e-6))
    assert contains(poly, (rhs / 2, rhs / 2 + 1e-10))


def test_region_monotone_under_extra_halfspaces(xor2):
    templates = load_templates(2)
    vector = bound_vector(xor2, SourceDistribution.uniform([2, 2]))
    poly = region_polytope(vector, templates)
    from dicbound.regions import RegionPolytope

    tighter = RegionPolytope(2, poly.halfspaces + (((1, 1), 0.5),))
    for point in [(0.1, 0.1), (0.4, 0.4), (0.9, 0.05), (0.3, 0.05)]:
        if contains(tighter, point):
            assert contains(poly, point)


def test_permutations():
    templates = load_templates(2)
    swapped = permute_templates(templates, [2, 1])
    by_id = {t.id: t for t in templates}
    # relabeling the single-rate bound for user 1 yields the user-2 bound
    assert swapped[0].rates == by_id["4b"].rates
    assert swapped[0].terms == by_id["4b"].terms
    assert permute_templates(swapped, [2, 1]) == templates
    assert permute_templates(templates, [1, 2]) == templates
    with pytest.raises(DicboundError):
        permute_templates(templates, [1, 1])


def test_three_user_permutation_symmetry(concat3):
    # union over all relabelings is invariant under permuting the rate axes
    base = load_templates(3)
    dist = SourceDistribution.uniform([2, 2, 2])
    polys = []
    for perm in permutations((1, 2, 3)):
        templates = permute_templates(base, perm)
        polys.append(region_polytope(bound_vector(concat3, dist, templates), templates))

    def in_union(point):
        return any(contains(p, point) for p in polys)

    probes = [(0.3, 0.2, 0.1), (0.5, 0.1, 0.2), (0.9, 0.05, 0.02), (0.34, 0.33, 0.3)]
    for point in probes:
        value = in_union(point)
        for perm in permutations((0, 1, 2)):
            assert in_union(tuple(point[i] for i in perm)) == value


def test_sample_region_determinism_and_membership(xor2):
    fam1 = tuple(sample_region(xor2, 17, 8))
    fam2 = tuple(sample_region(xor2, 17, 8))
    assert fam1 == fam2
    # first sample is the uniform region
    only_uniform = tuple(sample_region(xor2, 17, 1))
    templates = load_templates(2)
    uniform_poly = region_polytope(
        bound_vector(xor2, SourceDistribution.uniform([2, 2])), templates
    )
    assert only_uniform == (uniform_poly,)
    assert any(contains(p, (0.4, 0.4)) for p in fam1)
    assert not any(contains(p, (2.0, 2.0)) for p in fam1)
    with pytest.raises(DicboundError):
        sample_region(xor2, 17, 0)


def test_region_samples_are_lazy_and_capped(xor2):
    # the cap is checked at the call, and the count in it draws only what is read
    assert next(sample_region(xor2, 17, MAX_SAMPLES)) == next(sample_region(xor2, 17, 1))
    with pytest.raises(BudgetExceededError, match="10001 region samples exceed the cap of 10000"):
        sample_region(xor2, 17, MAX_SAMPLES + 1)


def test_svg_rendering(xor2):
    fam = sample_region(xor2, 1, 3)
    svg = render_region_svg(fam)
    assert svg.startswith("<svg") and "polygon" in svg
    three = load_templates(3)
    from dicbound.regions import RegionPolytope

    with pytest.raises(DicboundError):
        render_region_svg([RegionPolytope(3, (((1, 0, 0), 1.0),))])


def test_polytope_invariants_enforced():
    from dicbound.regions import RegionPolytope

    with pytest.raises(DicboundError):
        RegionPolytope(2, (((1, 0), -0.5),))  # negative rhs
    with pytest.raises(DicboundError):
        RegionPolytope(2, (((1, 0), 1.0),))  # second rate unbounded
    with pytest.raises(DicboundError):
        RegionPolytope(4, (((1, 0, 0, 0), 1.0),))
    RegionPolytope(2, (((1, 0), 1.0), ((0, 1), 1.0)))


def test_nan_is_refused_as_a_point_and_as_a_bound(xor2):
    # every comparison with NaN is false, so no halfspace ever excluded it
    from dicbound.regions import RegionPolytope

    poly = region_polytope(bound_vector(xor2, SourceDistribution.uniform([2, 2])), load_templates(2))
    for point in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(DicboundError, match="^point coordinates must not be NaN$"):
            contains(poly, point)
    with pytest.raises(DicboundError, match="^halfspace right-hand sides must not be NaN$"):
        RegionPolytope(2, (((1, 0), math.nan), ((0, 1), 1.0)))


def test_an_infinite_bound_is_refused(xor2):
    # an infinite right-hand side caps no rate: the polytope held (1e300, 0.5)
    from dicbound.regions import RegionPolytope

    for rhs in (math.inf, -math.inf):
        with pytest.raises(DicboundError, match="^halfspace right-hand sides must be finite$"):
            RegionPolytope(2, (((1, 0), rhs), ((0, 1), 1.0)))
    poly = RegionPolytope(2, (((1, 0), 1.0), ((0, 1), 1.0)))
    assert not contains(poly, (1e300, 0.5))
