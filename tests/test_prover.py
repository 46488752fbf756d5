import hashlib
import random
import re
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicbound.errors import ProverError
from dicbound import prover as prover_module
from dicbound.exactlp import Columns, separates, solve_feasibility
from dicbound.networks import base_network
from dicbound.prover import (
    ProverProblem,
    appendix_targets,
    dic_constraints,
    elemental_inequalities,
    expr_from_names,
    prove,
    verify_certificate,
)
from dicbound.sampling import sample_product_distribution
from first_principles import (
    oracle_expr_value,
    reference_check_certificate,
    reference_elemental_columns,
    reference_separates,
)

BASE2_WIRING = {(1, 1): ((2, 1),), (2, 1): ((1, 1),)}
BASE3_WIRING = {
    (1, 1): ((2, 1), (3, 1)),
    (2, 1): ((1, 1), (3, 1)),
    (3, 1): ((1, 1), (2, 1)),
}


@pytest.fixture(scope="module")
def base2():
    return dic_constraints(2, [1, 1], BASE2_WIRING)


def without_float_guidance():
    """While active, the float LP gives neither a support nor a candidate
    vector, so ``prove`` decides with the full exact simplex (path
    ``exact``).  A context manager, so that hypothesis tests can use it."""
    return mock.patch.object(prover_module, "_float_dual", lambda a_t, b: (None, None))


def prove_both_ways(problem):
    """``prove`` with float guidance, then without it."""
    guided = prove(problem)
    with without_float_guidance():
        return guided, prove(problem)


def test_exact_lp_feasibility_small():
    # x1 - x2 = 1 with x >= 0
    cols = [{0: Fraction(1)}, {0: Fraction(-1)}]
    res = solve_feasibility(cols, {0: Fraction(1)}, 1)
    assert res.feasible and res.solution == {0: Fraction(1)}
    # x1 + x2 = -1 infeasible over the nonnegative orthant
    res2 = solve_feasibility([{0: Fraction(1)}, {0: Fraction(1)}], {0: Fraction(-1)}, 1)
    assert not res2.feasible
    y = res2.farkas
    # certificate: y*A <= 0 and y*b > 0
    assert all(sum(y.get(i, 0) * c for i, c in col.items()) <= 0 for col in [{0: 1}, {0: 1}])
    assert y[0] * Fraction(-1) > 0


def test_exact_lp_rejects_a_candidate_that_violates_one_column():
    # x1 * e0 + x2 * e1 = -e0 has no solution with x >= 0
    cols = [{0: Fraction(1)}, {1: Fraction(1)}]
    rhs = {0: Fraction(-1)}
    bad = {0: Fraction(-1), 1: Fraction(1)}  # positive on the second column
    assert bad[0] * rhs[0] > 0 and not separates(bad, cols, rhs)
    res = solve_feasibility(cols, rhs, 2, candidate=bad)
    assert not res.feasible and res.farkas is not bad
    assert separates(res.farkas, cols, rhs)
    good = {0: Fraction(-1)}
    assert solve_feasibility(cols, rhs, 2, candidate=good).farkas is good


# numerators around 2^61..2^63 scale past what an int64 sum of four terms
# with signs of up to +-2 can hold, so both the int64 and the Python-integer
# block checks run
BLOCK_SIZE = 4
rationals = st.builds(
    Fraction,
    st.integers(-3, 3) | st.integers(2**61 - 4, 2**63 + 4).flatmap(lambda v: st.sampled_from((v, -v))),
    st.integers(1, 12),
)
# a block line: distinct rows among its terms, row -1 always padding (sign
# 0), and sign 0 on any other row as the elemental table pads with mask 0
block_lines = st.lists(
    st.tuples(
        st.lists(st.integers(-1, BLOCK_SIZE - 1), min_size=4, max_size=4, unique=True),
        st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    ).map(lambda line: (line[0], [s if r >= 0 else 0 for r, s in zip(*line)])),
    max_size=6,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(st.integers(0, BLOCK_SIZE - 1), rationals, max_size=BLOCK_SIZE),
    block_lines,
    st.lists(
        st.dictionaries(st.integers(0, 3), st.integers(-3, 3) | st.fractions(max_denominator=5), max_size=4),
        max_size=4,
    ),
    st.dictionaries(st.integers(0, 3), st.fractions(max_denominator=5), max_size=4),
)
# 2 * 2^62 + 2 * 2^62 wraps to 0 in int64, and so does 8 * (2^61 - 1) to -8,
# though 4 * (2^61 - 1) fits: only a guard on the sum of |sign| keeps these
# columns positive
@example({0: Fraction(2**62), 1: Fraction(2**62), 2: Fraction(1)}, [([0, 1, -1, 3], [2, 2, 0, 0])], [], {2: 1})
@example(dict.fromkeys(range(4), Fraction(2**61 - 1)), [([0, 1, 2, 3], [2, 2, 2, 2])], [], {0: 1})
def test_separates_agrees_with_rational_dot_products(y, lines, sparse, rhs):
    def dot(col):
        return sum((y.get(i, Fraction(0)) * c for i, c in col.items()), Fraction(0))

    block = [{r: s for r, s in zip(rows, signs) if s} for rows, signs in lines]
    expected = dot(rhs) > 0 and all(dot(col) <= 0 for col in block + sparse)
    rows = np.array([rows for rows, _ in lines], dtype=np.int64).reshape(-1, 4)
    signs = np.array([signs for _, signs in lines], dtype=np.int64).reshape(-1, 4)
    columns = Columns(rows, signs, BLOCK_SIZE, sparse)
    assert list(columns) == [columns[j] for j in range(len(columns))] == block + sparse
    assert separates(y, columns, rhs) == expected
    assert separates(y, block + sparse, rhs) == expected
    assert reference_separates(y, block + sparse, rhs) == expected


def test_elemental_counts():
    assert len(elemental_inequalities(1)) == 1
    assert len(elemental_inequalities(2)) == 5
    assert len(elemental_inequalities(3)) == 9
    for n in (4, 5, 6):
        assert len(elemental_inequalities(n)) == n + n * (n - 1) * 2 ** (n - 3)
    labels = [l for l, _ in elemental_inequalities(4)]
    assert len(labels) == len(set(labels))


def reference_elementals(names):
    """The elemental inequalities built one by one, in the prover's order."""
    n = len(names)
    full = (1 << n) - 1
    out = []
    for i in range(n):
        rest = full & ~(1 << i)
        expr = {full: Fraction(1)}
        if rest:
            expr[rest] = Fraction(-1)
        rest_names = ",".join(v for t, v in enumerate(names) if rest >> t & 1)
        out.append((f"H({names[i]}|{rest_names})" if rest else f"H({names[i]})", expr))
    if n == 2:
        out += [(f"H({names[i]})", {1 << i: Fraction(1)}) for i in range(n)]
    for i, j in combinations(range(n), 2):
        others = [t for t in range(n) if t not in (i, j)]
        for r in range(len(others) + 1):
            for ks in combinations(others, r):
                k = sum(1 << t for t in ks)
                expr = {}
                for mask, sign in (((1 << i) | k, 1), ((1 << j) | k, 1), ((1 << i) | (1 << j) | k, -1), (k, -1)):
                    if mask:
                        expr[mask] = expr.get(mask, Fraction(0)) + sign
                cond = "|" + ",".join(names[t] for t in ks) if ks else ""
                out.append((f"I({names[i]};{names[j]}{cond})", expr))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_elemental_table_matches_the_reference_loop(n):
    names = tuple(f"A{i}" for i in range(n))
    view = elemental_inequalities(names)
    expected = reference_elementals(names)
    assert list(view) == expected
    assert [view[t] for t in range(len(view))] == expected
    assert view[-1] == expected[-1] and view[1:3] == expected[1:3]


def test_elementals_are_self_provable():
    # every generator is trivially derivable from the cone it generates
    names = tuple(f"Z{i+1}" for i in range(4))
    for label, expr in elemental_inequalities(4):
        problem = ProverProblem(variables=names, constraints=(), target=expr, name=label)
        result = prove(problem)
        assert result.provable, label


def test_constraint_counts(base2):
    variables, constraints = base2
    assert len(variables) == 6
    assert len(constraints) == 9
    variables3, constraints3 = dic_constraints(3, [1, 1, 1], BASE3_WIRING)
    assert len(variables3) == 9
    assert len(constraints3) == 13
    labels = [l for l, _ in constraints3]
    assert any("V2,V3" in l and "X1" in l for l in labels)  # pair recoverability


def test_dic_constraints_rejects_a_zero_count():
    with pytest.raises(ProverError, match="positive count"):
        dic_constraints(2, [0, 1], BASE2_WIRING)


def test_budget_enforced():
    with pytest.raises(ProverError):
        ProverProblem(variables=tuple(f"Z{i}" for i in range(13)), constraints=(), target={1: Fraction(1)})


@pytest.mark.parametrize("coeff", [Fraction(10**400), Fraction(-1, 10**400)])
def test_coefficients_a_float_cannot_hold_rejected(coeff):
    with pytest.raises(ProverError, match="range of a float"):
        ProverProblem(variables=("A",), constraints=(), target={1: coeff})
    with pytest.raises(ProverError, match="range of a float"):
        ProverProblem(variables=("A",), constraints=(("c", {1: coeff}),), target={1: Fraction(1)})


def test_chain_step_target_provable(base2):
    variables, constraints = base2
    target = expr_from_names(
        variables, {"Y1 V1 V2": 1, "V1 V2": -1, "Y1 X2 Y2": -1, "X2 Y2": 1}
    )
    result = prove(ProverProblem(variables=variables, constraints=constraints, target=target))
    assert result.provable and result.path == "guided" and result.separating_vector is None
    assert verify_certificate(result.problem, result.certificate)


def test_reverse_conditioning_not_provable_with_counterexample(base2, shift2_221):
    variables, constraints = base2
    target = expr_from_names(variables, {"Y1 V2": 1, "V2": -1, "Y1": -1})
    problem = ProverProblem(variables=variables, constraints=constraints, target=target)
    result = prove(problem)
    assert result.status == "NotProvable"
    assert "may still hold" in result.message
    # numeric counterexample search: some sampled input law falsifies the target
    net = base_network(shift2_221)
    witnesses = []
    for i in range(40):
        dist = sample_product_distribution([4, 4], 12345, i)
        value = oracle_expr_value(problem.target, variables, net, dist)
        if value < -1e-6:
            witnesses.append((i, value))
    assert witnesses, "expected a strict violation among sampled input laws"


def test_equality_provable_both_directions(base2):
    variables, constraints = base2
    fwd = expr_from_names(variables, {"Y1 X1": 1, "X1": -1, "V2": -1})
    bwd = {m: -c for m, c in fwd.items()}
    for target in (fwd, bwd):
        result = prove(ProverProblem(variables=variables, constraints=constraints, target=target))
        assert result.provable


def test_lift_keeps_both_directions_of_a_dependency(base2):
    # H(V1|X1) = 0 is a functional dependency, so the closed-set LP sees the
    # target as 0 either way; the negated target needs the dependency itself
    variables, constraints = base2
    conditional = expr_from_names(variables, {"X1 V1": 1, "X1": -1})
    for sign in (1, -1):
        target = {m: sign * c for m, c in conditional.items()}
        result = prove(ProverProblem(variables=variables, constraints=constraints, target=target))
        assert result.provable
        assert verify_certificate(result.problem, result.certificate)
        if sign == -1:
            assert dict(result.certificate)["[=]H(V1|X1)=0"] == -1


def doubled(constraints):
    """The same equalities with every coefficient doubled: none of them has
    the shape of a functional dependency any more."""
    return tuple((label, {m: 2 * c for m, c in expr.items()}) for label, expr in constraints)


def test_constraints_that_are_not_dependencies_reach_the_same_verdict(base2):
    variables, constraints = base2
    cases = [
        ({"X1": 1, "X1 V1": -1}, "Provable"),  # -H(V1|X1)
        ({"X1 Y1": 1, "X1": -1}, "Provable"),  # H(Y1|X1)
        ({"X1 X2": 1, "X1": -1, "X2": -1}, "Provable"),  # -I(X1;X2), from the independence equality
        ({"Y1 V1 V2": 1, "V1 V2": -1, "Y1 X2 Y2": -1, "X2 Y2": 1}, "Provable"),
        ({"Y1 V2": 1, "V2": -1, "Y1": -1}, "NotProvable"),
        ({"X1 Y1": 1, "X1": -1, "Y1": -1}, "NotProvable"),  # -I(X1;Y1)
    ]
    for terms, verdict in cases:
        target = expr_from_names(variables, terms)
        # without a dependency to reduce by, the full exact simplex is slow,
        # so the doubled constraints run guided only
        problem = ProverProblem(variables=variables, constraints=constraints, target=target)
        results = list(prove_both_ways(problem))
        doubled_problem = ProverProblem(variables=variables, constraints=doubled(constraints), target=target)
        results.append(prove(doubled_problem))
        for p, result in zip((problem, problem, doubled_problem), results):
            assert result.status == verdict, (terms, result.path)
            if result.provable:
                assert verify_certificate(p, result.certificate)
            else:
                assert separating_vector_holds(p, result.separating_vector)


def unreduced_system(problem):
    """The prover's LP without any reduction: one column per elemental and a
    (+, -) pair per constraint, rows indexed by subset bitmask - 1."""
    columns = [{m - 1: c for m, c in expr.items()} for _, expr in elemental_inequalities(problem.variables)]
    for _, expr in problem.constraints:
        column = {m - 1: c for m, c in expr.items()}
        columns += [column, {i: -c for i, c in column.items()}]
    return columns, {m - 1: c for m, c in problem.target.items()}


@st.composite
def dependency_problems(draw):
    """Up to three random functional dependencies H(B|A) = 0 on n <= 5
    variables, and a target mixing elementals, the dependencies and single
    entropies with random signs, so both verdicts occur."""
    n = draw(st.integers(2, 5))
    top = 1 << n
    constraints = []
    for c in range(draw(st.integers(0, 3))):
        a = draw(st.integers(1, top - 1))
        u = a | draw(st.integers(1, top - 1))
        if u != a:
            constraints.append((f"fd{c}", {u: Fraction(1), a: Fraction(-1)}))
    target: dict[int, Fraction] = {}

    def add(expr, coeff):
        for mask, c in expr.items():
            target[mask] = target.get(mask, Fraction(0)) + coeff * c

    gens = elemental_inequalities(n)
    for k in draw(st.lists(st.integers(0, len(gens) - 1), max_size=3)):
        add(gens[k][1], draw(st.sampled_from((1, -1))))
    for _, expr in constraints:
        add(expr, draw(st.integers(-2, 2)))
    for mask in draw(st.lists(st.integers(1, top - 1), max_size=2)):
        add({mask: Fraction(1)}, draw(st.sampled_from((1, -1))))
    return ProverProblem(
        variables=tuple(f"Z{i + 1}" for i in range(n)),
        constraints=tuple(constraints),
        target={m: c for m, c in target.items() if c},
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dependency_problems())
def test_closed_set_lp_decides_like_the_unreduced_lp(problem):
    columns, target = unreduced_system(problem)
    expected = solve_feasibility(columns, target, (1 << len(problem.variables)) - 1).feasible
    for result in prove_both_ways(problem):
        assert result.provable == expected, result.path
        if result.provable:
            assert verify_certificate(problem, result.certificate)
        else:
            y = {m - 1: c for m, c in result.separating_vector.items()}
            assert separates(y, columns, target)


def negated_mutual_information(a_mask, b_mask, k_mask=0):
    """-I(A;B|K) as an expression over variable-set masks."""
    expr: dict[int, Fraction] = {}
    for mask, sign in ((a_mask | k_mask, -1), (b_mask | k_mask, -1), (a_mask | b_mask | k_mask, 1), (k_mask, 1)):
        if mask:
            expr[mask] = expr.get(mask, Fraction(0)) + sign
    return {m: c for m, c in expr.items() if c}


def refutations():
    names = tuple(f"Z{i + 1}" for i in range(4))
    for i, j in combinations(range(4), 2):
        others = [t for t in range(4) if t not in (i, j)]
        for r in range(len(others) + 1):
            for ks in combinations(others, r):
                target = negated_mutual_information(1 << i, 1 << j, sum(1 << t for t in ks))
                yield ProverProblem(variables=names, constraints=(), target=target, name=f"n4 {i}{j}{ks}")
    variables, constraints = dic_constraints(2, [1, 1], BASE2_WIRING)
    index = {v: t for t, v in enumerate(variables)}
    for a, b in (("X1", "Y1"), ("X2", "Y1"), ("Y1", "Y2")):
        target = negated_mutual_information(1 << index[a], 1 << index[b])
        yield ProverProblem(variables=variables, constraints=constraints, target=target, name=f"-I({a};{b})")


def separating_vector_holds(problem, y) -> bool:
    """Re-check a NotProvable witness from the generators themselves: y is
    non-positive on every elemental, zero on every equality, and positive on
    the target."""
    def dot(expr):
        return sum((y.get(m, Fraction(0)) * c for m, c in expr.items()), Fraction(0))

    return (
        all(dot(expr) <= 0 for _, expr in elemental_inequalities(problem.variables))
        and all(dot(expr) == 0 for _, expr in problem.constraints)
        and dot(problem.target) > 0
    )


def test_auto_and_exact_agree_on_refutations(monkeypatch):
    problems = list(refutations())
    assert len(problems) == 27
    auto = [prove(p) for p in problems]
    # without float guidance no float LP runs
    monkeypatch.setattr(prover_module, "linprog", None)
    with without_float_guidance():
        exact = [prove(p) for p in problems]
    for problem, a, e in zip(problems, auto, exact):
        assert (a.status, a.path) == ("NotProvable", "dual"), problem.name
        assert (e.status, e.path) == ("NotProvable", "exact"), problem.name
        assert a.certificate is None and e.certificate is None
        assert separating_vector_holds(problem, a.separating_vector), problem.name
        assert separating_vector_holds(problem, e.separating_vector), problem.name


def bench_refutations():
    """The refutations above and the other negated elementals the refute
    benchmark runs: every -I(Zi;Zj|K) at n = 5, and -I(Z1;Z2|Z3..Zr) at
    n = 6 for each conditioning size."""
    yield from refutations()
    names = tuple(f"Z{i + 1}" for i in range(5))
    for i, j in combinations(range(5), 2):
        others = [t for t in range(5) if t not in (i, j)]
        for r in range(len(others) + 1):
            for ks in combinations(others, r):
                target = negated_mutual_information(1 << i, 1 << j, sum(1 << t for t in ks))
                yield ProverProblem(variables=names, constraints=(), target=target, name=f"n5 {i}{j}{ks}")
    names = tuple(f"Z{i + 1}" for i in range(6))
    for r in range(5):
        target = negated_mutual_information(1, 2, sum(1 << t for t in range(2, 2 + r)))
        yield ProverProblem(variables=names, constraints=(), target=target, name=f"n6 |K| = {r}")


def test_refutation_verdicts_and_vectors_are_pinned():
    # every refutation, guided, and the first set also by the full simplex:
    # each vector passes the column-by-column oracle on the unreduced
    # generators, and any change to a verdict, to the path that decided it or
    # to one entry of a vector changes the digest
    problems = list(bench_refutations())
    assert len(problems) == 27 + 80 + 5
    results = [prove(p) for p in problems]
    with without_float_guidance():
        results += [prove(p) for p in problems[:27]]
    lines = []
    for problem, result in zip(problems + problems[:27], results):
        y = result.separating_vector
        columns = [expr for _, expr in elemental_inequalities(problem.variables)]
        columns += [col for _, expr in problem.constraints for col in (expr, {m: -c for m, c in expr.items()})]
        assert result.status == "NotProvable" and reference_separates(y, columns, problem.target), problem.name
        lines.append(f"{problem.name}: {result.path} {[(m, str(c)) for m, c in sorted(y.items())]}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "605b7bd3cb6e4d250b2e2faf0353f2eb10de3066fd673e764387605a4036158e"


def test_nine_variable_refutation_decided_by_the_dual():
    # -I(Z1;Z2) over nine variables: the full exact simplex did not finish in
    # minutes at eight; the float dual plus its exact check takes well under a
    # second on a current CPU
    names = tuple(f"Z{i + 1}" for i in range(9))
    problem = ProverProblem(variables=names, constraints=(), target=negated_mutual_information(1, 2))
    start = time.perf_counter()
    result = prove(problem)
    elapsed = time.perf_counter() - start
    assert (result.status, result.path) == ("NotProvable", "dual")
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    assert separating_vector_holds(problem, result.separating_vector)


def test_exact_method_agrees_with_guided(base2):
    variables, constraints = base2
    independence = expr_from_names(variables, {"X1 X2": 1, "X1": -1, "X2": -1})
    # target, then the guided and the exact certificate where they are
    # pinned: each sign of a constraint line is one side of its (+, -) pair
    targets = [
        (expr_from_names(variables, {"Y1 V1 V2": 1, "V1 V2": -1, "Y1 X2 Y2": -1, "X2 Y2": 1}), None),
        (expr_from_names(variables, {"Y1 V2": 1, "V2": -1, "Y1": -1}), None),
        (independence, ((("[=]independent sources", 1),), (("[=]independent sources", 1),))),
        ({m: -c for m, c in independence.items()}, ((("[=]independent sources", -1),), (("I(X1;X2)", 1),))),
    ]
    for target, pinned in targets:
        p = ProverProblem(variables=variables, constraints=constraints, target=target)
        guided, exact = prove_both_ways(p)
        assert exact.path == "exact" and guided.status == exact.status
        if pinned:
            assert (guided.path, guided.certificate, exact.certificate) == ("guided", *pinned)


def test_certificates_resummed_and_nonnegative(base2):
    variables, constraints = base2
    target = expr_from_names(variables, {"Y2 V1 V2": 1, "V1 V2": -1, "Y2 X1 Y1": -1, "X1 Y1": 1})
    result = prove(ProverProblem(variables=variables, constraints=constraints, target=target))
    assert result.provable
    for label, coeff in result.certificate:
        if not label.startswith("[=]"):
            assert coeff >= 0
    assert verify_certificate(result.problem, result.certificate)
    # tampering with the certificate must break re-summation
    tampered = tuple(
        (label, coeff + 1 if i == 0 else coeff)
        for i, (label, coeff) in enumerate(result.certificate)
    )
    assert not verify_certificate(result.problem, tampered)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_elemental_label_is_a_basic_label(n):
    names = NAME_POOL[:n]
    for label, expr in elemental_inequalities(names):
        assert prover_module._basic_terms(label, names) == expr, label


I_AB_C = {"A C": 1, "B C": 1, "A B C": -1, "C": -1}


@pytest.mark.parametrize(
    "label, coeff, target, accepted",
    [
        ("I(A;B|C)", 1, I_AB_C, True),
        ("H(A|B,C,D)", 1, {"A B C D": 1, "B C D": -1}, True),
        ("[=]c", -1, {"A": -1}, True),
        ("I(B;A|C)", 1, I_AB_C, False),  # the pair reversed
        ("I(A;B|C,C)", 1, I_AB_C, False),  # a repeated conditioning name
        ("I(A;B|A)", 1, {}, False),  # conditioning on a name of the pair
        ("I(A;B|)", 1, {"A": 1, "B": 1, "A B": -1}, False),  # an empty conditioning list
        ("I(A;B|D,C)", 1, {"A C D": 1, "B C D": 1, "A B C D": -1, "C D": -1}, False),  # out of order
        ("H(A|B)", 1, {"A B": 1, "B": -1}, True),  # basic, though not elemental at n >= 3
        ("H(A)", 1, {"A": 1}, True),
        ("I(A;Q|C)", 1, I_AB_C, False),  # an unknown name
        ("I(A;B|C)x", 1, I_AB_C, False),  # trailing text
        ("I(A;B|C) ", 1, I_AB_C, False),
        ("I(A;B|C))", 1, I_AB_C, False),
        ("I(A;B;C)", 1, I_AB_C, False),
        ("[=]d", 1, {"A": 1}, False),  # an unknown constraint
        ("I(A;B|C)", -1, {m: -c for m, c in I_AB_C.items()}, False),  # a negative weight on an elemental
        ("H(A,B|C)", 1, {"A B C": 1, "C": -1}, True),
        ("I(A,B;C|D)", 1, {"A B D": 1, "C D": 1, "A B C D": -1, "D": -1}, True),
        ("I(A;B)", 1, {"A": 1, "B": 1, "A B": -1}, True),
        ("H(B,A)", 1, {"A B": 1}, False),  # names out of order
        ("I(A;A,B)", 1, {"A": 1}, False),  # overlapping sides
        ("H(A|A)", 1, {}, False),
        ("I(;B)", 1, {}, False),  # an empty side
        ("H(|A)", 1, {}, False),
        ("H(A|)", 1, {"A": 1}, False),  # an empty conditioning list
        ("H(A;B)", 1, {"A B": 1}, False),  # wrong arity
        ("H(A|B)", -1, {"A B": -1, "B": 1}, False),  # a negative weight on a basic line
        ("I(A;A|B)", 1, {"A B": -1, "B": -1}, False),  # overlapping sides, summed as if disjoint
    ],
)
def test_verification_accepts_only_generator_labels(label, coeff, target, accepted):
    names = ("A", "B", "C", "D")
    problem = ProverProblem(
        variables=names, constraints=(("c", expr_from_names(names, {"A": 1})),), target=expr_from_names(names, target)
    )
    assert verify_certificate(problem, [(label, Fraction(coeff))]) == accepted


def basic_expr(a, b, c):
    """H(A|C) (b = 0) or I(A;B|C) as joint entropies over subset masks."""
    terms = [(a | c, 1), (c, -1)] if not b else [(a | c, 1), (b | c, 1), (a | b | c, -1), (c, -1)]
    return {m: Fraction(s) for m, s in terms if m}


def basic_label(names, a, b, c):
    """The canonical spelling of a basic inequality: names in variable order,
    I-sides by their first variable, no bar for an empty C."""
    def spell(mask):
        return ",".join(v for i, v in enumerate(names) if mask >> i & 1)

    if b and b & -b < a & -a:
        a, b = b, a
    return f"{'I' if b else 'H'}({spell(a)}{';' + spell(b) if b else ''}{'|' + spell(c) if c else ''})"


def certificate_and_target(names, lines):
    """A certificate of (weight, A, B, C) basic lines, and the target it sums to."""
    target: dict[int, Fraction] = {}
    for weight, a, b, c in lines:
        for mask, s in basic_expr(a, b, c).items():
            target[mask] = target.get(mask, Fraction(0)) + weight * s
    certificate = [(basic_label(names, a, b, c), weight) for weight, a, b, c in lines]
    return certificate, {m: c for m, c in target.items() if c}


def test_verification_builds_no_elemental_table(monkeypatch):
    # twelve variables have 67,596 elementals; checking a short certificate
    # must build none of them
    names = tuple(f"Z{i + 1}" for i in range(12))
    lines = [
        (Fraction(2), 0b1_0001, 0, 1 << 11),  # H(Z1,Z5|Z12)
        (Fraction(3), 0b10, 0b1100, 1 << 5),  # I(Z2;Z3,Z4|Z6)
        (Fraction(1, 2), 1, 1 << 11, 0),  # I(Z1;Z12)
        (Fraction(1), 1 << 6, 0, 0),  # H(Z7)
        (Fraction(5), 1 << 11, 0, (1 << 11) - 1),  # H(Z12|Z1,...,Z11)
    ]
    certificate, target = certificate_and_target(names, lines)

    def no_table(n):
        raise AssertionError(f"built the elemental table for n = {n}")

    monkeypatch.setattr(prover_module, "_elemental_table", no_table)
    problem = ProverProblem(variables=names, constraints=(), target=target)
    assert verify_certificate(problem, certificate)
    assert not verify_certificate(problem, certificate[:-1])


@st.composite
def basic_certificates(draw):
    """Up to five basic lines with non-negative weights on n <= 6 variables:
    each variable goes to A, B, C or none of them."""
    n = draw(st.integers(1, 6))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        mutual = n >= 2 and draw(st.booleans())
        roles = draw(st.lists(st.sampled_from("ABC-" if mutual else "AC-"), min_size=n, max_size=n))
        masks = [sum(1 << i for i, role in enumerate(roles) if role == side) for side in "ABC"]
        if not masks[0] or (mutual and not masks[1]):
            continue
        lines.append((draw(st.fractions(min_value=0, max_denominator=6)), *masks))
    return n, lines


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(basic_certificates(), st.data())
def test_basic_certificates_verify_exactly(case, data):
    n, lines = case
    names = tuple(f"Z{i + 1}" for i in range(n))
    certificate, target = certificate_and_target(names, lines)
    problem = ProverProblem(variables=names, constraints=(), target=target)
    assert verify_certificate(problem, certificate)
    if certificate:
        t = data.draw(st.integers(0, len(certificate) - 1))
        delta = data.draw(st.fractions(max_denominator=6).filter(bool))
        changed = [(label, w + delta if i == t else w) for i, (label, w) in enumerate(certificate)]
        assert not verify_certificate(problem, changed)


def test_prove_returns_only_certificates_that_verify(monkeypatch, base2):
    variables, constraints = base2
    target = expr_from_names(variables, {"X1 Y1": 1, "X1": -1})
    problem = ProverProblem(variables=variables, constraints=constraints, target=target, name="H(Y1|X1)")
    assert prove(problem).provable
    monkeypatch.setattr(prover_module, "verify_certificate", lambda problem, certificate: False)
    with pytest.raises(ProverError, match="fails re-summation"):
        prove(problem)


def test_prove_returns_only_separating_vectors_that_separate(monkeypatch, base2):
    variables, constraints = base2
    target = expr_from_names(variables, {"X1 Y1": 1, "X1": -1, "Y1": -1})
    problem = ProverProblem(variables=variables, constraints=constraints, target=target, name="-I(X1;Y1)")
    assert prove(problem).status == "NotProvable"
    monkeypatch.setattr(prover_module, "separates", lambda y, columns, target: False)
    with pytest.raises(ProverError, match=r"separating vector for -I\(X1;Y1\) fails its exact check"):
        prove(problem)


def test_auto_falls_back_to_the_full_simplex_without_float_guidance(base2):
    # a failed float solve gives neither a support nor a candidate vector;
    # the full exact simplex then decides both -I(X1;X2) (independent
    # sources) and I(X1;Y1)
    variables, constraints = base2
    for terms in ({"X1 X2": 1, "X1": -1, "X2": -1}, {"X1": 1, "Y1": 1, "X1 Y1": -1}):
        problem = ProverProblem(variables=variables, constraints=constraints, target=expr_from_names(variables, terms))
        with without_float_guidance():
            result = prove(problem)
        assert (result.status, result.path) == ("Provable", "exact"), terms
        assert verify_certificate(problem, result.certificate)


def test_a_float_lp_without_an_optimum_leaves_the_verdict_to_the_full_simplex(monkeypatch, base2):
    # HiGHS reporting no optimum is the failed float solve: the verdict is
    # the one the full exact simplex gives without float guidance
    variables, constraints = base2
    problems = (
        appendix_targets("4a")[0],  # a Provable residue
        ProverProblem(  # -I(X1;Y1), NotProvable
            variables=variables, constraints=constraints, target=expr_from_names(variables, {"X1 Y1": 1, "X1": -1, "Y1": -1})
        ),
    )
    with without_float_guidance():
        expected = [prove(problem) for problem in problems]
    monkeypatch.setattr(prover_module, "linprog", lambda a_t, b: prover_module.FloatLPResult(False))
    for problem, want, status in zip(problems, expected, ("Provable", "NotProvable")):
        got = prove(problem)
        assert (got.status, got.path) == (want.status, want.path) == (status, "exact"), problem.name
        assert got.certificate == want.certificate and got.separating_vector == want.separating_vector


def test_each_verdict_costs_one_float_lp(monkeypatch, base2):
    variables, constraints = base2
    calls = []
    real = prover_module.linprog
    monkeypatch.setattr(prover_module, "linprog", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    for terms, status in (
        ({"Y1 V1 V2": 1, "V1 V2": -1, "Y1 X2 Y2": -1, "X2 Y2": 1}, "Provable"),
        ({"X1 Y1": 1, "X1": -1, "Y1": -1}, "NotProvable"),  # -I(X1;Y1)
    ):
        calls.clear()
        result = prove(ProverProblem(variables=variables, constraints=constraints, target=expr_from_names(variables, terms)))
        assert result.status == status and len(calls) == 1, terms


def every_residue():
    from dicbound.extend import supported_bounds

    return [problem for bound_id in supported_bounds() for problem in appendix_targets(bound_id)]


def public_linprog(a_t, b):
    """The float LP through scipy's public ``linprog``, with the options
    ``prover.linprog`` passes to HiGHS itself."""
    from scipy import sparse
    from scipy.optimize import linprog

    indptr, indices, values = a_t
    matrix = sparse.csr_matrix((values, indices, indptr), shape=(len(indptr) - 1, len(b)))
    res = linprog(
        c=-b,
        A_ub=matrix,
        b_ub=np.zeros(matrix.shape[0]),
        bounds=(-1, 1),
        method="highs-ds",
        options={"simplex_dual_edge_weight_strategy": "devex", "presolve": False},
    )
    if not res.success:
        return prover_module.FloatLPResult(False)
    return prover_module.FloatLPResult(True, -res.fun, res.x, res.ineqlin.marginals)


def test_the_float_lp_agrees_with_public_linprog(monkeypatch):
    # prover.linprog builds the HiGHS model through scipy's private bindings;
    # the public linprog on the same system is the oracle for that module
    problems = every_residue() + list(refutations())
    assert len(problems) == 154 + 27
    results, solvers = [], (prover_module.linprog, public_linprog)
    for problem in problems:
        system = prover_module._ClosedSetLP(elemental_inequalities(problem.variables), problem).float_system()
        duals = []
        for solve in solvers:
            monkeypatch.setattr(prover_module, "linprog", lambda a_t, b: results.append(solve(a_t, b)) or results[-1])
            duals.append(prover_module._float_dual(*system))
        ours, public = results[-2:]
        assert ours.success and public.success, problem.name
        assert abs(ours.maximum - public.maximum) <= 1e-12, problem.name
        for a, b in ((ours.x, public.x), (ours.duals, public.duals)):
            assert np.abs(a - b).max() <= 1e-12, problem.name
        # the same support for a residue, the same rationalized candidate for a refutation
        assert duals[0] == duals[1] and duals[0] != (None, None), problem.name


# every name prover.linprog reads from scipy's private HiGHS bindings, on the
# module and on the objects it builds; a scipy release that renames one fails
# here by name, and prove then stops with a one-line ProverError
HIGHS_MODULE_NAMES = (
    "HighsLp",
    "_Highs",
    "HighsOptions",
    "MatrixFormat.kRowwise",
    "kHighsInf",
    "HighsModelStatus.kOptimal",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual",
    "simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex",
)
HIGHS_OBJECT_NAMES = {
    "HighsLp": ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_", "a_matrix_"),
    "HighsLp.a_matrix_": ("format_", "num_col_", "num_row_", "start_", "index_", "value_"),
    "HighsOptions": ("solver", "simplex_strategy", "simplex_dual_edge_weight_strategy", "presolve", "output_flag"),
    "_Highs": ("passOptions", "passModel", "run", "getModelStatus", "getSolution", "getInfo"),
}


def test_the_highs_bindings_have_every_name_the_float_lp_uses():
    from scipy.optimize._highspy import _core as highs

    def resolve(owner, dotted):
        for name in dotted.split("."):
            assert hasattr(owner, name), dotted
            owner = getattr(owner, name)
        return owner

    for dotted in HIGHS_MODULE_NAMES:
        resolve(highs, dotted)
    objects = {"HighsLp": highs.HighsLp(), "HighsOptions": highs.HighsOptions(), "_Highs": highs._Highs()}
    objects["HighsLp.a_matrix_"] = objects["HighsLp"].a_matrix_
    for owner, names in HIGHS_OBJECT_NAMES.items():
        for name in names:
            resolve(objects[owner], name)
    solver = objects["_Highs"]
    solver.passOptions(prover_module._dual_simplex_options(highs))
    solver.passModel(objects["HighsLp"])
    solver.run()
    for dotted in ("getSolution.col_value", "getSolution.row_dual", "getInfo.objective_function_value"):
        method, attr = dotted.split(".")
        resolve(getattr(solver, method)(), attr)


def test_the_shared_solver_answers_as_a_fresh_solver_per_lp(monkeypatch, capfd):
    # one solver serves the float LPs of the process; solved through it in
    # two shuffled orders, each LP must give what a new solver gives, bit for
    # bit, so that no basis or workspace leaks from one LP into the next, and
    # HiGHS must print nothing
    from scipy.optimize._highspy import _core as highs

    problems = list(bench_refutations()) + [p for p in every_residue() if len(p.variables) <= 7]
    assert len(problems) == 112 + 67
    systems = [prover_module._ClosedSetLP(elemental_inequalities(p.variables), p).float_system() for p in problems]
    prover_module.linprog(*systems[0])  # the shared solver exists from here on
    built, real = [], highs._Highs
    monkeypatch.setattr(highs, "_Highs", lambda: built.append(1) or real())
    orders = []
    for seed in (1, 2):
        order = list(range(len(systems)))
        random.Random(seed).shuffle(order)
        results = {i: prover_module.linprog(*systems[i]) for i in order}
        orders.append([results[i] for i in range(len(systems))])
    assert built == []
    # an LP above the kept size runs on the shared solver too, which is then
    # let go: the next LP builds a new one
    large = next(p for p in appendix_targets("ineq5") if len(p.variables) == 11)
    problems.append(large)
    systems.append(prover_module._ClosedSetLP(elemental_inequalities(large.variables), large).float_system())
    assert len(systems[-1][0][1]) > prover_module._KEPT_NONZEROS
    for order in orders:
        order.append(prover_module.linprog(*systems[-1]))
        prover_module.linprog(*systems[0])
    assert len(built) == 2
    fresh = []
    for system in systems:
        prover_module._solver.cache_clear()
        fresh.append(prover_module.linprog(*system))
    assert len(built) == 2 + len(systems)
    for problem, want, *got in zip(problems, fresh, *orders, strict=True):
        assert want.success, problem.name
        for result in got:
            assert (result.success, result.maximum) == (want.success, want.maximum), problem.name
            assert np.array_equal(result.x, want.x) and np.array_equal(result.duals, want.duals), problem.name
    assert capfd.readouterr().out == ""


def assert_same_reduction(got, expected, name=""):
    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1]), name
    assert list(got[2]) == expected[2], name


def assert_reduction_matches_the_reference(problem):
    lp = prover_module._ClosedSetLP(elemental_inequalities(problem.variables), problem)
    expected = reference_elemental_columns(lp.row_of[lp.elementals.masks], lp.elementals.signs)
    block = lp.columns
    assert_same_reduction((block.rows, block.signs, lp.gens[: len(block.rows)]), expected, problem.name)
    return lp


def random_dependencies(rng, n):
    """Up to four random functional dependencies H(B|A) = 0 on n variables."""
    top = 1 << n
    constraints = []
    for c in range(rng.randrange(5)):
        a = rng.randrange(1, top)
        u = a | rng.randrange(1, top)
        if u != a:
            constraints.append((f"fd{c}", {u: Fraction(1), a: Fraction(-1)}))
    return tuple(constraints)


def test_elemental_reduction_matches_the_argsort_reference():
    for problem in every_residue():
        assert_reduction_matches_the_reference(problem)
    rng = random.Random(22)
    for n in range(1, 11):
        for _ in range(4):
            names = tuple(f"Z{i + 1}" for i in range(n))
            problem = ProverProblem(
                variables=names, constraints=random_dependencies(rng, n), target={(1 << n) - 1: Fraction(1)}
            )
            assert_reduction_matches_the_reference(problem)
    # with no dependency at n = MAX_VARIABLES every non-empty set is a row,
    # so the integer keys reach their largest radix, 5 * 4096
    n = prover_module.MAX_VARIABLES
    problem = ProverProblem(variables=tuple(f"Z{i + 1}" for i in range(n)), constraints=(), target={1: Fraction(1)})
    lp = assert_reduction_matches_the_reference(problem)
    assert lp.n_rows == 4095 and (5 * (lp.n_rows + 1)) ** 4 < 2**63
    # elemental-shaped lines, terms in random places, on few rows: they
    # repeat, merge to signs of +-2 and share rows under other signs
    generator = np.random.default_rng(22)
    for n_rows in (1, 3, 6, 4095):
        rows = generator.integers(0, n_rows, size=(3000, 4))
        signs = np.tile([1, 1, -1, -1], (3000, 1))
        single = generator.random(3000) < 0.5
        rows[single, 2:], signs[single, 2:] = -1, 0
        places = generator.permuted(np.tile(np.arange(4), (3000, 1)), axis=1)
        rows, signs = np.take_along_axis(rows, places, 1), np.take_along_axis(signs, places, 1)
        expected = reference_elemental_columns(rows, signs)
        assert_same_reduction(prover_module._reduce_elementals(rows, signs, n_rows), expected, n_rows)


def identity_reduction(n):
    """The elemental reduction when no dependency holds, computed as the
    closed-set LP computes it under dependencies: through the row of each
    mask, which is mask - 1 under the identity closure."""
    masks, signs = prover_module._elemental_table(n)
    return prover_module._reduce_elementals(np.arange(-1, (1 << n) - 1)[masks], signs, (1 << n) - 1)


def test_the_dependency_free_reduction_is_kept_once_per_n(base2):
    for n in range(1, 10):
        memo = prover_module._free_reduction(n)
        assert memo is prover_module._free_reduction(n)
        assert all(np.array_equal(got, want) for got, want in zip(memo, identity_reduction(n), strict=True)), n
        for array in memo:
            with pytest.raises(ValueError):
                array[0] = 0
    # a problem without dependencies reads the memo; one with them does not
    variables, constraints = base2
    target = expr_from_names(variables, {"X1": 1})
    for given, shared in (((), True), (doubled(constraints), True), (constraints, False)):
        lp = prover_module._ClosedSetLP(elemental_inequalities(variables), ProverProblem(variables, given, target))
        assert (lp.columns.rows is prover_module._free_reduction(len(variables))[0]) == shared


def test_a_problem_without_dependencies_decides_alike_with_and_without_the_memo(monkeypatch, base2):
    # the structural equalities doubled, none of them a dependency, plus the
    # source independence once more, redundant beside its doubled copy
    variables, constraints = base2
    constraints = doubled(constraints) + (("independent sources, once", dict(constraints)["independent sources"]),)
    problems = [
        ProverProblem(variables=variables, constraints=constraints, target=expr_from_names(variables, terms))
        for terms in (
            {"X1 X2": 1, "X1": -1, "X2": -1},  # -I(X1;X2), from the independence equality
            {"Y1 V1 V2": 1, "V1 V2": -1, "Y1 X2 Y2": -1, "X2 Y2": 1},
            {"Y1 V2": 1, "V2": -1, "Y1": -1},
            {"X1 Y1": 1, "X1": -1, "Y1": -1},  # -I(X1;Y1)
        )
    ]
    memoized = [prove(problem) for problem in problems]
    monkeypatch.setattr(prover_module, "_free_reduction", identity_reduction)
    for problem, got, want in zip(problems, memoized, map(prove, problems)):
        assert (got.status, got.path, got.certificate) == (want.status, want.path, want.certificate), problem.name
        assert got.separating_vector == want.separating_vector, problem.name
    assert [result.status for result in memoized] == ["Provable", "Provable", "NotProvable", "NotProvable"]


def test_zero_coefficients_are_dropped():
    # H(A) >= 0 with an explicit zero on H(B)
    problem = ProverProblem(variables=("A", "B"), constraints=(), target={1: Fraction(1), 2: Fraction(0)})
    result = prove(problem)
    assert result.provable and verify_certificate(problem, result.certificate)
    assert problem.target == {1: Fraction(1)}


def test_a_dependency_with_a_stray_zero_term_is_still_a_dependency(base2):
    variables, constraints = base2
    stray = tuple(
        (label, {**expr, 63: Fraction(0)} if label == "H(V1|X1)=0" else expr) for label, expr in constraints
    )
    assert stray != constraints
    target = expr_from_names(variables, {"X1 Y1": 1, "X1": -1})
    clean = ProverProblem(variables=variables, constraints=constraints, target=target)
    padded = ProverProblem(variables=variables, constraints=stray, target=target)
    fds = prover_module._functional_dependencies(clean.constraints)
    assert prover_module._functional_dependencies(padded.constraints) == fds
    assert any(constraints[c][0] == "H(V1|X1)=0" for c, _, _ in fds)
    a, b = prove(clean), prove(padded)
    assert a.provable and b.provable and a.certificate == b.certificate
    assert verify_certificate(padded, b.certificate)


@pytest.mark.parametrize("bound_id", ["4a", "4b", "4c", "4d", "4e", "4f", "4g"])
def test_two_user_appendix_targets_provable(bound_id):
    problems = appendix_targets(bound_id)
    assert problems
    for problem in problems:
        result = prove(problem)
        assert result.provable, problem.name
        assert verify_certificate(problem, result.certificate)


@pytest.mark.parametrize("bound_id", ["ineq1", "ineq8", "ineq9"])
def test_three_user_appendix_targets_provable(bound_id):
    problems = appendix_targets(bound_id)
    for problem in problems:
        assert len(problem.variables) <= 10
        result = prove(problem)
        assert result.provable, problem.name


def test_appendix_target_counts_and_shapes():
    assert len(appendix_targets("4c")) == 1  # the single two-step-chain residue
    assert len(appendix_targets("ineq8")) == 2
    for problem in appendix_targets("4f"):
        assert len(problem.variables) <= 8


def test_every_residue_and_structure_is_pinned():
    # a canonical rendering of every residue problem, in bound order, and of
    # both base-channel structures; any change to a variable, constraint,
    # target or name changes the digest
    from dicbound.extend import supported_bounds

    def render(variables, constraints):
        return (variables, [(label, sorted(expr.items())) for label, expr in constraints])

    lines = [
        repr(render(p.variables, p.constraints) + (sorted(p.target.items()), p.name))
        for bound_id in supported_bounds()
        for p in appendix_targets(bound_id)
    ]
    for n, wiring in ((2, BASE2_WIRING), (3, BASE3_WIRING)):
        lines.append(repr(render(*dic_constraints(n, [1] * n, wiring))))
    assert len(lines) == 156
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e701b252d325668e69f7721f0f260272bb551b6c1ce447cc7ad1469df96230e8"


def test_provable_targets_nonnegative_numerically(shift2_221):
    # sampled-law sanity check of a Provable verdict
    problems = appendix_targets("4e")
    channel = shift2_221
    for problem in problems:
        result = prove(problem)
        assert result.provable
        from dicbound.extend import build_extended, builtin_recipe
        from dicbound.networks import replicate_distribution

        recipe = builtin_recipe("4e", 2)
        net = build_extended(channel, recipe.recipe)
        for i in range(20):
            dist = sample_product_distribution([4, 4], 555, i)
            rdist = replicate_distribution(net, dist)
            value = oracle_expr_value(problem.target, problem.variables, net, rdist)
            assert value >= -1e-12, (problem.name, i, value)


def test_largest_residue_problems_provable():
    # the widest steps (11 variables) come from reconstructed three-user
    # recipes; prove one from each of the two hardest shapes
    for bound_id in ("ineq5", "ineq16"):
        problems = [p for p in appendix_targets(bound_id) if len(p.variables) >= 11]
        assert problems
        result = prove(problems[0])
        assert result.provable, problems[0].name
        assert verify_certificate(problems[0], result.certificate)


def test_every_bound_residue_provable():
    from dicbound.extend import supported_bounds

    lines = []
    for bound_id in supported_bounds():
        for problem in appendix_targets(bound_id):
            result = prove(problem)
            # a fall-through to the full simplex has no time bound at n = 11
            assert (result.status, result.path) == ("Provable", "guided"), problem.name
            assert verify_certificate(problem, result.certificate), problem.name
            # the independent re-summer accepts it, and rejects it with the
            # weight of its first basic line changed, that line's label
            # misspelt or that line dropped
            assert reference_check_certificate(problem, result.certificate), problem.name
            cert = list(result.certificate)
            i = next(i for i, (label, _) in enumerate(cert) if not label.startswith("[=]"))
            (label, weight), before, after = cert[i], cert[:i], cert[i + 1 :]
            misspelt = label.replace("(", "(Z", 1)
            for mutated in (before + [(label, weight + 1)] + after, before + [(misspelt, weight)] + after, before + after):
                assert not reference_check_certificate(problem, mutated), problem.name
            lines += [f"{coeff} * {label}" for label, coeff in result.certificate]
    # one basic inequality per residual term keeps the 35 ids at 1,873 lines
    assert len(lines) <= 2000
    # every certificate line, in bound order: any change to a weight, a label
    # or the line order changes the digest
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1a7989cf50b662ad149155c427e7b806f8202aa4a0073be79597ebcf31d25136"


@pytest.mark.parametrize(
    "variables",
    [("A", "A"), ("",), ("A B",), ("A\tB",), ("A,B",), ("A;B",), ("A|B",), ("H(A",), ("A)",)],
)
def test_bad_variable_names_rejected(variables):
    with pytest.raises(ProverError):
        ProverProblem(variables=variables, constraints=(), target={1: Fraction(1)})


def test_repeated_constraint_names_rejected():
    c1, c2 = {1: Fraction(1)}, {2: Fraction(1), 3: Fraction(-1)}
    with pytest.raises(ProverError):
        ProverProblem(variables=("A", "B"), constraints=(("c", c1), ("c", c2)), target={3: Fraction(1)})


def rename_label(label: str, mapping: dict[str, str]) -> str:
    """A generator label with every variable name replaced through mapping."""
    return "".join(mapping.get(t, t) for t in re.split(r"([,;|()])", label))


def test_labels_use_the_problem_names():
    # names that are themselves generic labels, in another order, must not
    # be confused with the Z1..Zn of a bare-count call
    problem = ProverProblem(variables=("Z2", "Z1"), constraints=(), target={3: Fraction(1)})
    result = prove(problem)
    assert result.provable
    assert verify_certificate(problem, result.certificate)
    # ten variables: the tenth must not print as the first plus a digit
    names = ("A", "B", "C", "D", "E", "F", "G", "H", "K", "L10")
    generic = {f"Z{i + 1}": name for i, name in enumerate(names)}
    assert [label for label, _ in elemental_inequalities(names)] == [
        rename_label(label, generic) for label, _ in elemental_inequalities(10)
    ]
    target = expr_from_names(names, {"A L10": 1, "A": -1})  # H(L10 | A)
    result = prove(ProverProblem(variables=names, constraints=(), target=target))
    assert result.provable and verify_certificate(result.problem, result.certificate)
    for label, _ in result.certificate:
        assert set(re.split(r"[,;|()]", label[2:-1])) <= set(names), label


NAME_POOL = ("Z1", "Z12", "Z2", "Z21", "X1", "X1^2", "X1^21", "V3^2", "Y3", "Y3^2")


@st.composite
def renamed_problems(draw):
    """A small problem, the same problem under other names, and under a
    permuted variable order.  The target is a sum of elementals, negated or
    not; the Shannon cone is pointed, so the verdict is known."""
    n = draw(st.integers(1, 5))
    names = tuple(draw(st.permutations(NAME_POOL))[:n])
    renamed = tuple(draw(st.permutations(NAME_POOL))[:n])
    order = draw(st.permutations(range(n)))
    gens = elemental_inequalities(n)
    picks = draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=3))
    sign = draw(st.sampled_from((1, -1)))
    target: dict[int, Fraction] = {}
    for k in picks:
        for mask, c in gens[k][1].items():
            target[mask] = target.get(mask, Fraction(0)) + sign * c
    target = {m: c for m, c in target.items() if c}
    position = {old: new for new, old in enumerate(order)}
    permuted_target = {
        sum(1 << position[i] for i in range(n) if mask >> i & 1): c for mask, c in target.items()
    }
    return (
        ProverProblem(variables=names, constraints=(), target=target),
        ProverProblem(variables=renamed, constraints=(), target=target),
        ProverProblem(variables=tuple(names[i] for i in order), constraints=(), target=permuted_target),
        sign == 1,
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(renamed_problems())
def test_verdicts_invariant_under_renaming_and_permutation(case):
    problem, renamed, permuted, provable = case
    results = [prove(p) for p in (problem, renamed, permuted)]
    assert [r.provable for r in results] == [provable] * 3
    for p, r in zip((problem, renamed, permuted), results):
        assert r.certificate is None or verify_certificate(p, r.certificate)
    if provable:
        back = dict(zip(renamed.variables, problem.variables))
        assert [c for _, c in results[1].certificate] == [c for _, c in results[0].certificate]
        assert [rename_label(label, back) for label, _ in results[1].certificate] == [
            label for label, _ in results[0].certificate
        ]
