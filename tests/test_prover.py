import hashlib
import re
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicbound.errors import ProverError
from dicbound import prover as prover_module
from dicbound.exactlp import separates, solve_feasibility
from dicbound.networks import base_network
from dicbound.prover import (
    ProverProblem,
    appendix_targets,
    dic_constraints,
    elemental_inequalities,
    evaluate_expr,
    expr_from_names,
    prove,
    verify_certificate,
)
from dicbound.sampling import sample_product_distribution

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
    return mock.patch.object(prover_module, "_float_dual", lambda a_eq, b_eq: (None, None))


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


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(0, 3), st.fractions(max_denominator=12), max_size=4),
    st.lists(
        st.dictionaries(st.integers(0, 3), st.integers(-3, 3) | st.fractions(max_denominator=5), max_size=4),
        max_size=4,
    ),
    st.dictionaries(st.integers(0, 3), st.fractions(max_denominator=5), max_size=4),
)
def test_separates_agrees_with_rational_dot_products(y, columns, rhs):
    def dot(col):
        return sum((y.get(i, Fraction(0)) * c for i, c in col.items()), Fraction(0))

    assert separates(y, columns, rhs) == (dot(rhs) > 0 and all(dot(col) <= 0 for col in columns))


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
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
        value = evaluate_expr(problem.target, variables, net, dist)
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


@settings(max_examples=60, deadline=None)
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
    targets = [
        expr_from_names(variables, {"Y1 V1 V2": 1, "V1 V2": -1, "Y1 X2 Y2": -1, "X2 Y2": 1}),
        expr_from_names(variables, {"Y1 V2": 1, "V2": -1, "Y1": -1}),
        expr_from_names(variables, {"X1 X2": 1, "X1": -1, "X2": -1}),
        {m: -c for m, c in expr_from_names(variables, {"X1 X2": 1, "X1": -1, "X2": -1}).items()},
    ]
    for target in targets:
        p = ProverProblem(variables=variables, constraints=constraints, target=target)
        guided, exact = prove_both_ways(p)
        assert exact.path == "exact" and guided.status == exact.status


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
def test_every_elemental_label_finds_its_own_index(n):
    view = elemental_inequalities(NAME_POOL[:n])
    assert [view.find(label) for label, _ in view] == list(range(len(view)))


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
        ("H(A|B)", 1, {"A B": 1, "B": -1}, False),  # not elemental at n >= 3
        ("H(A)", 1, {"A": 1}, False),  # likewise
        ("I(A;Q|C)", 1, I_AB_C, False),  # an unknown name
        ("I(A;B|C)x", 1, I_AB_C, False),  # trailing text
        ("I(A;B|C) ", 1, I_AB_C, False),
        ("I(A;B|C))", 1, I_AB_C, False),
        ("I(A;B;C)", 1, I_AB_C, False),
        ("[=]d", 1, {"A": 1}, False),  # an unknown constraint
        ("I(A;B|C)", -1, {m: -c for m, c in I_AB_C.items()}, False),  # a negative weight on an elemental
    ],
)
def test_verification_accepts_only_generator_labels(label, coeff, target, accepted):
    names = ("A", "B", "C", "D")
    problem = ProverProblem(
        variables=names, constraints=(("c", expr_from_names(names, {"A": 1})),), target=expr_from_names(names, target)
    )
    assert verify_certificate(problem, [(label, Fraction(coeff))]) == accepted
    if coeff > 0 and not label.startswith("[=]"):
        assert (elemental_inequalities(names).find(label) is None) == (not accepted)


def test_verification_renders_only_the_labels_a_certificate_names(monkeypatch):
    # twelve variables have 67,596 elementals; a five-line certificate must
    # not cost a label for each of them
    names = tuple(f"Z{i + 1}" for i in range(12))
    view = elemental_inequalities(names)
    picks = (0, 11, 12, len(view) // 2, len(view) - 1)
    certificate = [(view[t][0], Fraction(t + 1)) for t in picks]
    target: dict[int, Fraction] = {}
    for t in picks:
        for mask, c in view[t][1].items():
            target[mask] = target.get(mask, Fraction(0)) + (t + 1) * c
    target = {m: c for m, c in target.items() if c}
    rendered = []
    real = prover_module._mask_name
    monkeypatch.setattr(prover_module, "_mask_name", lambda mask, variables: rendered.append(mask) or real(mask, variables))
    assert verify_certificate(ProverProblem(variables=names, constraints=(), target=target), certificate)
    assert 0 < len(rendered) <= len(certificate)


def test_prove_returns_only_certificates_that_verify(monkeypatch, base2):
    variables, constraints = base2
    target = expr_from_names(variables, {"X1 Y1": 1, "X1": -1})
    problem = ProverProblem(variables=variables, constraints=constraints, target=target, name="H(Y1|X1)")
    assert prove(problem).provable
    monkeypatch.setattr(prover_module, "verify_certificate", lambda problem, certificate: False)
    with pytest.raises(ProverError, match="fails re-summation"):
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
            value = evaluate_expr(problem.target, problem.variables, net, rdist)
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

    for bound_id in supported_bounds():
        for problem in appendix_targets(bound_id):
            result = prove(problem)
            # a fall-through to the full simplex has no time bound at n = 11
            assert (result.status, result.path) == ("Provable", "guided"), problem.name
            assert verify_certificate(problem, result.certificate), problem.name


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


@settings(max_examples=30, deadline=None)
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
