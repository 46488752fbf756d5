"""Entropic-vector LP prover for conditional-entropy inequalities.

A target expression is Provable when it is a non-negative rational combination
of the elemental Shannon inequalities plus the channel's structural equalities
(interference = function of input, output = function of input and
interference, interference recoverable from input and output, independent
sources).  NotProvable means exactly that no such combination exists; the
inequality may still hold for reasons outside this system.

Search is float-guided (scipy) for speed, but every verdict rests on exact
rational arithmetic: Provable results carry a certificate that re-sums to the
target exactly, and NotProvable results are confirmed by an exact simplex run
(whose infeasibility certificate is checked by re-summation as well).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .entropy import VariableId
from .errors import ProverError, UnsupportedBoundError
from .exactlp import solve_feasibility
from .networks import NetworkGraph, network_entropy, replicas_from_counts

MAX_VARIABLES = 12

# generator labels are built from variable names, so a name may not contain
# the separators the labels use
_NAME_RE = re.compile(r"[^\s,;|()]+")

Expr = dict[int, Fraction]  # subset bitmask -> coefficient


def _mask_name(mask: int, variables: Sequence[str]) -> str:
    return ",".join(v for i, v in enumerate(variables) if mask >> i & 1)


def expr_from_names(variables: Sequence[str], terms: Mapping[str, object]) -> Expr:
    """Build an expression from {"X1 V2": coeff} style entries."""
    if not isinstance(terms, Mapping):
        raise ProverError("an expression maps space-separated variable names to coefficients")
    index = {v: i for i, v in enumerate(variables)}
    expr: Expr = {}
    for names, coeff in terms.items():
        mask = 0
        for name in names.split():
            if name not in index:
                raise ProverError(f"expression references unknown variable {name!r}")
            mask |= 1 << index[name]
        if mask == 0:
            raise ProverError("expressions may not reference the empty set")
        try:
            coeff = Fraction(coeff)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ProverError(f"coefficient {coeff!r} of {names!r} is not a rational") from exc
        if coeff:
            expr[mask] = expr.get(mask, Fraction(0)) + coeff
    return {m: c for m, c in expr.items() if c}


def entropy_diff(variables: Sequence[str], a: Iterable[str], b: Iterable[str]) -> Expr:
    """H(a | b) as an expression: H(a u b) - H(b)."""
    index = {v: i for i, v in enumerate(variables)}
    mask_b = 0
    for name in b:
        mask_b |= 1 << index[name]
    mask_ab = mask_b
    for name in a:
        mask_ab |= 1 << index[name]
    expr: Expr = {mask_ab: Fraction(1)}
    if mask_b:
        expr[mask_b] = expr.get(mask_b, Fraction(0)) - 1
    return {m: c for m, c in expr.items() if c}


def expr_sub(x: Expr, y: Expr) -> Expr:
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, Fraction(0)) - c
    return {m: c for m, c in out.items() if c}


@dataclass(frozen=True)
class ProverProblem:
    """Variables, structural equalities, and a target claimed non-negative."""

    variables: tuple[str, ...]
    constraints: tuple[tuple[str, Expr], ...]
    target: Expr
    name: str = ""

    def __post_init__(self):
        n = len(self.variables)
        if n < 1:
            raise ProverError("a problem needs at least one variable")
        if n > MAX_VARIABLES:
            raise ProverError(f"{n} variables exceed the prover budget of {MAX_VARIABLES}")
        for name in self.variables:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise ProverError(
                    f"variable name {name!r} must be non-empty, without whitespace or any of , ; | ( )"
                )
        if len(set(self.variables)) != n:
            raise ProverError(f"variable names repeat in {list(self.variables)}")
        labels = [label for label, _ in self.constraints]
        if len(set(labels)) != len(labels):
            raise ProverError(f"constraint names repeat in {labels}")
        top = 1 << n
        for _, expr in list(self.constraints) + [("target", self.target)]:
            for mask in expr:
                if not 0 < mask < top:
                    raise ProverError(f"expression mask {mask} outside the variable set")

    def describe_expr(self, expr: Expr) -> str:
        parts = []
        for mask in sorted(expr):
            parts.append(f"{expr[mask]}*H({_mask_name(mask, self.variables)})")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ProofResult:
    status: str  # "Provable" | "NotProvable"
    certificate: tuple[tuple[str, Fraction], ...] | None
    message: str
    problem: "ProverProblem | None" = field(repr=False, default=None)

    @property
    def provable(self) -> bool:
        return self.status == "Provable"


def elemental_inequalities(variables: int | Sequence[str]) -> list[tuple[str, Expr]]:
    """Generators of the polyhedral Shannon cone on the given variables.

    Monotonicity H(all) - H(all minus one) and conditional mutual
    informations I(i;j|K); for n <= 2 the single-variable non-negativities
    are included as well (they are implied for larger n).  Labels name the
    variables; a bare count n names them Z1..Zn.
    """
    names = [f"Z{i+1}" for i in range(variables)] if isinstance(variables, int) else list(variables)
    n = len(names)
    if n < 1:
        raise ProverError("n must be >= 1")
    full = (1 << n) - 1
    out: list[tuple[str, Expr]] = []
    for i in range(n):
        rest = full & ~(1 << i)
        expr: Expr = {full: Fraction(1)}
        if rest:
            expr[rest] = Fraction(-1)
        label = f"H({names[i]}|{_mask_name(rest, names)})" if rest else f"H({names[i]})"
        out.append((label, expr))
    if n == 2:
        for i in range(n):
            out.append((f"H({names[i]})", {1 << i: Fraction(1)}))
    for i, j in combinations(range(n), 2):
        others = [t for t in range(n) if t not in (i, j)]
        for r in range(len(others) + 1):
            for ks in combinations(others, r):
                k_mask = sum(1 << t for t in ks)
                expr = {}
                for mask, sign in (
                    ((1 << i) | k_mask, 1),
                    ((1 << j) | k_mask, 1),
                    ((1 << i) | (1 << j) | k_mask, -1),
                    (k_mask, -1),
                ):
                    if mask:
                        expr[mask] = expr.get(mask, Fraction(0)) + sign
                expr = {m: c for m, c in expr.items() if c}
                cond = f"|{_mask_name(k_mask, names)}" if k_mask else ""
                out.append((f"I({names[i]};{names[j]}{cond})", expr))
    return out


def _receiver_equalities(
    variables: Sequence[str],
    r: tuple[int, int],
    wired: Sequence[tuple[int, int]],
    pinned: Sequence[tuple[int, int]] = (),
) -> list[tuple[str, Expr]]:
    """Structural equalities at receiver r among the given variables.

    V is a function of X; Y is a function of (X, wired V's) and the wired V's
    are recoverable from (X, Y).  When some wired V is absent, only the pinned
    interference copies are claimed recoverable from (X, Y).
    """
    present = set(variables)
    x, v, y = (str(VariableId(kind, *r)) for kind in ("X", "V", "Y"))
    out: list[tuple[str, Expr]] = []
    if x in present and v in present:
        out.append((f"H({v}|{x})=0", entropy_diff(variables, [v], [x])))
    if x in present and y in present:
        wired_v = [str(VariableId("V", *w)) for w in wired]
        if present.issuperset(wired_v):
            out.append(
                (f"H({y}|{x},{','.join(wired_v)})=0", entropy_diff(variables, [y], [x] + wired_v))
            )
            out.append(
                (f"H({','.join(wired_v)}|{x},{y})=0", entropy_diff(variables, wired_v, [x, y]))
            )
        elif pinned:
            names = [str(VariableId("V", *c)) for c in sorted(set(pinned))]
            out.append((f"H({','.join(names)}|{x},{y})=0", entropy_diff(variables, names, [x, y])))
    return out


def dic_constraints(
    user_count: int,
    replica_counts: Sequence[int],
    wiring: Mapping[tuple[int, int], tuple[tuple[int, int], ...]],
) -> tuple[tuple[str, ...], tuple[tuple[str, Expr], ...]]:
    """Structural equalities of a (possibly replicated) channel network.

    Per receiver: V is a function of X; Y is a function of (X, wired V's);
    the wired V's are recoverable from (X, Y); Y is a function of all inputs.
    Plus one joint source-independence equality.
    """
    if user_count not in (2, 3) or len(replica_counts) != user_count or min(replica_counts) < 1:
        raise ProverError("replica_counts must list one positive count per user")
    replicas = replicas_from_counts(replica_counts)
    variables = tuple(
        str(VariableId(kind, u, c)) for u, c in replicas for kind in ("X", "V", "Y")
    )
    constraints: list[tuple[str, Expr]] = []
    all_x = [str(VariableId("X", *r)) for r in replicas]
    for r in replicas:
        constraints += _receiver_equalities(variables, r, wiring[r])
        y = str(VariableId("Y", *r))
        constraints.append((f"H({y}|inputs)=0", entropy_diff(variables, [y], all_x)))
    constraints.append(("independent sources", _independence_expr(variables, all_x)))
    return variables, tuple(constraints)


def _independence_expr(variables: Sequence[str], roots: Sequence[str]) -> Expr:
    index = {v: i for i, v in enumerate(variables)}
    expr: Expr = {}
    joint = 0
    for r in roots:
        joint |= 1 << index[r]
        mask = 1 << index[r]
        expr[mask] = expr.get(mask, Fraction(0)) - 1
    if len(roots) > 1:
        expr[joint] = expr.get(joint, Fraction(0)) + 1
    return {m: c for m, c in expr.items() if c}


# -- solving -------------------------------------------------------------------


Column = dict[int, Fraction]  # LP row (subset bitmask - 1) -> coefficient


def _column(expr: Expr) -> Column:
    return {m - 1: c for m, c in expr.items()}


def _column_table(problem: ProverProblem) -> dict[str, Column]:
    """Every generator a certificate may use, by label, as an LP column: the
    elemental inequalities, then each structural equality as ``[=]<name>``."""
    table = {label: _column(expr) for label, expr in elemental_inequalities(problem.variables)}
    for label, expr in problem.constraints:
        table[f"[=]{label}"] = _column(expr)
    return table


def _certificate_holds(
    table: Mapping[str, Column], target: Column, certificate: Iterable[tuple[str, Fraction]]
) -> bool:
    total: Column = {}
    for label, coeff in certificate:
        if label not in table or (coeff < 0 and not label.startswith("[=]")):
            return False
        for i, c in table[label].items():
            total[i] = total.get(i, Fraction(0)) + coeff * c
    return {i: c for i, c in total.items() if c} == target


def verify_certificate(problem: ProverProblem, certificate) -> bool:
    """Exact re-summation: the combination must equal the target, with
    non-negative weights on the inequality generators."""
    return _certificate_holds(_column_table(problem), _column(problem.target), certificate)


def _separating_vector_checks(farkas, columns, target_vec) -> bool:
    """Exact Farkas check for a NotProvable verdict: the dual vector must be
    non-positive against every generator column (hence zero against the
    equality pairs) and strictly positive against the target."""
    if farkas is None:
        return False
    for col in columns:
        if sum((farkas.get(i, Fraction(0)) * c for i, c in col.items()), Fraction(0)) > 0:
            return False
    against_target = sum(
        (farkas.get(i, Fraction(0)) * c for i, c in target_vec.items()), Fraction(0)
    )
    return against_target > 0


def _solve_exact(columns, target_vec, n_rows, restrict=None):
    """Exact feasibility over the given columns (all by default); the solution
    is a list of (column index, weight) pairs, or None when infeasible."""
    cols = list(range(len(columns))) if restrict is None else sorted(restrict)
    result = solve_feasibility([columns[j] for j in cols], target_vec, n_rows)
    if not result.feasible:
        return None, result
    return [(cols[j], coeff) for j, coeff in sorted(result.solution.items())], result


def prove(problem: ProverProblem, method: str = "auto") -> ProofResult:
    """Decide Shannon-derivability of the target under the constraints."""
    n_rows = (1 << len(problem.variables)) - 1
    table = _column_table(problem)
    labels = list(table)
    n_elemental = len(labels) - len(problem.constraints)
    # LP column j is table entry origin[j] times a sign: one column per
    # elemental, a (+, -) pair per equality
    origin = [(t, 1) for t in range(n_elemental)]
    for t in range(n_elemental, len(labels)):
        origin += [(t, 1), (t, -1)]
    columns = [
        table[labels[t]] if sign == 1 else {i: -c for i, c in table[labels[t]].items()}
        for t, sign in origin
    ]
    target_vec = _column(problem.target)

    solution = None
    if method == "auto":
        support = _float_support(columns, target_vec, n_rows)
        if support is not None:
            solution, _ = _solve_exact(columns, target_vec, n_rows, restrict=support)
            if solution is None:
                widened = set(support) | set(range(n_elemental, len(columns)))
                solution, _ = _solve_exact(columns, target_vec, n_rows, restrict=widened)
    if solution is None:
        solution, result = _solve_exact(columns, target_vec, n_rows)
        if solution is None and not _separating_vector_checks(
            result.farkas, columns, target_vec
        ):
            raise ProverError(
                f"internal error: infeasibility certificate for {problem.name} fails its checks"
            )
    if solution is not None:
        # fold the +/- columns of each equality into one signed entry
        signed: dict[int, Fraction] = {}
        for j, coeff in solution:
            t, sign = origin[j]
            signed[t] = signed.get(t, Fraction(0)) + sign * coeff
        cert = tuple((labels[t], c) for t, c in signed.items() if c)
        if not _certificate_holds(table, target_vec, cert):
            raise ProverError(f"internal error: certificate for {problem.name} fails re-summation")
        return ProofResult(
            status="Provable",
            certificate=cert,
            message=f"target {problem.describe_expr(problem.target)} is a non-negative "
            "combination of elemental inequalities and constraints",
            problem=problem,
        )
    return ProofResult(
        status="NotProvable",
        certificate=None,
        message="not derivable from Shannon-type inequalities plus the given "
        "constraints; the inequality may still hold",
        problem=problem,
    )


def _float_support(columns, target_vec, n_rows) -> set[int] | None:
    """Feasible support suggested by a floating LP, or None when it reports
    infeasibility (the exact solver then has the final word)."""
    n_cols = len(columns)
    data, rows_idx, cols_idx = [], [], []
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows_idx.append(i)
            cols_idx.append(j)
            data.append(float(c))
    a_eq = sparse.csc_matrix((data, (rows_idx, cols_idx)), shape=(n_rows, n_cols))
    b_eq = np.zeros(n_rows)
    for i, c in target_vec.items():
        b_eq[i] = float(c)
    # minimizing the weight total keeps the support sparse; the interior-point
    # solver (with its default crossover) is far faster than simplex here
    res = linprog(
        c=np.ones(n_cols),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs-ipm",
    )
    if not res.success:
        return None
    return {j for j, x in enumerate(res.x) if x > 1e-9}


# -- numeric evaluation of prover expressions -----------------------------------


def evaluate_expr(
    expr: Expr, variables: Sequence[str], network: NetworkGraph, dist
) -> float:
    """Evaluate a linear entropy expression on a concrete network."""
    ids = [VariableId.parse(v) for v in variables]
    total = 0.0
    for mask, coeff in expr.items():
        subset = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        total += float(coeff) * network_entropy(network, dist, subset)
    return total


# -- per-bound residue problems --------------------------------------------------


def appendix_targets(bound_id: str) -> list[ProverProblem]:
    """Single-letter residue inequalities for the bound's cut chain.

    For every chain term with non-empty conditioning, the claim is
    H(Y_target | V-copies pinned down) - H(Y_target | pinning inputs/outputs)
    >= 0, over just the replicas that step touches.
    """
    from .extend import bound_support_info, builtin_recipe

    # a constant-size recipe ignores k
    recipe = builtin_recipe(bound_id, 2 if bound_support_info(bound_id)["users"] == 2 else 1)
    wiring = recipe.recipe.wiring_map()
    problems = []
    for term in recipe.closed_terms:
        if not term.evidence:
            continue  # unconditioned opening term
        target = term.target

        def copy_of(user):
            if user == target[0]:
                return target
            return next(w for w in wiring[target] if w[0] == user)

        replica_vars: dict[tuple[int, int], set[str]] = {}

        def touch(r, kinds):
            replica_vars.setdefault(r, set()).update(kinds)

        touch(target, {"X", "Y"})
        for w in wiring[target]:
            touch(w, {"V"})
        if target[0] in term.given:
            touch(target, {"V"})
        # each evidence receiver contributes its (input, output) pair and pins
        # exactly the interference copies this step conditions on
        cond_names: list[str] = []
        pinned: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for user, (how, r) in term.evidence:
            if how == "peeled":
                touch(r, {"X", "V"})
                cond_names.append(str(VariableId("X", r[0], r[1])))
            else:
                touch(r, {"X", "Y"})
                pinned.setdefault(r, []).append(copy_of(user))
        for r in sorted(pinned):
            cond_names.append(str(VariableId("X", r[0], r[1])))
            cond_names.append(str(VariableId("Y", r[0], r[1])))
        order = sorted(replica_vars)
        variables = []
        for r in order:
            for kind in ("X", "V", "Y"):
                if kind in replica_vars[r]:
                    variables.append(str(VariableId(kind, r[0], r[1])))
        variables = tuple(variables)
        present = set(variables)
        constraints = [
            eq for r in order for eq in _receiver_equalities(variables, r, wiring[r], pinned.get(r, ()))
        ]
        roots = []
        for r in order:
            x = str(VariableId("X", r[0], r[1]))
            v = str(VariableId("V", r[0], r[1]))
            if x in present:
                roots.append(x)
            elif v in present:
                roots.append(v)
        if len(roots) > 1:
            constraints.append(("independent sources", _independence_expr(variables, roots)))

        y_t = str(VariableId("Y", target[0], target[1]))
        given_copies = [
            str(VariableId("V", c[0], c[1]))
            for c in (copy_of(u) for u in sorted(term.given))
        ]
        closed_expr = entropy_diff(variables, [y_t], given_copies)
        chain_expr = entropy_diff(variables, [y_t], cond_names)
        problems.append(
            ProverProblem(
                variables=variables,
                constraints=tuple(constraints),
                target=expr_sub(closed_expr, chain_expr),
                name=f"{bound_id} level {term.level}: "
                f"{term.describe()} dominates the chain term",
            )
        )
    if not problems:
        raise UnsupportedBoundError(f"bound {bound_id} has no conditioned chain terms")
    return problems
