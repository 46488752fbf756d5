"""Entropic-vector LP prover for conditional-entropy inequalities.

A target expression is Provable when it is a non-negative rational combination
of the elemental Shannon inequalities plus the channel's structural equalities
(interference = function of input, output = function of input and
interference, interference recoverable from input and output, independent
sources).  NotProvable means exactly that no such combination exists; the
inequality may still hold for reasons outside this system.  Besides problems
given by hand, ``appendix_targets`` writes one residue per conditioned step of
a bound's cut chain, over the replicas that step touches.

Search is float-guided (scipy's HiGHS) for speed, but every verdict rests on
exact rational arithmetic.  One float LP runs per verdict, the dual
max b.y subject to A^T y <= 0 and -1 <= y <= 1.  When its optimum is 0, its
constraint marginals are a float solution of A x = b, x >= 0 whose support is
a basis, and the exact solver runs on that support alone; the certificate it
yields re-sums to the target exactly.  When its optimum is positive, the
rationalized y is offered to ``exactlp.solve_feasibility`` as a candidate
separating vector, with y.g <= 0 for every generator g and y.target > 0.  If
the float solve fails, or its support or candidate fails the exact check, the
full exact simplex decides.

Both LPs run over closed sets, a smaller system.  A constraint of the exact
shape h(A u B) - h(A) with A non-empty is a functional dependency (FD), and on
the constrained cone h(S) = h(cl S), where cl S is the closure of S under the
FDs.  So every generator maps through h(S) -> h(cl S): the rows are the
non-empty closed sets, the FD columns vanish, zero and repeated elemental
columns are dropped, and every other constraint stays a (+, -) column pair.
The elementals themselves are one integer table per n.  Verdicts are lifted
back to the unreduced system and checked there:

- a separating vector y_red of the reduced LP lifts to y(S) = y_red(cl S),
  which ``exactlp.separates`` checks against every unreduced column;
- a reduced solution leaves the residual R = target - sum(weights *
  generators) with R = sum_S r_S (h(S) - h(cl S)) over the sets S that are
  not closed.  When r_S < 0 the term is |r_S| H(cl S \\ S | S).  When r_S > 0
  the FDs fire from S up to cl S, and each step S_t -> S_t u B by
  H(B|A) = 0 (A in S_t, D = B n S_t) adds
  -H(B|A) + I(B \\ S_t; S_t \\ (A u D) | A u D) + H(D|A).  Every term is
  written out in elementals by the chain rule, and ``verify_certificate``
  re-sums the whole certificate exactly before it is returned.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .entropy import VariableId
from .errors import ProverError, UnsupportedBoundError
from .exactlp import separates, solve_feasibility
from .networks import NetworkGraph, network_entropy, replicas_from_counts

MAX_VARIABLES = 12

# generator labels are built from variable names, so a name may not contain
# the separators the labels use
_NAME_RE = re.compile(r"[^\s,;|()]+")

Expr = dict[int, Fraction]  # subset bitmask -> coefficient


def _mask_name(mask: int, variables: Sequence[str]) -> str:
    return ",".join(v for i, v in enumerate(variables) if mask >> i & 1)


def _mask(variables: Sequence[str], names: Iterable[str]) -> int:
    """The subset bitmask of the named variables."""
    index = {v: i for i, v in enumerate(variables)}
    mask = 0
    for name in names:
        if name not in index:
            raise ProverError(f"expression references unknown variable {name!r}")
        mask |= 1 << index[name]
    return mask


def _name(kind: str, replica: tuple[int, int]) -> str:
    """The variable name of a replica's X, V or Y."""
    return str(VariableId(kind, *replica))


def expr_from_names(variables: Sequence[str], terms: Mapping[str, object]) -> Expr:
    """Build an expression from {"X1 V2": coeff} style entries."""
    if not isinstance(terms, Mapping):
        raise ProverError("an expression maps space-separated variable names to coefficients")
    expr: Expr = {}
    for names, coeff in terms.items():
        mask = _mask(variables, names.split())
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
    mask_b = _mask(variables, b)
    return expr_sub({mask_b | _mask(variables, a): Fraction(1)}, {mask_b: Fraction(1)} if mask_b else {})


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
        # zero coefficients are dropped, as expr_from_names does, so that the
        # target compares equal to a re-summed certificate and a dependency
        # with a stray zero term keeps its shape
        constraints = tuple((label, {m: c for m, c in expr.items() if c}) for label, expr in self.constraints)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "target", {m: c for m, c in self.target.items() if c})

    def describe_expr(self, expr: Expr) -> str:
        parts = []
        for mask in sorted(expr):
            parts.append(f"{expr[mask]}*H({_mask_name(mask, self.variables)})")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ProofResult:
    """A verdict.  A Provable one carries its certificate; a NotProvable one
    carries ``separating_vector``, an exactly checked y (by subset mask) that
    is non-positive on every generator and positive on the target.  ``path``
    names the step that decided: "guided" (exact solve on the support of the
    float dual's marginals), "dual" (the float dual's vector passed the exact
    check) or "exact" (the full simplex)."""

    status: str  # "Provable" | "NotProvable"
    certificate: tuple[tuple[str, Fraction], ...] | None
    message: str
    problem: "ProverProblem | None" = field(repr=False, default=None)
    separating_vector: Expr | None = field(repr=False, default=None)
    path: str = "exact"

    @property
    def provable(self) -> bool:
        return self.status == "Provable"


@dataclass(frozen=True)
class _ElementalTable:
    """The elemental inequalities on n variables as integer arrays.  Column t
    is H(a|K) when b[t] < 0 and I(a;b|K) otherwise, with K = k[t]; masks[t]
    and signs[t] are its joint-entropy terms, padded with mask 0 and sign 0."""

    n: int
    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    masks: np.ndarray  # (columns, 4) subset bitmasks
    signs: np.ndarray  # (columns, 4) in {-1, 0, 1}
    pair_index: np.ndarray  # ((a * n + b) << n) | K -> t of I(a;b|K), a < b

    def mutual(self, i: int, j: int, k: int) -> int:
        """The column I(i;j|K)."""
        a, b = min(i, j), max(i, j)
        return int(self.pair_index[((a * self.n + b) << self.n) | k])


@functools.cache
def _elemental_table(n: int) -> _ElementalTable:
    full = (1 << n) - 1
    a, b, k = [np.arange(n)], [np.full(n, -1)], [full & ~(1 << np.arange(n))]
    if n == 2:
        a, b, k = a + [np.arange(2)], b + [np.full(2, -1)], k + [np.zeros(2, dtype=int)]
    if n >= 2:
        # conditioning sets over the other n - 2 positions, by size then
        # lexicographically, then spread onto the variables of each pair
        spread = np.array(
            [sum(1 << p for p in ks) for r in range(n - 1) for ks in combinations(range(n - 2), r)]
        )
        for i, j in combinations(range(n), 2):
            others = [t for t in range(n) if t not in (i, j)]
            ks = np.zeros_like(spread)
            for p, bit in enumerate(others):
                ks |= (spread >> p & 1) << bit
            a.append(np.full(len(spread), i))
            b.append(np.full(len(spread), j))
            k.append(ks)
    a, b, k = (np.concatenate(x).astype(np.int64) for x in (a, b, k))
    single = b < 0
    bit_a = 1 << a
    bit_b = np.where(single, 0, 1 << np.maximum(b, 0))
    masks = np.stack(
        [bit_a | k, np.where(single, k, bit_b | k), np.where(single, 0, bit_a | bit_b | k), np.where(single, 0, k)],
        axis=1,
    )
    signs = np.where(single[:, None], np.array([1, -1, 0, 0]), np.array([1, 1, -1, -1]))
    signs = np.where(masks == 0, 0, signs)
    pair_index = np.full((n * n) << n, -1, dtype=np.int32)
    pairs = np.flatnonzero(~single)
    pair_index[((a[pairs] * n + b[pairs]) << n) | k[pairs]] = pairs
    for array in (a, b, k, masks, signs, pair_index):
        array.flags.writeable = False  # shared by every later call for this n
    return _ElementalTable(n, a, b, k, masks, signs, pair_index)


class _Elementals(Sequence):
    """The elemental inequalities on named variables: a sequence of
    (label, Expr) pairs, each built on access from the per-n table."""

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self.table = _elemental_table(len(self.names))
        self.position = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.table.a)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        t = range(len(self))[t]
        return self.label(t), self.terms(t)

    def label(self, t: int) -> str:
        a, b, k = (int(x[t]) for x in (self.table.a, self.table.b, self.table.k))
        cond = f"|{_mask_name(k, self.names)}" if k else ""
        return f"H({self.names[a]}{cond})" if b < 0 else f"I({self.names[a]};{self.names[b]}{cond})"

    def terms(self, t: int) -> Expr:
        return {int(m): Fraction(int(s)) for m, s in zip(self.table.masks[t], self.table.signs[t]) if s}

    def find(self, label) -> int | None:
        """The index of the generator labelled exactly ``label``, or None.
        No name contains , ; | ( ), so a label splits into names unambiguously;
        the generator must render back to the same label, which rejects a
        reversed pair, a repeated or unordered conditioning name and a
        non-elemental H(a|K)."""
        if not isinstance(label, str) or label[:2] not in ("H(", "I(") or label[-1:] != ")":
            return None
        head, bar, cond = label[2:-1].partition("|")
        heads = head.split(";")
        names = heads + (cond.split(",") if bar else [])
        if len(heads) != (1 if label[0] == "H" else 2) or any(name not in self.position for name in names):
            return None
        bits = [self.position[name] for name in names]
        n = len(self.names)
        if label[0] == "H":
            # H(a|rest) is column a; a bare H(a) is column n + a at n = 2
            t = bits[0] + (n if n == 2 and not bar else 0)
        else:
            t = self.table.mutual(bits[0], bits[1], sum({1 << bit for bit in bits[2:]}))
        return t if t >= 0 and self.label(t) == label else None


def elemental_inequalities(variables: int | Sequence[str]) -> Sequence[tuple[str, Expr]]:
    """Generators of the polyhedral Shannon cone on the given variables.

    Monotonicity H(all) - H(all minus one) and conditional mutual
    informations I(i;j|K); for n <= 2 the single-variable non-negativities
    are included as well (they are implied for larger n).  Labels name the
    variables; a bare count n names them Z1..Zn.  The result is a sequence
    view over one integer table per n, built on first use, and each
    (label, Expr) item is built when it is read.
    """
    names = [f"Z{i+1}" for i in range(variables)] if isinstance(variables, int) else list(variables)
    if len(names) < 1:
        raise ProverError("n must be >= 1")
    return _Elementals(names)


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
    x, v, y = (_name(kind, r) for kind in "XVY")
    out: list[tuple[str, Expr]] = []
    if x in present and v in present:
        out.append((f"H({v}|{x})=0", entropy_diff(variables, [v], [x])))
    if x in present and y in present:
        wired_v = [_name("V", w) for w in wired]
        if present.issuperset(wired_v):
            out.append((f"H({y}|{x},{','.join(wired_v)})=0", entropy_diff(variables, [y], [x] + wired_v)))
            out.append((f"H({','.join(wired_v)}|{x},{y})=0", entropy_diff(variables, wired_v, [x, y])))
        elif pinned:
            names = [_name("V", c) for c in sorted(set(pinned))]
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
    variables = tuple(_name(kind, r) for r in replicas for kind in "XVY")
    constraints: list[tuple[str, Expr]] = []
    all_x = [_name("X", r) for r in replicas]
    for r in replicas:
        constraints += _receiver_equalities(variables, r, wiring[r])
        y = _name("Y", r)
        constraints.append((f"H({y}|inputs)=0", entropy_diff(variables, [y], all_x)))
    constraints.append(("independent sources", _independence_expr(variables, all_x)))
    return variables, tuple(constraints)


def _independence_expr(variables: Sequence[str], roots: Sequence[str]) -> Expr:
    """H(roots) - sum of H(root), which independent roots (two or more) make zero."""
    return {**{_mask(variables, [r]): Fraction(-1) for r in roots}, _mask(variables, roots): Fraction(1)}


# -- solving -------------------------------------------------------------------


def verify_certificate(problem: ProverProblem, certificate) -> bool:
    """Exact re-summation: the combination must equal the target, with
    non-negative weights on the inequality generators.  Each line names an
    elemental by its label or a constraint as ``[=]<name>``; only the
    generators named are looked up."""
    elementals = _Elementals(problem.variables)
    constraints = {f"[=]{label}": expr for label, expr in problem.constraints}
    total: Expr = {}
    for label, coeff in certificate:
        if label in constraints:
            expr = constraints[label]
        else:
            t = elementals.find(label)
            if t is None or coeff < 0:
                return False
            expr = elementals.terms(t)
        for m, c in expr.items():
            total[m] = total.get(m, Fraction(0)) + coeff * c
    return {m: c for m, c in total.items() if c} == problem.target


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _functional_dependencies(constraints) -> list[tuple[int, int, int]]:
    """(constraint index, A, A u B) for every constraint of the exact shape
    h(A u B) - h(A) with A non-empty, that is H(B | A) = 0."""
    fds = []
    for c, (_, expr) in enumerate(constraints):
        up = [m for m, v in expr.items() if v == 1]
        down = [m for m, v in expr.items() if v == -1]
        if len(expr) == 2 and len(up) == len(down) == 1 and down[0] & ~up[0] == 0:
            fds.append((c, down[0], up[0]))
    return fds


class _ClosedSetLP:
    """The prover's LP over the sets closed under the problem's functional
    dependencies (FDs).  Every generator maps through h(S) -> h(cl S): the
    FDs vanish, zero and repeated elemental columns are dropped (the first
    index is kept), and every other constraint stays a (+, -) column pair.

    Generator g is elemental g when g < len(elementals), else constraint
    g - len(elementals); reduced column j is generator ``gens[j]`` times
    ``signs[j]``.  Rows are the non-empty closed sets."""

    def __init__(self, elementals: _Elementals, problem: ProverProblem):
        n = len(problem.variables)
        table = elementals.table
        self.elementals, self.problem, self.table = elementals, problem, table
        self.n_elementals = len(elementals)
        self.fds = _functional_dependencies(problem.constraints)
        closure = np.arange(1 << n)
        changed = bool(self.fds)
        while changed:
            changed = False
            for _, a, u in self.fds:
                fire = (closure & a == a) & (closure & u != u)
                if fire.any():
                    closure[fire] |= u
                    changed = True
        self.closure = closure
        closed = np.flatnonzero(closure == np.arange(1 << n))[1:]
        row = np.full(1 << n, -1)
        row[closed] = np.arange(len(closed))
        self.row_of = row[closure]  # reduced row of every mask; -1 for the empty set
        self.n_rows = len(closed)

        # elemental columns on reduced rows: merge terms that land on one
        # row, then sort each column's terms into a canonical order
        rows, signs = self.row_of[table.masks], table.signs.copy()
        order = np.argsort(rows, axis=1, kind="stable")
        rows, signs = np.take_along_axis(rows, order, 1), np.take_along_axis(signs, order, 1)
        for s in range(1, rows.shape[1]):
            same = rows[:, s] == rows[:, s - 1]
            signs[same, s] += signs[same, s - 1]
            signs[same, s - 1] = 0
        rows = np.where(signs == 0, -1, rows)
        order = np.argsort(rows, axis=1, kind="stable")
        rows, signs = np.take_along_axis(rows, order, 1), np.take_along_axis(signs, order, 1)
        _, first = np.unique(np.concatenate([rows, signs], axis=1), axis=0, return_index=True)
        kept = np.sort(first)
        kept = kept[(signs[kept] != 0).any(axis=1)]
        self.rows, self.row_signs = rows[kept], signs[kept]
        self.gens = kept.tolist()
        self.signs = [1] * len(kept)
        self.n_elemental_columns = len(kept)

        self.constraint_columns: dict[int, dict[int, Fraction]] = {}
        fd_index = {c for c, _, _ in self.fds}
        for c, (_, expr) in enumerate(problem.constraints):
            if c in fd_index:
                continue
            col = self.reduce(expr)
            if col:
                self.constraint_columns[c] = col
                self.gens += [self.n_elementals + c] * 2
                self.signs += [1, -1]
        self.target = self.reduce(problem.target)

    @property
    def n_columns(self) -> int:
        return len(self.gens)

    def reduce(self, expr: Expr) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for m, c in expr.items():
            r = int(self.row_of[m])
            out[r] = out.get(r, Fraction(0)) + c
        return {r: c for r, c in out.items() if c}

    def column(self, j: int) -> dict[int, object]:
        """Reduced column j, exactly (integer or Fraction entries)."""
        if j < self.n_elemental_columns:
            return {int(r): int(s) for r, s in zip(self.rows[j], self.row_signs[j]) if s}
        col = self.constraint_columns[self.gens[j] - self.n_elementals]
        return col if self.signs[j] == 1 else {r: -c for r, c in col.items()}

    def float_system(self):
        """A (sparse, one column per reduced column) and b in floats."""
        from scipy import sparse

        nz = self.row_signs != 0
        rows_idx = [self.rows[nz]]
        cols_idx = [np.nonzero(nz)[0]]
        data = [self.row_signs[nz].astype(float)]
        for j in range(self.n_elemental_columns, self.n_columns):
            col = self.column(j)
            rows_idx.append(np.fromiter(col, dtype=np.int64, count=len(col)))
            cols_idx.append(np.full(len(col), j))
            data.append(np.fromiter((float(c) for c in col.values()), dtype=float, count=len(col)))
        a_eq = sparse.csc_matrix(
            (np.concatenate(data), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
            shape=(self.n_rows, self.n_columns),
        )
        b_eq = np.zeros(self.n_rows)
        for r, c in self.target.items():
            b_eq[r] = float(c)
        return a_eq, b_eq

    def terms(self, g: int) -> Expr:
        """Generator g on the unreduced sets, by subset mask."""
        if g < self.n_elementals:
            return self.elementals.terms(g)
        return self.problem.constraints[g - self.n_elementals][1]

    def label(self, g: int) -> str:
        if g < self.n_elementals:
            return self.elementals.label(g)
        return f"[=]{self.problem.constraints[g - self.n_elementals][0]}"

    def lift_vector(self, y: Mapping[int, Fraction]) -> Expr:
        """y(S) = y_red(cl S) for every non-empty set S."""
        return {mask: y[r] for mask, r in enumerate(self.row_of.tolist()) if mask and y.get(r)}

    def lift_certificate(self, solution: Iterable[tuple[int, Fraction]]) -> dict[int, Fraction]:
        """Generator weights that sum to the target on the unreduced sets.

        The reduced solution leaves a residual R = target - sum(weights *
        generators) with R(cl) = 0, so R = sum_S r_S (h(S) - h(cl S)) over the
        sets that are not closed, r_S = R(S); each such term is written out in
        elementals and FDs."""
        cert: dict[int, Fraction] = {}
        residual = dict(self.problem.target)
        for j, weight in solution:
            g, coeff = self.gens[j], self.signs[j] * weight
            cert[g] = cert.get(g, Fraction(0)) + coeff
            for m, c in self.terms(g).items():
                residual[m] = residual.get(m, Fraction(0)) - coeff * c
        for s, r in sorted(residual.items()):
            cl = int(self.closure[s])
            if not r or cl == s:
                continue
            if r < 0:
                # |r| (h(cl S) - h(S)) = |r| H(cl S \ S | S) >= 0
                self._add_entropy(cert, -r, cl & ~s, s)
                continue
            # r (h(S) - h(cl S)): fire the FDs from S up to cl S; each step
            # S_t -> S_t u B by H(B|A) = 0 (A in S_t) is, with D = B n S_t,
            # -H(B \ S_t | S_t) = -H(B|A) + H(D|A) + I(B \ S_t; S_t \ (A u D) | A u D)
            current = s
            while current != cl:
                c, a, u = next(fd for fd in self.fds if fd[1] & ~current == 0 and fd[2] & ~current)
                b = u & ~a
                d = b & current
                g = self.n_elementals + c
                cert[g] = cert.get(g, Fraction(0)) - r
                self._add_entropy(cert, r, d, a)
                self._add_mutual(cert, r, b & ~current, current & ~(a | d), a | d)
                current |= u
        return cert

    def _add_entropy(self, cert, coeff, d_mask: int, a_mask: int) -> None:
        """coeff * H(D | A), D and A disjoint, by the chain rule: each
        H(d | K) = H(d | every other) + I(d; the rest | K)."""
        full = (1 << self.table.n) - 1
        known = a_mask
        for d in _bits(d_mask):
            cert[d] = cert.get(d, Fraction(0)) + coeff  # column d is H(d | every other)
            self._add_mutual(cert, coeff, 1 << d, full & ~known & ~(1 << d), known)
            known |= 1 << d

    def _add_mutual(self, cert, coeff, x_mask: int, y_mask: int, z_mask: int) -> None:
        """coeff * I(X; Y | Z), X, Y and Z disjoint, by the chain rule."""
        cond_x = z_mask
        for x in _bits(x_mask):
            cond = cond_x
            for y in _bits(y_mask):
                t = self.table.mutual(x, y, cond)
                cert[t] = cert.get(t, Fraction(0)) + coeff
                cond |= 1 << y
            cond_x |= 1 << x

    def generator_columns(self):
        """Every unreduced generator by subset mask, equalities as (+, -)
        pairs, built one at a time."""
        for masks, signs in zip(self.table.masks.tolist(), self.table.signs.tolist()):
            yield {m: s for m, s in zip(masks, signs) if s}
        for _, expr in self.problem.constraints:
            yield expr
            yield {m: -c for m, c in expr.items()}


def _solve_exact(lp: _ClosedSetLP, restrict: Iterable[int], candidate=None):
    """Exact feasibility over the given reduced columns; the solution is a
    list of (column index, weight) pairs, or None when infeasible."""
    cols = sorted(restrict)
    result = solve_feasibility([lp.column(j) for j in cols], lp.target, lp.n_rows, candidate)
    if not result.feasible:
        return None, result
    return [(cols[j], coeff) for j, coeff in sorted(result.solution.items())], result


def prove(problem: ProverProblem) -> ProofResult:
    """Decide Shannon-derivability of the target under the constraints.

    One float LP guides the exact solver (path ``guided`` or ``dual``); when
    its guidance fails, the exact simplex runs over every column (path
    ``exact``).  Both solve the LP over closed sets and lift the verdict back
    to the unreduced system, where it is checked exactly.
    """
    lp = _ClosedSetLP(elemental_inequalities(problem.variables), problem)
    solution, path = None, "exact"
    support, candidate = _float_dual(*lp.float_system())
    if support is not None:
        solution, _ = _solve_exact(lp, support)
        if solution is not None:
            path = "guided"
    if solution is None:
        solution, result = _solve_exact(lp, range(lp.n_columns), candidate)
        if solution is None and result.farkas is candidate:
            path = "dual"
    if solution is not None:
        cert = tuple((lp.label(g), c) for g, c in sorted(lp.lift_certificate(solution).items()) if c)
        if not verify_certificate(problem, cert):
            raise ProverError(f"internal error: certificate for {problem.name} fails re-summation")
        return ProofResult(
            status="Provable",
            certificate=cert,
            message=f"target {problem.describe_expr(problem.target)} is a non-negative "
            "combination of elemental inequalities and constraints",
            problem=problem,
            path=path,
        )
    y = lp.lift_vector(result.farkas)
    if not separates(y, lp.generator_columns(), problem.target):
        raise ProverError(f"internal error: separating vector for {problem.name} fails its exact check")
    return ProofResult(
        status="NotProvable",
        certificate=None,
        message="not derivable from Shannon-type inequalities plus the given "
        "constraints; the inequality may still hold",
        problem=problem,
        separating_vector=y,
        path=path,
    )


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on the first call, so that importing
    dicbound and the entropy engine never load scipy."""
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


def _float_dual(a_eq, b_eq) -> tuple[set[int] | None, dict[int, Fraction] | None]:
    """The one float LP: max b.y subject to A^T y <= 0 and -1 <= y <= 1.

    A positive optimum returns (None, y) with y rationalized, a candidate
    Farkas vector that only ``solve_feasibility``'s exact check can accept.
    An optimum of 0 returns (support, None): the constraint marginals are
    then a float solution of A x = b, x >= 0, and their support is a basis
    for the exact solve.  A failed solve returns (None, None)."""
    # dual simplex with devex pricing returns a vertex, whose entries have
    # small denominators; on -I(Z1;Z2) at n = 12 it took 2.3 s, against 104 s
    # with the default steepest-edge pricing and over 15 minutes with the
    # interior-point solver.  Presolve is off: with it, the prove benchmark
    # ran about 100 operations per second instead of 119, at higher peak RSS
    res = linprog(
        c=-b_eq,
        A_ub=a_eq.T.tocsr(),
        b_ub=np.zeros(a_eq.shape[1]),
        bounds=(-1, 1),
        method="highs-ds",
        options={"simplex_dual_edge_weight_strategy": "devex", "presolve": False},
    )
    if not res.success:
        return None, None
    if -res.fun <= 1e-9:
        return set(np.flatnonzero(-res.ineqlin.marginals > 1e-9).tolist()), None
    # a vertex takes few distinct values: rationalize each once
    rational = {y: Fraction(y).limit_denominator(1000) for y in set(res.x.tolist())}
    return None, {i: rational[y] for i, y in enumerate(res.x.tolist()) if rational[y]}


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
    >= 0, over just the replicas that step touches.  ``kinds`` maps each
    touched replica to its X/V/Y kinds in the residue, and ``copy`` maps each
    user to the replica whose V the step reads: the target for its own user,
    the target's wired copy for every other user.
    """
    from .extend import bound_support_info, builtin_recipe

    # a constant-size recipe ignores k
    recipe = builtin_recipe(bound_id, 2 if bound_support_info(bound_id)["users"] == 2 else 1)
    wiring = dict(recipe.recipe.wiring)
    problems = []
    for term in recipe.closed_terms:
        if not term.evidence:
            continue  # unconditioned opening term
        target = term.target
        copy = {w[0]: w for w in wiring[target]} | {target[0]: target}
        kinds = {w: set("V") for w in wiring[target]} | {target: set("XVY" if target[0] in term.given else "XY")}
        # each evidence receiver contributes its (input, output) pair and pins
        # exactly the interference copies this step conditions on
        cond: list[str] = []
        pinned: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for user, (how, r) in term.evidence:
            if how == "peeled":
                kinds.setdefault(r, set()).update("XV")
                cond.append(_name("X", r))
            else:
                kinds.setdefault(r, set()).update("XY")
                pinned.setdefault(r, []).append(copy[user])
        cond += [_name(kind, r) for r in sorted(pinned) for kind in "XY"]
        order = sorted(kinds)
        variables = tuple(_name(kind, r) for r in order for kind in "XVY" if kind in kinds[r])
        constraints = [eq for r in order for eq in _receiver_equalities(variables, r, wiring[r], pinned.get(r, ()))]
        # every touched replica carries its X (target, receivers, peeled) or its V (wired copies)
        if len(order) > 1:
            roots = [_name("X" if "X" in kinds[r] else "V", r) for r in order]
            constraints.append(("independent sources", _independence_expr(variables, roots)))
        y = _name("Y", target)
        given = [_name("V", copy[u]) for u in sorted(term.given)]
        problems.append(
            ProverProblem(
                variables=variables,
                constraints=tuple(constraints),
                target=expr_sub(entropy_diff(variables, [y], given), entropy_diff(variables, [y], cond)),
                name=f"{bound_id} level {term.level}: {term.describe()} dominates the chain term",
            )
        )
    if not problems:
        raise UnsupportedBoundError(f"bound {bound_id} has no conditioned chain terms")
    return problems
