"""Entropic-vector LP prover for conditional-entropy inequalities.

A target expression is Provable when it is a non-negative rational combination
of the elemental Shannon inequalities plus the channel's structural equalities
(interference = function of input, output = function of input and
interference, interference recoverable from input and output, independent
sources).  NotProvable means exactly that no such combination exists; the
inequality may still hold for reasons outside this system.  Besides problems
given by hand, ``appendix_targets`` writes one residue per conditioned step of
a bound's cut chain, over the replicas that step touches.

Search is float-guided for speed, but every verdict rests on exact rational
arithmetic.  One float LP runs per verdict, the dual max b.y subject to
A^T y <= 0 and -1 <= y <= 1.  Its matrix is built as the sparse rows of A^T
and goes straight to HiGHS's dual simplex, through the HiGHS bindings that
scipy bundles.  One solver, built on the first float LP and given its
options once, serves the float LPs of the process, and is built again only
after an LP with more than ``_KEPT_NONZEROS`` non-zeros; it is not
re-entrant, and the library starts no threads.  When its optimum is 0, its
row duals are minus a float solution of A x = b, x >= 0 whose support is a
basis, and the exact solver runs on that support alone; the certificate it
yields re-sums to the target exactly.  When its optimum is positive, the
rationalized y is offered to ``exactlp.solve_feasibility`` as a candidate
separating vector, with y.g <= 0 for every generator g and y.target > 0.
If the float solve fails, or its support or candidate fails the exact
check, the full exact simplex decides.

Both LPs run over closed sets, a smaller system.  A constraint of the exact
shape h(A u B) - h(A) with A non-empty is a functional dependency (FD), and on
the constrained cone h(S) = h(cl S), where cl S is the closure of S under the
FDs.  So every generator maps through h(S) -> h(cl S): the rows are the
non-empty closed sets, the FD columns vanish, zero and repeated elemental
columns are dropped, and every other constraint stays a (+, -) column pair.
The elementals themselves are one integer table per n, a subset mask and a
sign per joint-entropy term, and each label is read off its row.  Each
system is kept once, as an ``exactlp.Columns`` container: the unreduced
generators are that table as the integer block, then every constraint as a
(+, -) pair; the reduced columns are the reduced elementals, sorted and
merged on one packed integer code per term, then the pairs that do not
vanish.  Without an FD the closure is the identity, so the reduced
elementals depend on n alone: they are reduced once per n and shared,
read-only.  Each reduced column names its generator, so a constraint line's
sign is the parity of its pair.  Verdicts are lifted back to the unreduced
system and checked there:

- a separating vector y_red of the reduced LP lifts to y(S) = y_red(cl S),
  which ``exactlp.separates`` checks against every unreduced column, the
  elementals in one exact integer array expression;
- a reduced solution leaves the residual R = target - sum(weights *
  generators) with R = sum_S r_S (h(S) - h(cl S)) over the sets S that are
  not closed.  When r_S < 0 the term is |r_S| H(cl S \\ S | S).  When r_S > 0
  the FDs fire from S up to cl S, and each step S_t -> S_t u B by
  H(B|A) = 0 (A in S_t, D = B n S_t) adds -H(B|A), H(D|A) when D is
  non-empty, and I(B \\ S_t; S_t \\ (A u D) | A u D) when its second side is.
  So each certificate line is a constraint or one basic inequality H(A|C) or
  I(A;B|C) over disjoint sets (ITIP's proof form); ``verify_certificate``
  re-sums the whole certificate exactly before it is returned.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .entropy import VariableId
from .errors import ProverError, UnsupportedBoundError
from .exactlp import Columns, separates, solve_feasibility
from .networks import replicas_from_counts

MAX_VARIABLES = 12

# generator labels are built from variable names, so a name may not contain
# the separators the labels use
_NAME_RE = re.compile(r"[^\s,;|()]+")

Expr = dict[int, Fraction]  # subset bitmask -> coefficient


def _mask_name(mask: int, variables: Sequence[str]) -> str:
    return ",".join(v for i, v in enumerate(variables) if mask >> i & 1)


def _basic_label(variables: Sequence[str], a: int, b: int, c: int) -> str:
    """The one spelling of the basic inequality H(A|C) (b = 0) or I(A;B|C),
    for every certificate and elemental label: names in variable order, the
    I-sides ordered by their first variable, and no bar when C is empty."""
    if b and b & -b < a & -a:
        a, b = b, a
    sides = _mask_name(a, variables) + (f";{_mask_name(b, variables)}" if b else "")
    cond = f"|{_mask_name(c, variables)}" if c else ""
    return f"{'I' if b else 'H'}({sides}{cond})"


def _basic_terms(label, variables: Sequence[str]) -> dict[int, int] | None:
    """The joint entropies of H(A|C) or I(A;B|C), or None unless ``label``
    names one over disjoint sets, A and B non-empty, as ``_basic_label``
    spells it.  No name contains , ; | ( ), so a label splits unambiguously."""
    if not isinstance(label, str) or label[:2] not in ("H(", "I(") or label[-1:] != ")":
        return None
    head, bar, cond = label[2:-1].partition("|")
    sides = head.split(";")
    groups = [group.split(",") for group in sides + [cond] * bool(bar)]
    names = [name for group in groups for name in group]
    if len(sides) != 1 + (label[0] == "I") or len(set(names)) != len(names) or not set(names) <= set(variables):
        return None
    a, b = _mask(variables, groups[0]), _mask(variables, groups[1]) if len(sides) == 2 else 0
    c = _mask(variables, groups[-1]) if bar else 0
    if _basic_label(variables, a, b, c) != label:
        return None
    terms = {a | c: 1, c: -1} if not b else {a | c: 1, b | c: 1, a | b | c: -1, c: -1}
    return {m: s for m, s in terms.items() if m}


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


# Fraction("1e-400000000") would build 10**400000000.  int() reads at most
# 4300 digits, so no coefficient a float can hold needs a larger exponent
_MAX_EXPONENT = 10_000
_EXPONENT_RE = re.compile(r"e([-+]?\d[\d_]*)\s*\Z", re.IGNORECASE)


def rational(text: str) -> Fraction:
    """The exact value of a number or fraction literal: "0.1" is 1/10, and
    "-3/2" and "1e-5" are read as written.  An exponent beyond
    ``_MAX_EXPONENT`` is a ``ProverError`` before any power of 10 is built."""
    exponent = _EXPONENT_RE.search(text)
    if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
        raise ProverError(f"number {text!r} has an exponent beyond {_MAX_EXPONENT}")
    return Fraction(text)


def expr_from_names(variables: Sequence[str], terms: Mapping[str, object]) -> Expr:
    """Build an expression from {"X1 V2": coeff} style entries; a string
    coefficient is read by ``rational``, and JSON's true and false are not
    coefficients."""
    if not isinstance(terms, Mapping):
        raise ProverError("an expression maps space-separated variable names to coefficients")
    expr: Expr = {}
    for names, coeff in terms.items():
        mask = _mask(variables, names.split())
        if mask == 0:
            raise ProverError("expressions may not reference the empty set")
        if isinstance(coeff, bool):
            raise ProverError(f"coefficient {coeff!r} of {names!r} is not a rational")
        try:
            coeff = rational(coeff) if isinstance(coeff, str) else Fraction(coeff)
        except ProverError:
            raise ProverError(f"coefficient {coeff!r} of {names!r} has an exponent beyond {_MAX_EXPONENT}") from None
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ProverError(f"coefficient {coeff!r} of {names!r} is not a rational") from exc
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
        for label, expr in list(self.constraints) + [("the target", self.target)]:
            for mask, coeff in expr.items():
                if not 0 < mask < top:
                    raise ProverError(f"expression mask {mask} outside the variable set")
                try:  # the float LP must see the coefficients the exact solve sees
                    if coeff and not float(coeff):
                        raise OverflowError  # underflow to 0
                except OverflowError:
                    raise ProverError(f"a coefficient of {label!r} is outside the range of a float") from None
        # zero coefficients are dropped, as expr_from_names does, so that the
        # target compares equal to a re-summed certificate and a dependency
        # with a stray zero term keeps its shape
        constraints = tuple((label, {m: c for m, c in expr.items() if c}) for label, expr in self.constraints)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "target", {m: c for m, c in self.target.items() if c})

    def describe_expr(self, expr: Expr) -> str:
        return " + ".join(f"{expr[mask]}*H({_mask_name(mask, self.variables)})" for mask in sorted(expr)) or "0"


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


@functools.cache
def _elemental_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The elemental inequalities on n variables as integer arrays: row t of
    ``masks`` and ``signs`` holds the joint-entropy terms of H(A|C), with
    signs (1, -1), or of I(A;B|C), with signs (1, 1, -1, -1), padded with
    mask 0 and sign 0.  The rows are H(i | all others), then for n = 2 also
    H(i), then I(i;j|K) per pair i < j with K over the other variables by
    size, then lexicographically.  Shared, read-only, by every later call
    for this n."""
    full = (1 << n) - 1
    # (A, B, C) per row; the B side of an H is 0
    rows = [(1 << i, 0, full & ~(1 << i)) for i in range(n)]
    if n == 2:
        rows += [(1 << i, 0, 0) for i in range(n)]
    for i, j in combinations(range(n), 2):
        others = [t for t in range(n) if t not in (i, j)]
        for r in range(n - 1):
            rows += [(1 << i, 1 << j, sum(1 << t for t in ks)) for ks in combinations(others, r)]
    a, b, c = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    single = b == 0
    masks = np.stack([a | c, b | c, np.where(single, 0, a | b | c), np.where(single, 0, c)], axis=1)
    signs = np.where(single[:, None], np.array([1, -1, 0, 0]), np.array([1, 1, -1, -1]))
    signs = np.where(masks == 0, 0, signs)
    masks.flags.writeable = signs.flags.writeable = False
    return masks, signs


@functools.cache
def _free_reduction(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_reduce_elementals`` of the n-variable table when no functional
    dependency holds: the closure is the identity and mask m is row m - 1,
    so the result depends on n alone.  Shared, read-only, by every later
    call for this n."""
    masks, signs = _elemental_table(n)
    reduced = _reduce_elementals(masks - 1, signs, (1 << n) - 1)
    for array in reduced:
        array.flags.writeable = False
    return reduced


class _Elementals(Sequence):
    """The elemental inequalities on named variables: a sequence of
    (label, Expr) pairs, each built on access from the per-n table."""

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self.masks, self.signs = _elemental_table(len(self.names))

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[i] for i in range(len(self))[t]]
        t = range(len(self))[t]
        terms = zip(self.masks[t].tolist(), self.signs[t].tolist())
        return self.label(t), {m: Fraction(s) for m, s in terms if s}

    def label(self, t: int) -> str:
        """H(A|C) or I(A;B|C) from row t: C is the fourth mask of an I, the
        second mask of an H with a non-empty C, else empty."""
        masks, signs = self.masks[t].tolist(), self.signs[t].tolist()
        c = masks[3] if signs[2] else masks[1] if signs[1] else 0
        return _basic_label(self.names, masks[0] & ~c, masks[1] & ~c if signs[2] else 0, c)


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
    """Exact re-summation: the combination must equal the target.  Each line
    is a constraint ``[=]<name>`` with any weight, or a basic inequality
    H(A|C) or I(A;B|C) with a non-negative weight, spelled as the prover
    spells it.  A basic line expands to at most four joint entropies, so no
    table of elementals is built, for any n."""
    constraints = {f"[=]{label}": expr for label, expr in problem.constraints}
    total: Expr = defaultdict(Fraction)
    for label, coeff in certificate:
        expr = constraints.get(label)
        if expr is None:
            expr = _basic_terms(label, problem.variables)
            if expr is None or coeff < 0:
                return False
        for m, c in expr.items():
            total[m] += coeff * c
    return {m: c for m, c in total.items() if c} == problem.target


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


def _reduce_elementals(rows: np.ndarray, signs: np.ndarray, n_rows: int):
    """The distinct non-zero elemental columns on reduced rows.  Line t of
    ``rows`` and ``signs`` holds elemental t's four (reduced row, sign)
    terms, row -1 and sign 0 for padding.  Terms that land on one row are
    merged and each column's terms sorted by row.  Returns the rows and
    signs of the kept columns and their elemental indices: the first of
    equal columns is kept, and zero columns dropped."""
    # one code (row + 1, sign + 2) per term, row the major digit: an
    # elemental's signs are (1, -1) or (1, 1, -1, -1), so merged signs lie in
    # -2..2, and sorting the codes sorts each line's terms by row
    codes = np.sort((rows + 1) * 5 + (signs + 2), axis=1)
    rows, signs = np.divmod(codes, 5)
    rows -= 1
    signs -= 2
    for s in range(1, rows.shape[1]):
        same = rows[:, s] == rows[:, s - 1]
        signs[same, s] += signs[same, s - 1]
        signs[same, s - 1] = 0
    # merged-away terms become padding, code 2, which sorts first
    codes = np.sort(np.where(signs == 0, 2, (rows + 1) * 5 + (signs + 2)), axis=1)
    rows, signs = np.divmod(codes, 5)
    rows -= 1
    signs -= 2
    # one integer key per column, the line's codes as digits: at n <=
    # MAX_VARIABLES = 12 a key stays below (5 * 4096)^4 < 2^63.
    # return_index sorts stably, so it finds the first of equal columns
    radix = 5 * (n_rows + 1)
    key = np.zeros(len(codes), dtype=np.int64)
    for s in range(codes.shape[1]):
        key = key * radix + codes[:, s]
    _, first = np.unique(key, return_index=True)
    keep = np.zeros(len(key), dtype=bool)
    keep[first] = True
    kept = np.flatnonzero(keep & (signs != 0).any(axis=1))
    return rows[kept], signs[kept], kept


class _ClosedSetLP:
    """The prover's two linear systems, one ``exactlp.Columns`` each.

    ``generators`` holds every unreduced generator by subset mask: the
    elemental table as the integer block, then constraint c as the pair of
    generators e + 2c (+) and e + 2c + 1 (-), with e = len(elementals).
    ``columns`` is the LP over the sets closed under the problem's
    functional dependencies (FDs), whose rows are the non-empty closed sets.
    Every generator maps through h(S) -> h(cl S): the FDs vanish, zero and
    repeated elemental columns are dropped (the first index is kept), and
    every other constraint keeps its pair.  Reduced column j is generator
    ``gens[j]``."""

    def __init__(self, elementals: _Elementals, problem: ProverProblem):
        n = len(problem.variables)
        self.elementals, self.problem = elementals, problem
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

        pairs = [col for _, expr in problem.constraints for col in (expr, {m: -c for m, c in expr.items()})]
        self.generators = Columns(elementals.masks, elementals.signs, 1 << n, pairs)
        if self.fds:
            rows, signs, kept = _reduce_elementals(self.row_of[elementals.masks], elementals.signs, self.n_rows)
        else:
            rows, signs, kept = _free_reduction(n)
        self.gens = kept.tolist()
        reduced = []
        fd_index = {c for c, _, _ in self.fds}
        for c, (_, expr) in enumerate(problem.constraints):
            col = {} if c in fd_index else self.reduce(expr)
            if col:
                g = self.n_elementals + 2 * c
                reduced += [col, {r: -v for r, v in col.items()}]
                self.gens += [g, g + 1]
        self.columns = Columns(rows, signs, self.n_rows, reduced)
        self.target = self.reduce(problem.target)

    def reduce(self, expr: Expr) -> dict[int, Fraction]:
        out: dict[int, Fraction] = defaultdict(Fraction)
        for m, c in expr.items():
            out[int(self.row_of[m])] += c
        return {r: c for r, c in out.items() if c}

    def float_system(self):
        """A^T as CSR arrays (indptr, indices, values), one row per reduced
        column, and b, in floats."""
        block = self.columns
        nz = block.signs != 0
        counts = [nz.sum(axis=1)]
        indices = [block.rows[nz]]
        values = [block.signs[nz].astype(float)]
        for col in block.sparse:
            counts.append([len(col)])
            indices.append(np.fromiter(col, dtype=np.int64, count=len(col)))
            values.append(np.fromiter((float(c) for c in col.values()), dtype=float, count=len(col)))
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        a_t = indptr, np.concatenate(indices), np.concatenate(values)
        b = np.zeros(self.n_rows)
        for r, c in self.target.items():
            b[r] = float(c)
        return a_t, b

    def lift_vector(self, y: Mapping[int, Fraction]) -> Expr:
        """y(S) = y_red(cl S) for every non-empty set S."""
        return {mask: y[r] for mask, r in enumerate(self.row_of.tolist()) if mask and y.get(r)}

    def lift_certificate(self, solution: Iterable[tuple[int, Fraction]]) -> tuple[tuple[str, Fraction], ...]:
        """Certificate lines that sum to the target on the unreduced sets: the
        basic inequalities in the order they first arise, then the constraints
        in problem order.  The residual R = target - sum(weights * generators)
        is paid for as the module docstring sets out."""
        basic: dict[str, Fraction] = defaultdict(Fraction)  # label -> weight
        equal: dict[int, Fraction] = defaultdict(Fraction)  # constraint index -> weight
        names = self.problem.variables
        residual = defaultdict(Fraction, self.problem.target)
        for j, weight in solution:
            g = self.gens[j]
            if g < self.n_elementals:
                basic[self.elementals.label(g)] += weight
            else:
                c, negated = divmod(g - self.n_elementals, 2)
                equal[c] += -weight if negated else weight
            for m, coeff in self.generators[g].items():
                residual[m] -= weight * coeff
        for s, r in sorted(residual.items()):
            cl = int(self.closure[s])
            if not r or cl == s:
                continue
            if r < 0:
                # |r| (h(cl S) - h(S)) = |r| H(cl S \ S | S) >= 0
                basic[_basic_label(names, cl & ~s, 0, s)] -= r
                continue
            # r (h(S) - h(cl S)): fire the FDs from S up to cl S; each step
            # S_t -> S_t u B by H(B|A) = 0 (A in S_t) is, with D = B n S_t,
            # -H(B \ S_t | S_t) = -H(B|A) + H(D|A) + I(B \ S_t; S_t \ (A u D) | A u D)
            current = s
            while current != cl:
                c, a, u = next(fd for fd in self.fds if fd[1] & ~current == 0 and fd[2] & ~current)
                d = u & ~a & current
                equal[c] -= r
                if d:
                    basic[_basic_label(names, d, 0, a)] += r
                if current & ~(a | d):
                    basic[_basic_label(names, u & ~current, current & ~(a | d), a | d)] += r
                current |= u
        constraints = self.problem.constraints
        return tuple((label, w) for label, w in basic.items() if w) + tuple(
            (f"[=]{constraints[c][0]}", equal[c]) for c in sorted(equal) if equal[c]
        )


def _solve_exact(lp: _ClosedSetLP, restrict: Iterable[int] | None = None, candidate=None):
    """Exact feasibility over the given reduced columns, or over all of them
    without a copy when none are given; the solution is a list of (column
    index, weight) pairs, or None when infeasible."""
    if restrict is None:
        cols, columns = range(len(lp.columns)), lp.columns
    else:
        cols = sorted(restrict)
        columns = [lp.columns[j] for j in cols]
    result = solve_feasibility(columns, lp.target, lp.n_rows, candidate)
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
        solution, result = _solve_exact(lp, candidate=candidate)
        if solution is None and result.farkas is candidate:
            path = "dual"
    if solution is not None:
        cert = lp.lift_certificate(solution)
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
    if not separates(y, lp.generators, problem.target):
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


class FloatLPResult(NamedTuple):
    """What ``linprog`` returns: whether HiGHS reached an optimum, and then
    the maximum, the vertex y and the dual of each row of A^T y <= 0."""

    success: bool
    maximum: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None


def _dual_simplex_options(highs):
    """The options of every float LP, the ones scipy's
    ``linprog(method="highs-ds")`` sets; a solver copies them when they are
    passed."""
    simplex = highs.simplex_constants
    options = highs.HighsOptions()
    options.solver = "simplex"
    options.simplex_strategy = simplex.SimplexStrategy.kSimplexStrategyDual
    options.simplex_dual_edge_weight_strategy = simplex.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex
    options.presolve = "off"
    options.output_flag = False
    return options


# a solver that has run an LP with more non-zeros than this in A^T is let go.
# Kept, its workspace raised the peak RSS of 2,400 residue proofs by about
# 6 MB, against under 1 MB when let go (2-core Xeon, scipy 1.17.1), and a
# new solver costs about 0.1 ms, little next to such an LP's run.  The
# n = 11 residues hold 30,000 to 43,000 non-zeros, the n = 9 ones at most
# 8,000
_KEPT_NONZEROS = 2**14


@functools.cache
def _solver(highs):
    """The one HiGHS solver of the float LPs, per bindings module: built on
    the first float LP and given the options once, and built again after an
    LP above ``_KEPT_NONZEROS``.  Each LP replaces the last one's model, and
    with it the basis and solution, by ``passModel``.  It is not
    re-entrant: one LP must finish before the next is passed, which holds
    because the library starts no threads.  Its ``clear()`` is never
    called, since it also resets the options: presolve would come back on
    and HiGHS would print its log to stdout."""
    solver = highs._Highs()
    solver.passOptions(_dual_simplex_options(highs))
    return solver


def linprog(a_t, b) -> FloatLPResult:
    """max b.y subject to A^T y <= 0 and -1 <= y <= 1, with A^T given as
    CSR arrays (indptr, indices, values), solved by HiGHS's dual simplex.

    The model is passed row-wise to the HiGHS bindings bundled with scipy,
    imported on the first call, so that importing dicbound and the entropy
    engine never load scipy.  It is solved as min -b.y by the solver the
    calls share (``_solver``), which is not re-entrant.  The bindings are a
    private scipy module: when it or a name used here is missing, the call
    is a one-line ``ProverError``."""
    indptr, indices, values = a_t
    n_rows, n_cols = len(indptr) - 1, len(b)
    try:
        from scipy.optimize._highspy import _core as highs

        # the bindings copy a list into a C++ vector about twice as fast as an array
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = n_cols, n_rows
        lp.col_cost_ = (-b).tolist()
        lp.col_lower_, lp.col_upper_ = [-1.0] * n_cols, [1.0] * n_cols
        lp.row_lower_, lp.row_upper_ = [-highs.kHighsInf] * n_rows, [0.0] * n_rows
        matrix = lp.a_matrix_
        matrix.format_ = highs.MatrixFormat.kRowwise
        matrix.num_col_, matrix.num_row_ = n_cols, n_rows
        matrix.start_, matrix.index_, matrix.value_ = indptr.tolist(), indices.tolist(), values.tolist()
        solver = _solver(highs)
        solver.passModel(lp)
        solver.run()
        if len(values) > _KEPT_NONZEROS:
            _solver.cache_clear()  # the next LP builds a new solver
        if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
            return FloatLPResult(False)
        solution = solver.getSolution()
        maximum = -solver.getInfo().objective_function_value
        return FloatLPResult(True, maximum, np.array(solution.col_value), np.array(solution.row_dual))
    except (ImportError, AttributeError) as exc:
        raise ProverError(f"scipy's HiGHS bindings cannot run the float LP: {exc}") from None


def _float_dual(a_t, b) -> tuple[set[int] | None, dict[int, Fraction] | None]:
    """The one float LP: max b.y subject to A^T y <= 0 and -1 <= y <= 1.

    A positive optimum returns (None, y) with y rationalized, a candidate
    Farkas vector that only ``solve_feasibility``'s exact check can accept.
    An optimum of 0 returns (support, None): the row duals are then minus a
    float solution of A x = b, x >= 0, and its support is a basis for the
    exact solve.  A failed solve returns (None, None)."""
    # dual simplex with devex pricing returns a vertex, whose entries have
    # small denominators; on -I(Z1;Z2) at n = 12 it took 2.3 s, against 104 s
    # with the default steepest-edge pricing and over 15 minutes with the
    # interior-point solver.  Presolve is off: with it, the prove benchmark
    # ran about 159 operations per second instead of 215, at higher peak RSS
    res = linprog(a_t, b)
    if not res.success:
        return None, None
    if res.maximum <= 1e-9:
        return set(np.flatnonzero(-res.duals > 1e-9).tolist()), None
    # a vertex takes few distinct values: rationalize each once
    rational = {y: Fraction(y).limit_denominator(1000) for y in set(res.x.tolist())}
    return None, {i: rational[y] for i, y in enumerate(res.x.tolist()) if rational[y]}


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
