"""Exact joint distributions over realized channel symbols and entropy queries.

Joint tables are support-sparse: one atom per source-input tuple, since every
other symbol is a deterministic image.  ``induce_joint`` builds them as one of
the two entries of the engine in ``networks`` (``source_atoms`` →
``evaluate_columns`` → ``row_entropy``): it checks the law once, then
enumerates every source position.  As everywhere inside the engine, a source
is its replica position and a column reads positions; replicas and
``VariableId``s name the table's columns only at the edge.  ``row_entropy`` is
the engine's one pass: H(rows), or a network query's H(keys, live) -
H(keys), from one mixed-radix key build (``merged_keys``) whose prefix gives
H(keys), and ``mass_entropy`` of the merged masses.  ``base_terms`` reads
each base term H(Y_u | V_A) off one joint table as one such keyed pass, V_A
the keys and Y_u the live column.  A network query's kernel
(``networks.query_kernel``) keeps the merged keys of its full alphabet
product and runs only ``bincount`` and ``mass_entropy`` per law, under a
product or a joint law; a query without a kernel runs ``row_entropy``
itself.  Entropies are in bits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from .channels import DeterministicChannel, is_int
from .errors import DicboundError, DistributionError

NORMALIZATION_TOL = 1e-9

# row_entropy counts merged keys up to this bound (or up to 4 per atom) with
# ``np.bincount`` as they are, and ranks larger ones with ``np.unique`` first.
# On a 2-core Xeon the two cost the same, about 20 us, at 2^14 bins for 16 to
# 2,048 atoms: below it counting wins, above it ranking does.
DENSE_KEYS = 1 << 14

_VAR_RE = re.compile(r"^([XVY])(\d+)(?:\^(\d+))?$")


@dataclass(frozen=True, order=True)
class VariableId:
    """One realized symbol: kind X (input), V (interference) or Y (output).

    owner is (user, copy); copy is 1 for base channels.
    """

    kind: str
    user: int
    copy: int = 1

    def __post_init__(self):
        if self.kind not in ("X", "V", "Y"):
            raise DicboundError(f"variable kind must be X, V or Y, got {self.kind!r}")

    def __str__(self):
        if self.copy == 1:
            return f"{self.kind}{self.user}"
        return f"{self.kind}{self.user}^{self.copy}"

    @classmethod
    def parse(cls, text: str) -> "VariableId":
        m = _VAR_RE.match(text.strip())
        if not m:
            raise DicboundError(f"cannot parse variable id {text!r}")
        kind, user, copy = m.groups()
        return cls(kind, int(user), int(copy) if copy else 1)


def X(user: int, copy: int = 1) -> VariableId:
    return VariableId("X", user, copy)


def V(user: int, copy: int = 1) -> VariableId:
    return VariableId("V", user, copy)


def Y(user: int, copy: int = 1) -> VariableId:
    return VariableId("Y", user, copy)


class SourceDistribution:
    """Distribution over the source inputs, either a product of per-source
    tables or one joint table over the source tuple."""

    __slots__ = ("mode", "sizes", "tables", "joint")

    def __init__(self, mode: str, sizes: Sequence[int], probs):
        if mode not in ("product", "joint"):
            raise DistributionError(f"mode must be product or joint, got {mode!r}")
        self.mode = mode
        self.sizes = tuple(int(s) for s in sizes)
        if mode == "product":
            if not isinstance(probs, (list, tuple)):
                raise DistributionError(f"a product law is a list of per-source tables, got {probs!r}")
            tables = tuple(_probabilities(t) for t in probs)
            if len(tables) != len(self.sizes):
                raise DistributionError("one probability table per source required")
            for size, table in zip(self.sizes, tables):
                if len(table) != size:
                    raise DistributionError(
                        f"table length {len(table)} does not match alphabet size {size}"
                    )
                self._check_table(table)
            self.tables = tables
            self.joint = None
        else:
            if isinstance(probs, dict):
                joint = dict(zip(probs, _probabilities(list(probs.values()))))
            else:
                # flat list over the full tuple space, row-major
                total = math.prod(self.sizes)
                flat = _probabilities(probs)
                if len(flat) != total:
                    raise DistributionError(
                        f"joint table length {len(flat)} does not match tuple space {total}"
                    )
                keys = product(*map(range, self.sizes))
                joint = {key: p for key, p in zip(keys, flat) if p != 0.0}
            for key, p in joint.items():
                if not (
                    isinstance(key, tuple)
                    and len(key) == len(self.sizes)
                    and all(is_int(s) and 0 <= s < size for s, size in zip(key, self.sizes))
                ):
                    raise DistributionError(
                        f"joint atom {key!r} is not a tuple of integers in the source tuple space"
                    )
                if p < 0:
                    raise DistributionError(f"negative probability {p} at {key}")
            if not abs(math.fsum(joint.values()) - 1.0) <= NORMALIZATION_TOL:
                raise DistributionError("joint table does not sum to 1 within 1e-9")
            self.tables = None
            self.joint = dict(sorted(joint.items()))

    @staticmethod
    def _check_table(table):
        if any(p < 0 for p in table):
            raise DistributionError("negative probability entry")
        if not abs(math.fsum(table) - 1.0) <= NORMALIZATION_TOL:
            raise DistributionError("probability table does not sum to 1 within 1e-9")

    @classmethod
    def uniform(cls, sizes: Sequence[int]) -> "SourceDistribution":
        return cls("product", sizes, [[1.0 / s] * s for s in sizes])

    @classmethod
    def point_mass(cls, sizes: Sequence[int], point: Sequence[int]) -> "SourceDistribution":
        tables = []
        for size, value in zip(sizes, point):
            t = [0.0] * size
            t[value] = 1.0
            tables.append(t)
        return cls("product", sizes, tables)

    def replicated(self, users: Sequence[int]) -> "SourceDistribution":
        """The product law whose source i runs the table of user ``users[i]``
        (1-based) of this product law, built from its tables as they were
        converted and checked: no table is converted or checked again."""
        law = object.__new__(SourceDistribution)
        law.mode, law.joint = "product", None
        law.sizes = tuple([self.sizes[u - 1] for u in users])
        law.tables = tuple([self.tables[u - 1] for u in users])
        return law

    def marginal_joint(self, indices: Sequence[int]) -> dict:
        """Joint table over a subset of sources (joint mode), summing others out."""
        out: dict[tuple[int, ...], float] = {}
        for key, p in self.joint.items():
            sub = tuple(key[i] for i in indices)
            out[sub] = out.get(sub, 0.0) + p
        return out


def distribution_from_dict(data: dict, sizes: Sequence[int]) -> SourceDistribution:
    """A law from its document form: {"mode": "product" | "joint", "probs": ...}."""
    if not isinstance(data, dict) or "probs" not in data:
        raise DistributionError("distribution document must be an object with 'probs'")
    return SourceDistribution(data.get("mode", "product"), sizes, data["probs"])


def _probabilities(values) -> tuple[float, ...]:
    """A list of probabilities as floats; anything else, JSON's true and false
    included, is a ``DistributionError``."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(p, Real) and not isinstance(p, bool) for p in values
    ):
        raise DistributionError(f"expected a list of probabilities, got {values!r}")
    return tuple(float(p) for p in values)


@dataclass(frozen=True, eq=False)
class JointTable:
    """Sparse joint distribution over an ordered variable list: one row of
    ``values`` per source atom, its mass in ``probs``.

    Atoms are keyed by source inputs, so the atom count never exceeds the
    product of source alphabet sizes.
    """

    variables: tuple[VariableId, ...]
    values: np.ndarray
    probs: np.ndarray

    @property
    def atoms(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """(values, p) per atom."""
        return tuple(zip(map(tuple, self.values.tolist()), self.probs.tolist()))

    def index_of(self, var: VariableId) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise DicboundError(f"unknown variable {var} in this table") from None


def _as_vars(subset: Iterable[VariableId | str]) -> tuple[VariableId, ...]:
    out = []
    for v in subset:
        out.append(VariableId.parse(v) if isinstance(v, str) else v)
    return tuple(sorted(set(out)))


def induce_joint(model, dist: SourceDistribution) -> JointTable:
    """Materialize the joint table of all realized symbols.

    ``model`` is a DeterministicChannel (treated as its one-hop network) or a
    NetworkGraph.  An entry of the engine: it checks the law, then
    enumerates every source position, in replica order, and evaluates the
    columns of ``all_variables()`` (every X, then every V, then every Y) as
    ``query_plan`` gives them on the full masks, labelled by position.
    Atom probabilities are exactly the source probabilities.
    """
    from .networks import base_network, check_law, evaluate_columns, query_plan, source_atoms

    if isinstance(model, DeterministicChannel):
        model = base_network(model)
    check_law(model, dist)
    every = model.mask(model.replicas)
    plan = query_plan(model, (), (("X", every), ("V", every), ("Y", every)))
    xs, p = source_atoms(dist, plan.positions)
    return JointTable(model.all_variables(), evaluate_columns(model.channel, plan.users, xs, plan.columns), p)


def mass_entropy(masses: np.ndarray) -> float:
    """-sum m log2 m over the positive masses, in bits (0 log 0 = 0): each
    term ``m * math.log2(m)`` in Python floats, summed by ``math.fsum``,
    which is exactly rounded, so the order of the masses does not matter."""
    return -math.fsum([m * math.log2(m) for m in masses[masses > 0.0].tolist()])


def merged_keys(values: np.ndarray, keys: int, dense: int) -> list:
    """The rows of ``values`` merged into int64 keys, one array per cut: after
    the first ``keys`` columns when ``keys`` is positive, then after all of
    them, so a cut at ``keys`` equal to the width is one array.

    The columns join one mixed-radix key, radices from one
    ``values.max(axis=0)``; the key after the first ``keys`` columns is the
    prefix's, so the key columns are merged once for both cuts.  A column of
    huge symbols is numbered in order, and the key is re-indexed by
    ``np.unique`` before the radix product reaches 2^62, so it never
    overflows.  A key bound past ``dense`` at a cut is ranked by
    ``np.unique``, which keeps key order, and the columns after it extend the
    ranked key; equal rows get equal keys and distinct rows distinct ones
    either way."""
    width = values.shape[1]
    key, bound, cuts = np.zeros(len(values), dtype=np.int64), 1, []
    for j, (column, top) in enumerate(zip(values.T, values.max(axis=0).tolist()), start=1):
        radix = top + 1
        if radix > 1 << 31:  # huge symbols: number them in order instead
            symbols, column = np.unique(column, return_inverse=True)
            radix = len(symbols)
        if bound * radix >= 1 << 62:
            merged, key = np.unique(key, return_inverse=True)
            bound = len(merged)
        key, bound = key * radix + column, bound * radix
        if j == keys or j == width:
            if bound > dense:
                merged, key = np.unique(key, return_inverse=True)
                bound = len(merged)
            cuts.append(key)
    return cuts


def row_entropy(values: np.ndarray, probs: np.ndarray, keys: int = 0) -> float:
    """H(rows) - H(rows of the first ``keys`` columns), in bits, from one pass:
    the entropy of the law merging atoms with equal ``values`` rows, less
    that of their key prefix (0 log 0 = 0).  With no keys it is H(rows).

    ``merged_keys`` merges the rows, the key columns once for both cuts; a
    key bound within ``DENSE_KEYS``, or within 4 keys per atom, goes
    straight to ``bincount``, and a larger one is ranked first.  Either way
    ``bincount`` adds each merged mass in atom order, the float a sequential
    sum gives, and ``mass_entropy`` is exactly rounded: the result is the
    difference of two separate passes, bit for bit.  No columns give
    H(nothing) = 0.0, not -s log2 s for the mass sum s.
    """
    if not values.shape[1]:
        return 0.0
    cuts = merged_keys(values, keys, max(DENSE_KEYS, 4 * len(probs)))
    h = mass_entropy(np.bincount(cuts[-1], weights=probs))
    return h - mass_entropy(np.bincount(cuts[0], weights=probs)) if keys else h


def entropy(table: JointTable, subset: Iterable[VariableId | str]) -> float:
    """Shannon entropy in bits of the marginal on ``subset`` (0 log 0 = 0)."""
    idx = [table.index_of(v) for v in _as_vars(subset)]
    return row_entropy(table.values[:, idx], table.probs)


def conditional_entropy(table: JointTable, a: Iterable, b: Iterable) -> float:
    """H(A | B) = H(A u B) - H(B)."""
    a_vars = _as_vars(a)
    b_vars = _as_vars(b)
    return entropy(table, a_vars + b_vars) - entropy(table, b_vars)


def base_terms(channel: DeterministicChannel, dist: SourceDistribution, keys: Iterable) -> dict:
    """H(Y_u | V_A) on the base channel for each distinct key (u, A), A a
    frozenset, from one joint table: the terms that rate bounds and chain
    closed forms combine, over independent inputs only.  Each distinct key
    is one ``row_entropy`` pass over the columns of V_A, keys first, then
    Y_u: H(V_A, Y_u) - H(V_A), the split a network query runs."""
    if dist.mode != "product":
        raise DistributionError("rate-region bounds are defined over product input distributions")
    table = induce_joint(channel, dist)
    index = {v: i for i, v in enumerate(table.variables)}
    values = {}
    for user, given in keys:
        if (user, given) not in values:
            columns = sorted(index[V(w)] for w in given) + [index[Y(user)]]
            values[user, given] = row_entropy(table.values[:, columns], table.probs, len(given))
    return values


def mutual_information(table: JointTable, a: Iterable, b: Iterable) -> float:
    """I(A; B) = H(A) + H(B) - H(A u B); symmetric by construction."""
    a_vars = _as_vars(a)
    b_vars = _as_vars(b)
    return entropy(table, a_vars) + entropy(table, b_vars) - entropy(table, a_vars + b_vars)
