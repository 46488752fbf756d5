"""Exact joint distributions over realized channel symbols and entropy queries.

Joint tables are support-sparse: one atom per source-input tuple, since every
other symbol is a deterministic image.  ``induce_joint`` builds them with the
engine in ``networks``; its last step is ``row_entropy``.  Entropies are in bits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

from .channels import DeterministicChannel
from .errors import DicboundError, DistributionError

NORMALIZATION_TOL = 1e-9

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
                    and all(isinstance(s, Integral) and 0 <= s < size for s, size in zip(key, self.sizes))
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
    """A list of probabilities as floats; anything else is a ``DistributionError``."""
    if not isinstance(values, (list, tuple)) or not all(isinstance(p, Real) for p in values):
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
    NetworkGraph.  Atom probabilities are exactly the source probabilities.
    """
    from .networks import base_network, symbol_rows

    if isinstance(model, DeterministicChannel):
        model = base_network(model)
    variables = model.all_variables()
    return JointTable(variables, *symbol_rows(model, dist, variables))


def row_entropy(values: np.ndarray, probs: np.ndarray) -> float:
    """Entropy in bits of the law merging atoms with equal ``values`` rows (0 log 0 = 0).

    Rows become mixed-radix int64 keys, re-indexed by ``np.unique`` before
    the radix product reaches 2^62, so they never overflow, and before
    ``bincount`` when they are sparse.  ``bincount`` adds each merged mass in
    atom order: the float a sequential sum gives.
    """
    key, bound = np.zeros(len(probs), dtype=np.int64), 1
    for column in values.T:
        radix = int(column.max()) + 1
        if radix > 1 << 31:  # huge symbols: number them in order instead
            column, radix = np.unique(column, return_inverse=True)[1], len(probs)
        if bound * radix >= 1 << 62:
            key, bound = np.unique(key, return_inverse=True)[1], len(probs)
        key, bound = key * radix + column, bound * radix
    if bound > 4 * len(probs):
        key = np.unique(key, return_inverse=True)[1]
    masses = np.bincount(key, weights=probs)
    return -math.fsum(m * math.log2(m) for m in masses[masses > 0.0].tolist())


def entropy(table: JointTable, subset: Iterable[VariableId | str]) -> float:
    """Shannon entropy in bits of the marginal on ``subset`` (0 log 0 = 0)."""
    idx = [table.index_of(v) for v in _as_vars(subset)]
    if not idx:
        return 0.0
    return row_entropy(table.values[:, idx], table.probs)


def conditional_entropy(table: JointTable, a: Iterable, b: Iterable) -> float:
    """H(A | B) = H(A u B) - H(B)."""
    a_vars = _as_vars(a)
    b_vars = _as_vars(b)
    return entropy(table, a_vars + b_vars) - entropy(table, b_vars)


def base_terms(channel: DeterministicChannel, dist: SourceDistribution, keys: Iterable) -> dict:
    """H(Y_u | V_A) on the base channel for each distinct key (u, A), A a
    frozenset, from one joint table: the terms that rate bounds and chain
    closed forms combine, over independent inputs only."""
    if dist.mode != "product":
        raise DistributionError("rate-region bounds are defined over product input distributions")
    table = induce_joint(channel, dist)
    values = {}
    for user, given in keys:
        if (user, given) not in values:
            values[user, given] = conditional_entropy(table, [Y(user)], [V(w) for w in given])
    return values


def mutual_information(table: JointTable, a: Iterable, b: Iterable) -> float:
    """I(A; B) = H(A) + H(B) - H(A u B); symmetric by construction."""
    a_vars = _as_vars(a)
    b_vars = _as_vars(b)
    return entropy(table, a_vars) + entropy(table, b_vars) - entropy(table, a_vars + b_vars)
