"""Finite-alphabet deterministic interference channels.

A channel has per-user inputs X_i, interference symbols V_i = g_i(X_i), and
outputs Y_i = f_i(X_i, interfering V's).  Validity means: for every user and
every own input symbol, the receive map is injective in the interference
tuple, so the interference is recoverable from (X_i, Y_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import BudgetExceededError, ChannelFormatError, DicboundError

# _shift2 refuses a receive table of more entries; it holds 2^(q + n_cross).
# At 2^18 (q = n_cross = 9) building the channel takes 0.5 s and validating
# it 0.65 s on a 2-core Xeon, and both grow linearly with the entries.
MAX_SHIFT2_ENTRIES = 1 << 18

BUILTIN_FAMILIES = ("xor2", "shift2", "concat3")


def is_int(value) -> bool:
    """An integer that is not a bool: JSON's true and false are neither
    sizes, symbols nor counts."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class DeterministicChannel:
    """Lookup-table channel for 2 or 3 users.

    g[i] maps own input x to the interference symbol V_i.
    f[i] is row-major over (x_i, v_j, ...) where the interfering users j
    are the other users in ascending order.
    """

    user_count: int
    input_sizes: tuple[int, ...]
    g: tuple[tuple[int, ...], ...]
    f: tuple[tuple[int, ...], ...]
    v_sizes: tuple[int, ...] = field(init=False)
    y_sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not is_int(self.user_count) or self.user_count not in (2, 3):
            raise ChannelFormatError(f"user_count must be 2 or 3, got {self.user_count}")
        if len(self.input_sizes) != self.user_count:
            raise ChannelFormatError("one input alphabet per user required")
        for size in self.input_sizes:
            if not is_int(size) or size < 1:
                raise ChannelFormatError(f"alphabet size must be an integer >= 1, got {size!r}")
        if len(self.g) != self.user_count or len(self.f) != self.user_count:
            raise ChannelFormatError("one g table and one f table per user required")
        for name, tables in (("g", self.g), ("f", self.f)):
            for i, table in enumerate(tables):
                # symbols are held in int64 arrays by the entropy engine
                if not all(is_int(v) and 0 <= v < 1 << 63 for v in table):
                    raise ChannelFormatError(
                        f"{name} table for user {i + 1} has a symbol that is not an integer in 0..2^63-1"
                    )
        for i, table in enumerate(self.g):
            if len(table) != self.input_sizes[i]:
                raise ChannelFormatError(
                    f"g table for user {i + 1} has {len(table)} entries, expected {self.input_sizes[i]}"
                )
        v_sizes = tuple(max(table) + 1 for table in self.g)
        object.__setattr__(self, "v_sizes", v_sizes)
        y_sizes = []
        for i, table in enumerate(self.f):
            expected = self.input_sizes[i]
            for j in self.interferers(i):
                expected *= v_sizes[j]
            if len(table) != expected:
                raise ChannelFormatError(
                    f"f table for user {i + 1} has {len(table)} entries, expected {expected}"
                )
            y_sizes.append(max(table) + 1)
        object.__setattr__(self, "y_sizes", tuple(y_sizes))

    @cached_property
    def valid(self) -> bool:
        """Interference recoverability, checked once per channel object."""
        return validate_channel(self).valid

    @cached_property
    def arrays(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The g and f tables as int64 arrays, the entropy engine's lookups,
        built once per channel object."""
        return tuple(np.array(t, dtype=np.int64) for t in self.g), tuple(np.array(t, dtype=np.int64) for t in self.f)

    @cached_property
    def network(self):
        """The channel as its own one-hop network (``networks.base_network``),
        built and checked once per channel object: it holds no law."""
        from .networks import one_hop_network

        return one_hop_network(self)

    @cached_property
    def extended_networks(self) -> dict:
        """The extended networks built on this channel, by (counts, wiring)
        (``extend.build_extended``): each built and checked once per channel
        object and recipe, with the queries compiled on it; they hold no
        law."""
        return {}

    def interferers(self, user: int) -> tuple[int, ...]:
        """0-based indices of the other users, ascending."""
        return tuple(j for j in range(self.user_count) if j != user)

    def receive(self, user: int, x: int, v_tuple: tuple[int, ...]) -> int:
        idx = x
        for j, v in zip(self.interferers(user), v_tuple):
            idx = idx * self.v_sizes[j] + v
        return self.f[user][idx]

    def interference_tuples(self, user: int):
        """All interference tuples seen by the given user's receiver."""
        tuples = [()]
        for j in self.interferers(user):
            tuples = [t + (v,) for t in tuples for v in range(self.v_sizes[j])]
        return tuples


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_channel(channel: DeterministicChannel) -> ValidationReport:
    """Check interference recoverability: v-tuple -> f_i(x, v-tuple) injective for each x.

    Violations list (user, x, colliding v-tuples), 1-based user ids.
    """
    violations = []
    for i in range(channel.user_count):
        tuples = channel.interference_tuples(i)
        for x in range(channel.input_sizes[i]):
            seen: dict[int, list[tuple[int, ...]]] = {}
            for vt in tuples:
                seen.setdefault(channel.receive(i, x, vt), []).append(vt)
            for group in seen.values():
                if len(group) > 1:
                    violations.append((i + 1, x, tuple(group)))
    return ValidationReport(tuple(violations))


def _xor2() -> DeterministicChannel:
    return DeterministicChannel(
        user_count=2,
        input_sizes=(2, 2),
        g=((0, 1), (0, 1)),
        f=(tuple((x ^ v) for x in range(2) for v in range(2)),) * 2,
    )


def _shift2(q: int, n_direct: int, n_cross: int) -> DeterministicChannel:
    if not (0 <= n_cross <= n_direct <= q) or q < 1:
        raise DicboundError(
            f"shift2 needs 0 <= n_cross <= n_direct <= q with q >= 1, got ({q}, {n_direct}, {n_cross})"
        )
    if q + n_cross > math.log2(MAX_SHIFT2_ENTRIES):
        raise BudgetExceededError(
            f"shift2 with q = {q} and n_cross = {n_cross} needs a table of 2^{q + n_cross} entries, "
            f"above the cap of {MAX_SHIFT2_ENTRIES}"
        )
    size = 1 << q
    g_table = tuple(x >> (q - n_cross) for x in range(size))
    v_size = max(g_table) + 1
    f_table = tuple((x >> (q - n_direct)) ^ v for x in range(size) for v in range(v_size))
    return DeterministicChannel(
        user_count=2,
        input_sizes=(size, size),
        g=(g_table, g_table),
        f=(f_table, f_table),
    )


def _concat3() -> DeterministicChannel:
    # Y_i packs (own bit, lower-indexed interferer, higher-indexed interferer).
    g_table = (0, 1)
    f_table = tuple(x + 2 * va + 4 * vb for x in range(2) for va in range(2) for vb in range(2))
    return DeterministicChannel(
        user_count=3,
        input_sizes=(2, 2, 2),
        g=(g_table,) * 3,
        f=(f_table,) * 3,
    )


def builtin_channel(family: str, params: list[int] | None = None) -> DeterministicChannel:
    """Construct a built-in channel family instance.

    Families: xor2, shift2(q, n_direct, n_cross), concat3.
    """
    params = list(params or [])
    if family == "xor2":
        if params:
            raise DicboundError("xor2 takes no parameters")
        return _xor2()
    if family == "shift2":
        if len(params) != 3:
            raise DicboundError("shift2 takes parameters [q, n_direct, n_cross]")
        return _shift2(*params)
    if family == "concat3":
        if params:
            raise DicboundError("concat3 takes no parameters")
        return _concat3()
    raise DicboundError(f"unknown channel family {family!r} (known: {', '.join(BUILTIN_FAMILIES)})")


def channel_from_dict(data: dict) -> DeterministicChannel:
    """Build a channel from its JSON document form."""
    if not isinstance(data, dict):
        raise ChannelFormatError("channel document must be an object")
    if "family" in data:
        params = data.get("params")
        if params is not None and not (
            isinstance(params, list) and all(is_int(p) for p in params)
        ):
            raise ChannelFormatError(f"channel params must be a list of integers, got {params!r}")
        return builtin_channel(data["family"], params)
    try:
        user_count = data["user_count"]
        sizes = tuple(data["alphabet_sizes"])
        g = tuple(tuple(t) for t in data["g"])
        f = tuple(tuple(t) for t in data["f"])
    except (KeyError, TypeError) as exc:
        raise ChannelFormatError(f"channel document missing field: {exc}") from exc
    return DeterministicChannel(user_count=user_count, input_sizes=sizes, g=g, f=f)


def channel_to_dict(channel: DeterministicChannel) -> dict:
    """The table document form that ``channel_from_dict`` reads."""
    return {
        "user_count": channel.user_count,
        "alphabet_sizes": list(channel.input_sizes),
        "g": [list(t) for t in channel.g],
        "f": [list(t) for t in channel.f],
    }
