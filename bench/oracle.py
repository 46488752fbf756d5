"""First-principles entropy code for the benchmark's correctness checks.

Nothing here calls dicbound's entropy engines.  A joint distribution is a
plain dict from value tuples to probabilities, built by enumerating source
inputs through the channel's lookup tables; entropies are marginal sums over
that dict.  Channel semantics follow the documented table layout: V_u =
g_u[x_u], and f_u is row-major over (x_u, then the wired interference
symbols in ascending user order).
"""

from __future__ import annotations

import json
import math
from importlib import resources
from itertools import product


def entropy_of(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def marginal_entropy(joint: dict, positions) -> float:
    """H of the variables at ``positions`` under ``joint``."""
    if not positions:
        return 0.0
    merged: dict = {}
    for values, p in joint.items():
        key = tuple(values[i] for i in positions)
        merged[key] = merged.get(key, 0.0) + p
    return entropy_of(merged.values())


def cond_entropy(joint: dict, names, targets, given) -> float:
    """H(targets | given), variables named by position in ``names``."""
    index = {n: i for i, n in enumerate(names)}
    t = sorted({index[v] for v in targets} | {index[v] for v in given})
    g = sorted(index[v] for v in given)
    return marginal_entropy(joint, t) - marginal_entropy(joint, g)


def expr_value(joint: dict, expr) -> float:
    """Value of a linear entropy expression {subset mask: coefficient}."""
    width = len(next(iter(joint)))
    return math.fsum(
        float(c) * marginal_entropy(joint, [i for i in range(width) if mask >> i & 1])
        for mask, c in expr.items()
    )


def var_name(kind: str, replica) -> str:
    user, copy = replica
    return f"{kind}{user}" if copy == 1 else f"{kind}{user}^{copy}"


def network_joint(channel, replicas, wiring, law):
    """Joint over (X, V, Y) of every replica, in that order per replica.

    ``wiring`` maps each replica to the interfering replicas it hears, in
    ascending user order.  ``law`` is either a list of per-replica
    probability tables (independent sources) or a dict from source tuples to
    probabilities (one joint law).
    """
    names = [var_name(kind, r) for r in replicas for kind in ("X", "V", "Y")]
    pos = {r: i for i, r in enumerate(replicas)}
    v_sizes = [max(table) + 1 for table in channel.g]
    if isinstance(law, dict):
        atoms = law.items()
    else:
        sizes = [len(t) for t in law]
        atoms = (
            (xs, math.prod(law[i][x] for i, x in enumerate(xs)))
            for xs in product(*(range(s) for s in sizes))
        )
    joint: dict = {}
    for xs, p in atoms:
        if p == 0.0:
            continue
        values = []
        for r in replicas:
            u = r[0] - 1
            x = xs[pos[r]]
            idx = x
            for w in wiring[r]:
                idx = idx * v_sizes[w[0] - 1] + channel.g[w[0] - 1][xs[pos[w]]]
            values += [x, channel.g[u][x], channel.f[u][idx]]
        key = tuple(values)
        joint[key] = joint.get(key, 0.0) + p
    return names, joint


def base_wiring(user_count: int):
    replicas = [(u, 1) for u in range(1, user_count + 1)]
    wiring = {r: tuple(w for w in replicas if w != r) for r in replicas}
    return replicas, wiring


def template_rows(user_count: int):
    """Raw bound templates from the package data file, keyed by bound id."""
    raw = json.loads(resources.files("dicbound.data").joinpath("templates.json").read_text())
    key = {2: "two_user", 3: "three_user"}[user_count]
    return {row["id"]: row for row in raw[key]}


def bound_values(channel, tables) -> dict:
    """Every template's right-hand side sum mult * H(Y_y | V_given)."""
    replicas, wiring = base_wiring(channel.user_count)
    names, joint = network_joint(channel, replicas, wiring, tables)
    out = {}
    for bound_id, row in template_rows(channel.user_count).items():
        out[bound_id] = math.fsum(
            term.get("mult", 1)
            * cond_entropy(
                joint, names, [f"Y{term['y']}"], [f"V{u}" for u in term["given"]]
            )
            for term in row["terms"]
        )
    return out


def chain_value(names, joint, pairs, subsets) -> float:
    """Single-letter value of a cut chain, straight from its definition.

    ``pairs`` lists (source label, destination label, replica); ``subsets``
    is the chain, outermost first.  Level j costs H(outputs cut at j | inputs
    outside O_j, outputs cut before j).
    """
    full = [frozenset(lbl for s, d, _ in pairs for lbl in (s, d))] + list(subsets)
    terms = []
    for j in range(1, len(full)):
        prev, cur = full[j - 1], full[j]
        targets = [var_name("Y", r) for _, d, r in pairs if d in prev and d not in cur]
        given = [var_name("Y", r) for _, d, r in pairs if d not in prev]
        given += [var_name("X", r) for s, _, r in pairs if s not in cur]
        terms.append(cond_entropy(joint, names, targets, given) if targets else 0.0)
    return math.fsum(terms)


def chain_is_valid(pairs, subsets) -> bool:
    """Nesting plus the rule: destination in O_j iff its source is in O_{j+1}."""
    nodes = frozenset(lbl for s, d, _ in pairs for lbl in (s, d))
    full = [nodes] + list(subsets) + [frozenset()]
    if any(not s <= nodes for s in subsets):
        return False
    if any(not full[j + 1] <= full[j] for j in range(len(full) - 1)):
        return False
    return all(
        (d in full[j]) == (s in full[j + 1]) for j in range(len(full) - 1) for s, d, _ in pairs
    )
