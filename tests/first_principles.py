"""Independent oracle helpers.

The oracles here recompute entropies from first principles (plain dicts of
probabilities over enumerated input tuples) so they share no code path with
the engine under test.
"""

from __future__ import annotations

import math
from itertools import product


def oracle_entropy(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def oracle_joint(channel, dist_tables):
    """Enumerate all input tuples and their realized symbols, first-principles.

    Returns a list of (x_tuple, v_tuple, y_tuple, prob).
    """
    users = channel.user_count
    atoms = []
    for xs in product(*(range(s) for s in channel.input_sizes)):
        p = 1.0
        for u in range(users):
            p *= dist_tables[u][xs[u]]
        if p == 0.0:
            continue
        vs = tuple(channel.g[u][xs[u]] for u in range(users))
        ys = []
        for u in range(users):
            others = tuple(j for j in range(users) if j != u)
            ys.append(channel.receive(u, xs[u], tuple(vs[j] for j in others)))
        atoms.append((xs, vs, tuple(ys), p))
    return atoms


def oracle_cond_entropy(atoms, pick_a, pick_b) -> float:
    """H(A | B) from the atom list; pick_* map an atom to a value tuple."""
    joint: dict = {}
    marg: dict = {}
    for atom in atoms:
        p = atom[3]
        a, b = pick_a(atom), pick_b(atom)
        joint[(a, b)] = joint.get((a, b), 0.0) + p
        marg[b] = marg.get(b, 0.0) + p
    return oracle_entropy(joint.values()) - oracle_entropy(marg.values())


def oracle_bound_term(channel, dist_tables, y_user, given_users) -> float:
    """H(Y_y | V_given) computed straight from enumerated inputs."""
    atoms = oracle_joint(channel, dist_tables)
    return oracle_cond_entropy(
        atoms,
        lambda a: (a[2][y_user - 1],),
        lambda a: tuple(a[1][u - 1] for u in sorted(given_users)),
    )


def oracle_product_law(tables) -> dict:
    """Joint law {input tuple: p} of independent sources with these tables."""
    law = {}
    for xs in product(*(range(len(t)) for t in tables)):
        p = 1.0
        for t, x in zip(tables, xs):
            p *= t[x]
        law[xs] = p
    return law


def oracle_network_atoms(network, law):
    """Realize every symbol of a one-hop network from first principles.

    ``law`` maps input tuples over ``network.replicas`` to probabilities (a
    joint-mode law as it is, a product law through oracle_product_law).
    Returns (values, p) pairs, values keyed by (kind, user, copy).
    """
    ch = network.channel
    atoms = []
    for xs, p in law.items():
        x = dict(zip(network.replicas, xs))
        values = {}
        for (u, c), xv in x.items():
            values["X", u, c] = xv
            values["V", u, c] = ch.g[u - 1][xv]
            idx = xv  # f is row-major over (own input, wired V's in user order)
            for w in network.interferers_of((u, c)):
                idx = idx * ch.v_sizes[w[0] - 1] + ch.g[w[0] - 1][x[w]]
            values["Y", u, c] = ch.f[u - 1][idx]
        atoms.append((values, p))
    return atoms


def oracle_network_cond_entropy(atoms, a, b=()) -> float:
    """H(A | B) over network atoms; A and B hold (kind, user, copy) keys."""

    def h(keys):
        marg: dict = {}
        for values, p in atoms:
            key = tuple(values[k] for k in keys)
            marg[key] = marg.get(key, 0.0) + p
        return oracle_entropy(marg.values())

    b = sorted(set(b))
    return h(sorted(set(a) | set(b))) - h(b)
