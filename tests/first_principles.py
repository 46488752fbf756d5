"""Independent oracle helpers.

The oracles here recompute entropies from first principles (plain dicts of
probabilities over enumerated input tuples), and the variables a conditioning
set determines by iterating the closure rules to their fixed point, so they
share no code path with the engine under test.  The test-only readings of
the library's own data live here too, such as the per-k multiplicity of each
recipe's closed-form terms and the cut chain of each recipe's peel order.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product

import numpy as np

from dicbound.entropy import VariableId, X, Y
from dicbound.extend import _recipe_walk, bound_support_info, build_extended, builtin_recipe, verify_chain_identity
from dicbound.gcs import CutChain, _chain_walks, _walk_chains, _walk_values, min_chain_bound
from dicbound.networks import cond_entropy_network, replicate_distribution


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


def interferers_of(network, replica) -> tuple:
    """The replicas wired to ``replica``'s receiver, in user order, read off
    the network's public ``wiring``."""
    return dict(network.wiring)[replica]


def reads(network, kind, replica) -> tuple:
    """The source replicas the symbol of that kind at ``replica`` is a
    function of: its own, then, for an output, the wired ones in user order,
    read off the network's public ``wiring``."""
    return (replica,) + interferers_of(network, replica) if kind == "Y" else (replica,)


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
            for w in interferers_of(network, (u, c)):
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


def oracle_expr_value(expr, variables, network, dist) -> float:
    """A prover expression ({mask: coefficient} over the named variables) on
    the network under a product law, summed over entropies of its atoms."""
    atoms = oracle_network_atoms(network, oracle_product_law(dist.tables))
    keys = [(v.kind, v.user, v.copy) for v in map(VariableId.parse, variables)]
    return sum(
        float(coeff) * oracle_network_cond_entropy(atoms, [key for i, key in enumerate(keys) if mask >> i & 1])
        for mask, coeff in expr.items()
    )


def fixed_point_closure(net, cond):
    """The variables a conditioning set determines on a replica network: the
    closure rules (V = g(X); Y once X and the wired V's are known; the wired
    V's once X and Y are known) applied to every replica until nothing
    changes."""
    known = set(cond)
    while True:
        size = len(known)
        for u, c in net.replicas:
            x, v, y = (VariableId(kind, u, c) for kind in "XVY")
            wired = {VariableId("V", *w) for w in interferers_of(net, (u, c))}
            if x in known:
                known.add(v)
                if wired <= known:
                    known.add(y)
                if y in known:
                    known |= wired
        if len(known) == size:
            return known


def reference_split_entropy(values, probs, keys=0) -> float:
    """H(rows) - H(rows of the first ``keys`` columns) from two independent
    passes, one per entropy: rows numbered by ``np.unique(axis=0)``, masses
    merged by ``np.bincount`` in atom order, entropy by ``math.fsum``.  No
    columns give 0.0."""

    def h(columns):
        if not columns.shape[1]:
            return 0.0
        rows = np.unique(columns, axis=0, return_inverse=True)[1].reshape(-1)
        masses = np.bincount(rows, weights=probs)
        return -math.fsum(m * math.log2(m) for m in masses[masses > 0.0].tolist())

    return h(values) - h(values[:, :keys])


def _reference_closure(net, xs, vs, ys):
    """The one-pass closure of (X, V, Y) replica sets, on sets: the known V's
    are the conditioned ones, those of the known X's and those recovered at
    receivers with X and Y known; the known Y's add each receiver whose input
    and wired V's are known."""
    known_v = vs | xs
    for r in xs & ys:
        known_v.update(interferers_of(net, r))
    known_y = ys | {r for r in xs if known_v.issuperset(interferers_of(net, r))}
    return xs, known_v, known_y


def reference_replica_sets(net, variables):
    """The replicas of the variables' X's, V's and Y's, as three sets: the
    set form of ``NetworkGraph.replica_sets``, for the set-based references."""
    sets = {"X": set(), "V": set(), "Y": set()}
    for var in variables:
        assert (var.user, var.copy) in net.replicas
        sets[var.kind].add((var.user, var.copy))
    return sets["X"], sets["V"], sets["Y"]


def _reference_columns(kind, replicas):
    return [(kind, r) for r in sorted(replicas)]


def reference_reduce_query(net, dist, targets, cond):
    """The network query's reduction on (X, V, Y) replica sets, with sets
    throughout: (keys, live) as (kind, replica) columns in column order, or
    None when the conditioning determines every target."""
    (t_x, t_v, t_y), (c_x, c_v, c_y) = targets, cond
    if dist.mode == "product" and c_y <= c_x:
        k_x, k_v, k_y = _reference_closure(net, c_x, c_v, c_y)
        t_x, t_v, t_y = t_x - k_x, t_v - k_v, t_y - k_y
        if not (t_x or t_v or t_y):
            return None
        gen_v = k_v - c_x
        deps = set().union(t_x, t_v, t_y, gen_v)
        for r in t_y:
            deps.update(interferers_of(net, r))
        keys = _reference_columns("X", deps & c_x) + _reference_columns("V", gen_v)
    else:
        t_x, t_v, t_y = t_x - c_x, t_v - c_v, t_y - c_y
        keys = _reference_columns("V", c_v) + _reference_columns("X", c_x) + _reference_columns("Y", c_y)
    return keys, _reference_columns("V", t_v) + _reference_columns("X", t_x) + _reference_columns("Y", t_y)


def reference_query_shape(net, dist, keys, live):
    """The shape of a query reduced by ``reference_reduce_query`` and the
    sorted sources its columns read: the sources as (user, table) under a
    product law or (user, (law, position)) under a joint law, the number of
    keys, and each column as (kind, the sorted-order labels of the sources
    it reads)."""
    read = [reads(net, kind, r) for kind, r in keys + live]
    sources = sorted(set().union(*read))
    label = {s: i for i, s in enumerate(sources)}
    named = dist.tables or [(dist, i) for i in range(len(dist.sizes))]
    tables = tuple((s[0], named[net.replicas.index(s)]) for s in sources)
    columns = tuple((kind, tuple(label[s] for s in r)) for (kind, _), r in zip(keys + live, read))
    return (tables, len(keys), columns), sources


def reference_elemental_columns(rows, signs):
    """The prover's reduction of elemental columns, by row-wise stable
    argsorts and a row-wise ``np.unique``.  Line t of ``rows`` and ``signs``
    holds elemental t's four (reduced row, sign) terms, row -1 and sign 0 for
    padding.  Terms on one row are merged, each column's terms sorted by row,
    the first of equal columns kept and zero columns dropped.  Returns the
    reduced rows and signs and the kept elemental indices."""
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
    return rows[kept], signs[kept], kept.tolist()


def reference_separates(y, columns, rhs) -> bool:
    """The exact Farkas check column by column: y.a_j <= 0 for every sparse
    column a_j (a {row: coefficient} dict) and y.b > 0, with y scaled to
    integers by its common denominator and each dot product summed in
    Python arithmetic."""
    y = {i: Fraction(v) for i, v in y.items()}
    den = math.lcm(*(v.denominator for v in y.values()))
    scaled = {i: v.numerator * (den // v.denominator) for i, v in y.items()}

    def dot(col):
        return sum((scaled.get(i, 0) * c for i, c in col.items()), 0)

    return dot(rhs) > 0 and all(dot(col) <= 0 for col in columns)


# H(A) or H(A|C), I(A;B) or I(A;B|C), each side a comma-separated name list
_BASIC_LINE_RE = re.compile(r"([HI])\(([^()|]+)(?:\|([^()|]+))?\)")


def reference_check_certificate(problem, certificate) -> bool:
    """An exact re-summer of a prover certificate that uses nothing from
    dicbound: it reads only the problem's variable names, named constraints
    and target, each expression a {subset bitmask: coefficient} dict with
    bit i for ``problem.variables[i]``.  A line ``[=]name`` adds that
    constraint with any weight; a line H(A|C) or I(A;B|C), parsed here, adds
    its joint entropies with a non-negative weight.  The weighted sum, in
    Fractions, must equal the target."""
    bit = {name: 1 << i for i, name in enumerate(problem.variables)}
    constraints = {f"[=]{name}": expr for name, expr in problem.constraints}

    def subset(names):
        masks = [bit.get(name) for name in names.split(",")]
        return None if None in masks else sum(set(masks))

    total = {}
    for label, weight in certificate:
        weight = Fraction(weight)
        terms = constraints.get(label)
        if terms is None:
            line = _BASIC_LINE_RE.fullmatch(label)
            if line is None or weight < 0:
                return False
            kind, sides, given = line.groups()
            sides, c = [subset(side) for side in sides.split(";")], subset(given) if given else 0
            if len(sides) != (2 if kind == "I" else 1) or None in sides or c is None:
                return False
            a, b = sides[0], sides[-1]
            terms = {a | c: 1, c: -1} if kind == "H" else {a | c: 1, b | c: 1, a | b | c: -1, c: -1}
        for mask, coeff in terms.items():
            if mask:
                total[mask] = total.get(mask, 0) + weight * coeff
    return {m: c for m, c in total.items() if c} == {m: c for m, c in problem.target.items() if c}


def affine_term_multiplicities(bound_id):
    """Closed-form term multiplicities of a bound recipe as (a, b), meaning
    a*k + b copies at size k, read at the three least sizes and asserted
    affine.  A constant-size recipe ignores k, so it reports a = 0."""
    spec = bound_support_info(bound_id)
    lo = spec["k_range"][0] if spec["parametric"] else 1
    counts = [builtin_recipe(bound_id, k).term_counts() for k in (lo, lo + 1, lo + 2)]
    out = {}
    for key in set().union(*counts):
        c0, c1, c2 = (c[key] for c in counts)
        a = c1 - c0
        b = c0 - a * lo
        assert c2 == a * (lo + 2) + b, f"{bound_id}: term multiplicity for {key} is not affine in k"
        out[key] = (a, b)
    return out


def recipe_chain(recipe):
    """The cut chain of a bound recipe's peel order, in replicated-network
    labels: level j holds the source of every replica not peeled before it
    and the destination of every replica not peeled by its end."""
    left = {(u, c) for u, n in enumerate(recipe.recipe.counts, start=1) for c in range(1, n + 1)}
    subsets = []
    for level in recipe.peel:
        sources = {f"S{u}^{c}" for u, c in left}
        left -= set(level)
        subsets.append(sources | {f"D{u}^{c}" for u, c in left})
    return CutChain.of(subsets)


# the recipe searches that ``check_recipe_search`` runs: those of at most
# this many walks
SEARCH_WALKS = 400


def check_recipe_search(channel, law, bound_id):
    """Check a bound's recipe chain at its least size against the chain
    search up to the chain's length on its network, when that search has at
    most ``SEARCH_WALKS`` walks: the search meets the recipe's walk, values
    it exactly as the identity check values the chain, finds no greater
    least value, and labels it as ``recipe_chain`` does.  Returns whether
    the search ran."""
    spec = bound_support_info(bound_id)
    k = spec["k_range"][0] if spec["parametric"] else None
    recipe = builtin_recipe(bound_id, k)
    network, length = build_extended(channel, recipe.recipe), len(recipe.peel)
    if sum(l ** len(network.replicas) for l in range(1, length + 1)) > SEARCH_WALKS:
        return False
    rdist = replicate_distribution(network, law)
    walks, walk = _chain_walks(network, length), _recipe_walk(network, recipe)
    assert walk in walks, bound_id
    [(_, chain_value, _, _)] = verify_chain_identity(bound_id, channel, law, [k]).per_k
    assert _walk_values(network, rdist, walks)[walks.index(walk)] == chain_value, bound_id
    assert min_chain_bound(network, rdist, length)[1] <= chain_value, bound_id
    assert _walk_chains(network, [walk]) == [recipe_chain(recipe)], bound_id
    return True


def reference_levels(network, chain):
    """Per level: (target outputs, conditioning), read from the node labels of
    every replica at every level, with no assumption that the chain is valid."""
    full = [network.nodes()] + list(chain.subsets)
    levels = []
    for omega_prev, omega in zip(full, full[1:]):
        targets, cond = set(), set()
        for (user, copy), (src, dst) in zip(network.replicas, network.pairs()):
            if dst in omega_prev and dst not in omega:
                targets.add(Y(user, copy))
            if dst not in omega_prev:
                cond.add(Y(user, copy))
            if src not in omega:
                cond.add(X(user, copy))
        levels.append((targets, cond))
    return levels


def reference_terms(network, chain, dist):
    """Every level of the chain evaluated with its own network query."""
    return tuple(
        cond_entropy_network(network, dist, targets, cond) if targets else 0.0
        for targets, cond in reference_levels(network, chain)
    )
