"""Command-line entry point.

Subcommands: validate, region, gcs, extend, prove, compare.  Runs are
reproducible: every sampled law derives from a seed (``--dist seed:N``, or
``--seed`` for ``region --samples`` and ``compare``) through per-index stream
splitting, and CSV/text output is byte-stable for identical configurations.

Exit codes: 0 success, 1 validation/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .channels import builtin_channel, channel_from_dict, validate_channel
from .entropy import SourceDistribution, distribution_from_dict
from .errors import BudgetExceededError, ChainValidationError, DicboundError, UnsupportedBoundError, UsageError
from .extend import (
    bound_support_info,
    build_extended,
    builtin_recipe,
    limit_bound,
    recipe_from_dict,
    supported_bounds,
    verify_chain_identity,
    verify_replica_rates,
)
from .gcs import CutChain, chain_values, evaluate_chain, tightest_chain
from .networks import base_network
from .prover import ProverProblem, appendix_targets, expr_from_names, prove, rational
from .regions import (
    MAX_SAMPLES,
    bound_vector,
    load_templates,
    region_polytope,
    render_region_svg,
    sample_region,
)
from .sampling import sample_product_distribution

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _load_file(path: str, what: str, build):
    """``build`` applied to a JSON input file's document.  The one loading path
    for the channel, --dist, --network, --chain and --problem files: an
    unreadable, unparsable (nested past the recursion limit, too) or
    malformed file is a ``UsageError`` naming the file.  A problem file's
    number literals are read exactly from their text (``prover.rational``,
    so 0.1 is 1/10); the other files read them as floats."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh, parse_float=rational if what == "problem" else float))
    except (OSError, ValueError, RecursionError, DicboundError) as exc:
        raise UsageError(f"cannot load {what} {path!r}: {exc}") from exc


def _resolve_channel(ref: str):
    """A channel reference: a JSON file, a built-in name, or name:params."""
    if ref.endswith(".json"):
        return _load_file(ref, "channel", channel_from_dict)
    name, _, raw = ref.partition(":")
    try:
        return builtin_channel(name, [int(p) for p in raw.split(",")] if raw else None)
    except (DicboundError, ValueError) as exc:
        raise UsageError(f"cannot load channel {ref!r}: {exc}") from exc


def _resolve_dist(ref: str, sizes) -> SourceDistribution:
    if ref == "uniform":
        return SourceDistribution.uniform(sizes)
    if ref.startswith("seed:"):
        try:
            seed = int(ref.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"distribution seed is not an integer: {ref!r}") from exc
        return sample_product_distribution(sizes, seed, 0)
    return _load_file(ref, "distribution", lambda doc: distribution_from_dict(doc, sizes))


def _count(text: str) -> int:
    """argparse type for counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
    return value


def _k_range(text: str) -> range:
    """argparse type for --k: a size k or a range lo..hi, every k >= 1."""
    lo, _, hi = text.partition("..")
    ks = range(_count(lo), _count(hi or lo) + 1)
    if not ks:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return ks


def cmd_validate(args) -> int:
    channel = _resolve_channel(args.channel)
    report = validate_channel(channel)
    if report.valid:
        print(f"channel {args.channel}: valid (interference recoverable at every receiver)")
        return 0
    print(f"channel {args.channel}: INVALID (interference-recoverability violations)")
    for user, x, group in report.violations:
        tuples = "; ".join(str(t) for t in group)
        print(f"  user {user}, input {x}: colliding interference tuples {tuples}")
    return VERIFY_ERROR


def cmd_region(args) -> int:
    if args.samples is not None and args.dist is not None:
        raise UsageError("--dist and --samples exclude each other")
    channel = _resolve_channel(args.channel)
    if args.out == "svg" and channel.user_count != 2:
        raise UsageError("SVG output is limited to 2-user regions")
    base_network(channel)  # the network check refuses a non-recoverable channel before any output
    templates = load_templates(channel.user_count)
    if args.samples is not None:
        polytopes = sample_region(channel, args.seed, args.samples, templates)
        if args.out == "svg":
            sys.stdout.write(render_region_svg(polytopes))
            return 0
        print("sample,template,rhs_bits")
        for s, poly in enumerate(polytopes):  # each sample printed as it is computed
            for t, (_, rhs) in zip(templates, poly.halfspaces):
                print(f"{s},{t.id},{_fmt(rhs)}")
        return 0
    dist = _resolve_dist(args.dist or "uniform", channel.input_sizes)
    vector = bound_vector(channel, dist, templates)
    if args.out == "svg":
        sys.stdout.write(render_region_svg([region_polytope(vector, templates)]))
        return 0
    print("template,rhs_bits")
    for bound_id, value in vector.items():
        print(f"{bound_id},{_fmt(value)}")
    return 0


def _load_network(args):
    channel = _resolve_channel(args.channel) if args.channel else None
    if args.network:

        def parse(doc):
            if not isinstance(doc, dict) or "recipe" not in doc or not (channel or "channel" in doc):
                raise UsageError("needs an object with 'recipe' and, without --channel, 'channel'")
            return channel or channel_from_dict(doc["channel"]), recipe_from_dict(doc["recipe"])

        # A well-formed recipe that fails the network checks, or a channel that
        # fails recoverability, is a validation failure (exit 1), not a usage error.
        return build_extended(*_load_file(args.network, "network", parse))
    if channel is None:
        raise UsageError("either --channel or --network is required")
    return base_network(channel)


def _chain_from_doc(doc) -> CutChain:
    if not isinstance(doc, list) or not all(
        isinstance(s, list) and all(isinstance(n, str) for n in s) for s in doc
    ):
        raise UsageError("a chain is a list of node-label lists")
    return CutChain.of(doc)


def cmd_gcs(args) -> int:
    if args.chain and args.enumerate:
        raise UsageError("--chain and --enumerate exclude each other")
    network = _load_network(args)
    sizes = network.source_sizes()
    dist = _resolve_dist(args.dist, sizes)
    if args.enumerate:
        values = chain_values(network, dist, args.max_l)
        print(f"valid chains up to length {args.max_l}: {len(values)}")
        for chain, value in values:
            subsets = " >= ".join("{" + ",".join(s) + "}" for s in chain.canonical())
            print(f"{_fmt(value)}  {subsets}")
        chain, best = tightest_chain(values)
        print(f"tightest: {_fmt(best)} via {[sorted(s) for s in chain.subsets]}")
        return 0
    if not args.chain:
        raise UsageError("--chain FILE or --enumerate is required")
    chain = _load_file(args.chain, "chain", _chain_from_doc)
    try:
        value = evaluate_chain(network, chain, dist)
    except ChainValidationError as exc:
        print("invalid chain:")
        for v in exc.violations:
            print(f"  {v}")
        return VERIFY_ERROR
    for idx, term in enumerate(value.terms, start=1):
        print(f"term {idx}: {_fmt(term)}")
    print(f"total: {_fmt(value.total)}")
    return 0


def cmd_extend(args) -> int:
    channel = _resolve_channel(args.channel)
    dist = _resolve_dist(args.dist, channel.input_sizes)
    spec = bound_support_info(args.bound)
    if spec["users"] != channel.user_count:
        raise UsageError(
            f"bound {args.bound} is a {spec['users']}-user bound, "
            f"channel {args.channel} has {channel.user_count} users"
        )
    # A constant-size bound ignores k; a k out of range fails before any output.
    ks = args.k or [1, 2, 3]
    report = verify_chain_identity(args.bound, channel, dist, k_range=ks)
    for k, chain_v, closed_v, diff in report.per_k:
        tag = f"k={k}" if spec["parametric"] else "fixed size"
        line = f"{args.bound} {tag}: chain {_fmt(chain_v)}, closed form {_fmt(closed_v)}"
        print(line + (f", |diff| {diff:.2e}" if args.verify else ""))
    if not args.verify:
        return 0
    for inc in report.increments:
        print(f"increment: {_fmt(inc)}")
    for diag in report.diagnostics:
        print(f"MISMATCH {diag}")
    # the largest deviation over every size the identity checked
    sizes = ks if spec["parametric"] else [None]
    deviation = max(
        verify_replica_rates(channel, builtin_recipe(args.bound, k).recipe, dist).max_deviation for k in sizes
    )
    print(f"replica rate deviation: {deviation:.2e}")
    weights, bits = limit_bound(args.bound, channel, dist)
    print(f"limit: {'+'.join(f'{w}R{u+1}' for u, w in enumerate(weights) if w)} <= {_fmt(bits)}")
    return 0 if report.ok else VERIFY_ERROR


def _problem_from_doc(doc, path: str) -> ProverProblem:
    if not isinstance(doc, dict) or not {"variables", "target"} <= doc.keys():
        raise UsageError("needs an object with 'variables' and 'target'")
    variables, entries = doc["variables"], doc.get("constraints", [])
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise UsageError("'variables' must be a list of names")
    if not isinstance(entries, list) or not all(
        isinstance(c, dict) and "expr" in c and isinstance(c.get("name", ""), str) for c in entries
    ):
        raise UsageError("'constraints' must be a list of {name, expr} objects")
    if not isinstance(doc.get("name", ""), str):
        raise UsageError("'name' must be a string")
    variables = tuple(variables)
    return ProverProblem(
        variables=variables,
        constraints=tuple(
            (c.get("name", f"constraint {i}"), expr_from_names(variables, c["expr"]))
            for i, c in enumerate(entries, start=1)
        ),
        target=expr_from_names(variables, doc["target"]),
        name=doc.get("name", path),
    )


def cmd_prove(args) -> int:
    if args.problem:
        problems = [_load_file(args.problem, "problem", lambda doc: _problem_from_doc(doc, args.problem))]
    else:
        problems = appendix_targets(args.bound)
    failures = 0
    for problem in problems:
        result = prove(problem)
        print(f"{problem.name or 'problem'}: {result.status}")
        if not result.provable:
            failures += 1
        if result.certificate:
            for label, coeff in result.certificate:
                print(f"  {coeff} * {label}")
        else:
            print(f"  {result.message}")
    return VERIFY_ERROR if failures else 0


def cmd_compare(args) -> int:
    channel = _resolve_channel(args.channel)
    if args.samples > MAX_SAMPLES:
        raise BudgetExceededError(f"{args.samples} compare samples exceed the cap of {MAX_SAMPLES}")
    base_network(channel)  # the network check refuses a non-recoverable channel before any output
    bounds = [b for b in supported_bounds(channel.user_count)]
    print("dist,bound,direct_bound_bits,chain_limit_bits,abs_diff")
    for index in range(args.samples):
        dist = (
            SourceDistribution.uniform(channel.input_sizes)
            if index == 0
            else sample_product_distribution(channel.input_sizes, args.seed, index - 1)
        )
        vector = bound_vector(channel, dist)
        for bound_id in bounds:
            _, bits = limit_bound(bound_id, channel, dist)
            diff = abs(bits - vector[bound_id])
            print(f"{index},{bound_id},{_fmt(vector[bound_id])},{_fmt(bits)},{diff:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicbound",
        description="Outer bounds for deterministic interference channels: "
        "rate regions, cut-chain bounds on replicated networks, and a "
        "Shannon-inequality prover.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a channel's interference recoverability")
    p.add_argument("--channel", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("region", help="evaluate rate-region bounds")
    p.add_argument("--channel", required=True)
    p.add_argument("--dist", help="law: uniform (the default), seed:N or a JSON file; not with --samples")
    p.add_argument("--samples", type=_count, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", choices=["csv", "svg"], default="csv")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("gcs", help="validate/evaluate cut chains on a network")
    p.add_argument("--channel")
    p.add_argument("--network", help="JSON file with channel and replication recipe")
    p.add_argument("--dist", default="uniform")
    p.add_argument("--chain", help="JSON file: list of node-label lists")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--max-l", type=_count, default=2)
    p.set_defaults(func=cmd_gcs)

    p = sub.add_parser("extend", help="build replicated networks and verify chain identities")
    p.add_argument("--bound", required=True)
    p.add_argument("--k", type=_k_range, help="size or range, e.g. 3 or 1..5")
    p.add_argument("--channel", required=True)
    p.add_argument("--dist", default="uniform")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("prove", help="prove per-bound residue inequalities or a problem file")
    p.add_argument("--bound")
    p.add_argument("--problem")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("compare", help="chain-limit bounds vs direct rate bounds over a sweep")
    p.add_argument("--channel", required=True)
    p.add_argument("--samples", type=_count, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "prove" and bool(args.bound) == bool(args.problem):
        parser.error("prove needs exactly one of --bound or --problem")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the flush at exit
        return code
    except (UsageError, UnsupportedBoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DicboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull, so
        # the flush at exit cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
