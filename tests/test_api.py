import ast
import dataclasses
from collections import Counter
from pathlib import Path

import dicbound


def test_every_exported_name_resolves_once():
    # a name left in __all__ after its object is gone breaks
    # `from dicbound import *`
    assert [name for name, n in Counter(dicbound.__all__).items() if n > 1] == []
    assert [name for name in dicbound.__all__ if not hasattr(dicbound, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dicbound import *", namespace)
    assert set(dicbound.__all__) <= namespace.keys()


# public names that neither the library names nor ``__all__`` exports, each
# kept on purpose
REACHED_FROM_OUTSIDE = {
    "channels.channel_to_dict": "writes the table document form that channel_from_dict reads",
    "entropy.X": "the input-variable constructor beside V and Y, for callers naming queries",
    "extend.recipe_to_dict": "writes the recipe file form that recipe_from_dict and --network read",
    "networks.NetworkGraph.source_label": "a replica's source node label, read by bench/workloads.py and the tests",
    "networks.network_entropy": "public H(subset): cond_entropy_network, so memo_entropy, with nothing conditioned",
}


def names_in(node) -> Counter:
    """How often each identifier is named under ``node``, as a name or as an
    attribute."""
    nodes = list(ast.walk(node))
    names = [n.id for n in nodes if isinstance(n, ast.Name)]
    return Counter(names + [n.attr for n in nodes if isinstance(n, ast.Attribute)])


def test_every_public_definition_is_used_exported_or_listed():
    # a public module-level function or class, or a public method, that only
    # tests reach belongs in tests/first_principles.py; names are matched by
    # identifier, and a definition's own body does not count as a use of it
    named, definitions = Counter(), {}
    for path in sorted(Path(dicbound.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        named += names_in(module)
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                definitions[f"{path.stem}.{stmt.name}"] = stmt
            if isinstance(stmt, ast.ClassDef):
                for method in stmt.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        definitions[f"{path.stem}.{stmt.name}.{method.name}"] = method
    unreached = {
        qualified
        for qualified, definition in definitions.items()
        if definition.name not in dicbound.__all__ and named[definition.name] == names_in(definition)[definition.name]
    }
    assert sorted(unreached) == sorted(REACHED_FROM_OUTSIDE)


# each step of the entropy engine -> the only library statements that may name
# it: compile_query, the law-free half of a network query, reduces it and
# takes its columns from query_plan, as induce_joint, the one joint table,
# does on the full masks; memo_entropy, the one network query's law step, and
# induce_joint each check the law once, and only memo_entropy names a query's
# shape, its kernel, the kernel's per-law step and query_entropy, the
# fallback for a query without a kernel; only query_entropy,
# induce_joint and the kernel's mass step enumerate sources, all by source
# position, so no query skips the law check, the memo or the atom cap; and
# columns are evaluated only in query_entropy, induce_joint and a kernel's
# one compile, which query_kernel runs within its size rules
ENGINE_STEPS = {
    "reduce_query": {"networks.compile_query"},
    "query_plan": {"networks.compile_query", "entropy.induce_joint"},
    "query_shape": {"networks.memo_entropy"},
    "query_entropy": {"networks.memo_entropy"},
    "query_kernel": {"networks.memo_entropy"},
    "kernel_entropy": {"networks.memo_entropy"},
    "kernel_masses": {"networks.kernel_entropy"},
    "compile_kernel": {"networks.query_kernel"},
    "check_law": {"networks.memo_entropy", "entropy.induce_joint"},
    "source_atoms": {"networks.query_entropy", "entropy.induce_joint", "networks.kernel_masses"},
    "evaluate_columns": {"entropy.induce_joint", "networks.query_entropy", "networks.compile_kernel"},
}


def test_the_engine_steps_are_named_only_in_their_entries():
    # every statement of the library that names a step, an import included;
    # a step's own definition does not count
    naming = {step: set() for step in ENGINE_STEPS}
    for path in sorted(Path(dicbound.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            named = {n.id for n in nodes if isinstance(n, ast.Name)}
            named |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            named |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
            named -= {getattr(stmt, "name", None)}
            for step in named & ENGINE_STEPS.keys():
                naming[step].add(f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}")
    assert naming == ENGINE_STEPS


def test_only_networks_names_the_private_fields_of_a_network():
    # the bit of a replica, the source sizes and the wiring masks and reads
    # belong to networks; every other module goes through NetworkGraph's
    # methods and the engine's steps
    from dicbound.networks import NetworkGraph

    private = {f.name for f in dataclasses.fields(NetworkGraph) if f.name.startswith("_")}
    assert {"_bit", "_sizes", "_wired_masks", "_output_reads"} <= private
    naming = set()
    for path in sorted(Path(dicbound.__file__).parent.glob("*.py")):
        if path.stem != "networks":
            named = names_in(ast.parse(path.read_text(encoding="utf-8")))
            naming |= {f"{path.stem}: {name}" for name in private if named[name]}
    assert naming == set()


def object_setattr_calls(node) -> set:
    """Every ``object.__setattr__(...)`` call under ``node``."""
    return {
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "__setattr__"
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "object"
    }


def test_frozen_fields_are_set_only_in_post_init():
    # a frozen dataclass derives its own fields in __post_init__ and is plain
    # data after that: no library statement writes a field of one later, as
    # a cache on a recipe would
    outside = []
    for path in sorted(Path(dicbound.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        inits = [n for n in ast.walk(module) if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"]
        allowed = set().union(*map(object_setattr_calls, inits))
        outside += [f"{path.stem}:{call.lineno}" for call in object_setattr_calls(module) - allowed]
    assert outside == []


def builds_a_chain(call: ast.Call) -> bool:
    """Whether the call is ``CutChain(...)`` or ``CutChain.of(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "of":
        func = func.value
    return isinstance(func, ast.Name) and func.id == "CutChain"


def test_cut_chains_are_built_only_at_the_edge():
    # inside the library a chain is its walk of replica masks: outside
    # CutChain's own methods, only the walk -> labels conversion builds one,
    # and the CLI reading a chain document
    building = set()
    for path in sorted(Path(dicbound.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == "CutChain":
                continue
            if any(isinstance(n, ast.Call) and builds_a_chain(n) for n in ast.walk(stmt)):
                building.add(f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}")
    assert building == {"gcs._walk_chains", "cli._chain_from_doc"}
