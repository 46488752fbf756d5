import ast
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
    "networks.network_entropy": "public H(subset): cond_entropy_network, so memo_entropy, with nothing conditioned",
}


def test_every_public_definition_is_used_exported_or_listed():
    # a public module-level function or class that only tests reach belongs
    # in tests/first_principles.py; names are matched by identifier, and a
    # definition's own body does not count as a use of it
    statements, definitions = [], {}
    for path in sorted(Path(dicbound.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            named = {n.id for n in nodes if isinstance(n, ast.Name)}
            named |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            statements.append((stmt, named))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                definitions[f"{path.stem}.{stmt.name}"] = stmt
    unreached = {
        qualified
        for qualified, definition in definitions.items()
        if definition.name not in dicbound.__all__
        and not any(definition.name in named for stmt, named in statements if stmt is not definition)
    }
    assert sorted(unreached) == sorted(REACHED_FROM_OUTSIDE)


QUERY_STEPS = {"reduce_query", "query_shape", "query_entropy"}


def test_the_query_steps_are_named_only_in_memo_entropy():
    # memo_entropy is the one network query: no other statement of the
    # library, an import included, names its steps, so none can skip the
    # law check or the memo; a step's own definition does not count
    naming = {}
    for path in sorted(Path(dicbound.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            named = {n.id for n in nodes if isinstance(n, ast.Name)}
            named |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            named |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
            named -= {getattr(stmt, "name", None)}
            if named & QUERY_STEPS:
                naming[f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}"] = named & QUERY_STEPS
    assert naming == {"networks.memo_entropy": QUERY_STEPS}
