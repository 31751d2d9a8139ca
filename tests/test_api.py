"""The public API keeps one guard mechanism, module constants, and no
check that `python -O` would strip."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import philab
from philab.structure import BipartiteStructure


def public_functions():
    for info in pkgutil.iter_modules(philab.__path__):
        module = importlib.import_module(f"philab.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if not name.startswith("_"):
                    yield f"{module.__name__}.{name}", obj
    # methods and classmethods alike, such as the from_columns constructor
    for name, obj in inspect.getmembers(
            BipartiteStructure, lambda o: inspect.isfunction(o) or inspect.ismethod(o)):
        if not name.startswith("_"):
            yield f"BipartiteStructure.{name}", obj


def test_no_per_call_limit_or_sample_parameters():
    # resource guards read module constants (DEFAULT_TABLE_LIMIT,
    # DEFAULT_COVER_LIMIT, ...) when they run; no call can override one or
    # cap a search's size on its own
    functions = list(public_functions())
    assert len(functions) > 50
    offenders = [
        f"{where}({param})"
        for where, func in functions
        for param in inspect.signature(func).parameters
        if param in ("budget", "limit", "sample") or param.endswith("_limit")
    ]
    assert offenders == []


def test_public_functions_include_the_structure_classmethods():
    names = {name for name, _ in public_functions()}
    assert {"BipartiteStructure.from_columns", "BipartiteStructure.trace"} <= names


def test_no_assert_statements_in_the_package():
    # soundness checks raise errors; an assert disappears under python -O
    sources = sorted(Path(philab.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_only_the_structure_and_the_oracle_canonicalize_parameter_lists():
    # structure._sorted_params is the one owner of canonical domains, as
    # _checked_params is of checked lists and _literal_pairs of their masks;
    # the oracle keeps its own checks so that it shares no code
    sources = sorted(Path(philab.__file__).parent.rglob("*.py"))
    calls = [
        (path.name, node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "sorted"
        and node.args and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "set"
    ]
    assert {name for name, _ in calls} == {"structure.py", "oracle.py"}, calls


def test_only_delta_packs_signatures():
    # delta._signature is the one memoized builder of signatures and their
    # blocks, so only delta.py knows the packed layout that _pack_literals
    # fills; the q-type search reads its blocks through _signature
    sources = sorted(Path(philab.__file__).parent.rglob("*.py"))
    calls = [
        (path.name, node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and "_pack_literals" in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))
    ]
    assert calls and {name for name, _ in calls} == {"delta.py"}, calls
    assert [path.name for path in sources
            if "_positional_signature" in path.read_text()] == []


def test_the_cli_suites_oracle_and_generators_read_no_private_attribute():
    # the structure owns its checks, masks and caches; the layers above it
    # use the public library only (dunders such as object.__setattr__ aside)
    package = Path(philab.__file__).parent
    reads = [
        f"{name}:{node.lineno} {node.attr}"
        for name in ("cli.py", "suites.py", "oracle.py", "generators.py")
        for node in ast.walk(ast.parse((package / name).read_text(), name))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    ]
    assert reads == []


def test_the_package_builds_every_structure_from_columns():
    # the generators and the parser hand 0/1 byte columns to from_columns;
    # the row constructor is for callers outside the package
    sources = sorted(Path(philab.__file__).parent.rglob("*.py"))
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and "BipartiteStructure" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))
    ]
    assert calls == []
