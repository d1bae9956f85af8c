"""Every name the benchmark imports from ncgeom must keep resolving."""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def resolve(dotted: str):
    """The object a dotted name refers to, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:k]))
    return obj


def bench_names() -> set[str]:
    """`from ncgeom... import x` targets in bench/*.py, plus each attribute
    the benchmark reads from an imported ncgeom module (`ncio.load_digraph`)."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ncgeom":
                for alias in node.names:
                    target = f"{node.module}.{alias.name}"
                    names.add(target)
                    aliases[alias.asname or alias.name] = target
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and inspect.ismodule(resolve(aliases[node.value.id]))
            ):
                names.add(f"{aliases[node.value.id]}.{node.attr}")
    return names


def test_bench_imports_resolve():
    names = bench_names()
    assert {"ncgeom.distance.distance", "ncgeom.io.load_digraph"} <= names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing
