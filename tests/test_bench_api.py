"""Every name the benchmark imports from ncgeom must keep resolving, and
every keyword it passes must stay a parameter of the callable it calls."""

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


def bench_trees():
    return [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]


def ncgeom_aliases(tree) -> dict[str, str]:
    """Local name -> dotted target of each `from ncgeom... import x`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ncgeom":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def module_attribute(node, aliases) -> str | None:
    """The dotted name of `alias.attr` when alias is an imported ncgeom module."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and inspect.ismodule(resolve(aliases[node.value.id]))
    ):
        return f"{aliases[node.value.id]}.{node.attr}"
    return None


def bench_names() -> set[str]:
    """`from ncgeom... import x` targets in bench/*.py, plus each attribute
    the benchmark reads from an imported ncgeom module (`ncio.load_digraph`)."""
    names = set()
    for tree in bench_trees():
        aliases = ncgeom_aliases(tree)
        names.update(aliases.values())
        for node in ast.walk(tree):
            name = module_attribute(node, aliases)
            if name is not None:
                names.add(name)
    return names


def bench_keywords() -> set[tuple[str, str]]:
    """(callable, keyword) for each keyword argument that bench/*.py passes
    in a call to an imported ncgeom name or module attribute."""
    pairs = set()
    for tree in bench_trees():
        aliases = ncgeom_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = aliases.get(node.func.id)
            else:
                name = module_attribute(node.func, aliases)
            if name is not None:
                pairs.update((name, kw.arg) for kw in node.keywords if kw.arg)
    return pairs


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


def test_bench_keywords_are_parameters():
    pairs = bench_keywords()
    assert {
        ("ncgeom.sigma_toda.current_ladder", "m_max"),
        ("ncgeom.matrix_rep.verify_triple", "fs"),
        ("ncgeom.finite_calculus.build_universal", "degree_cap"),
        ("ncgeom.sigma_toda.toda_integrate", "boundary"),
        ("ncgeom.sigma_toda.discrete_continuum_orders", "t_final"),
    } <= pairs
    unknown = [
        (name, kw)
        for name, kw in sorted(pairs)
        if kw not in inspect.signature(resolve(name)).parameters
    ]
    assert not unknown
