"""The library's public surface is what its own code and the benchmark use.

Three guards, all read from the source with ``ast``:

* every public module-level function or class of ``costglue`` is named
  somewhere in ``src/`` or ``perfbench/`` beyond its own definition and
  the package's re-exports, so a symbol that only tests use shows up
  here; suite bodies, which ``@register`` puts in the registry, are
  exempt;
* every ``costglue`` name that ``perfbench/*.py`` reads resolves, and
  every call it makes to one binds to the callee's signature, so a
  deletion cannot silently break the benchmark;
* the library modules import nothing from the checker (``harness``,
  ``suites``, ``cli``), so the data structures stand without it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "costglue"
BENCH = ROOT / "perfbench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree: ast.AST) -> Iterator[str]:
    """Every identifier a module reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _is_registered(node: ast.FunctionDef | ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "register"
        for d in node.decorator_list
    )


def unused_public_names() -> List[str]:
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    used: Dict[Path, List[str]] = {p: list(_names(tree)) for p, tree in modules.items()}
    bench_names = {n for p in BENCH.glob("*.py") for n in _names(_parse(p))}
    unused = []
    for path, tree in modules.items():
        elsewhere: Set[str] = set(bench_names)
        for other, names in used.items():
            if other != path:
                elsewhere.update(names)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or _is_registered(node):
                continue
            if node.name not in elsewhere and node.name not in used[path]:
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_symbol_has_a_caller_outside_the_tests() -> None:
    assert unused_public_names() == []


def _costglue_bindings(tree: ast.Module) -> Dict[str, Any]:
    """Local names a perfbench module binds to ``costglue`` modules or their members."""
    bound: Dict[str, Any] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "costglue":
            source = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = getattr(source, alias.name)
                except AttributeError:  # a submodule not imported yet, or a missing name
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = value
    return bound


def _resolve(node: ast.AST, bound: Dict[str, Any], where: str) -> Optional[Any]:
    """The object a ``costglue`` name or attribute chain reads; None for anything else."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, bound, where)
        if base is None:
            return None
        assert hasattr(base, node.attr), f"{where}: {ast.unparse(node)} does not exist"
        return getattr(base, node.attr)
    return None


def test_every_costglue_name_the_benchmark_reads_resolves() -> None:
    checked = 0
    for path in sorted(BENCH.glob("*.py")):
        tree = _parse(path)
        bound = _costglue_bindings(tree)
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and _resolve(node, bound, where) is not None:
                checked += 1
            if isinstance(node, ast.Call) and not any(isinstance(a, ast.Starred) for a in node.args):
                fn = _resolve(node.func, bound, where)
                if fn is None or any(k.arg is None for k in node.keywords):
                    continue
                try:
                    signature = inspect.signature(fn)
                except (TypeError, ValueError):
                    continue
                try:
                    signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
                except TypeError as err:
                    raise AssertionError(f"{where}: {ast.unparse(node)}: {err}") from None
    # The benchmark reads, among others, rbtree._validate,
    # rbtree.Node.__post_init__, cli.SuiteConfig and queues.run_trace.
    assert checked > 20


LIBRARY = ("cost", "phase", "sealing", "queues", "rbtree", "sorting")
CHECKER = {"harness", "suites", "cli"}


def _imported_modules(tree: ast.Module) -> Iterator[str]:
    """The ``costglue`` modules a package module imports, by their short names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level:
                if path[0] != "costglue":
                    continue
                path = path[1:]
            if path and path[0]:
                yield path[0]
            else:  # ``from . import x`` or ``from costglue import x``
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "costglue" and len(path) > 1:
                    yield path[1]


def test_the_library_imports_nothing_from_the_checker() -> None:
    offending = {
        module: sorted(CHECKER.intersection(_imported_modules(_parse(PACKAGE / f"{module}.py"))))
        for module in LIBRARY
    }
    assert {m: names for m, names in offending.items() if names} == {}
