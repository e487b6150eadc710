"""Every name the benchmark and README take from nedmsim, and every ``__all__`` entry, exists.

The benchmark imports nedmsim names and wraps others by name, so a removal
that forgets one would only show as a failed benchmark run; here it fails
a test, as does a README python block importing a removed name. The
benchmark's files and README's blocks are read with ``ast``, never executed.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import nedmsim

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALLERS = [*sorted((ROOT / "bench").glob("*.py")), ROOT / ".github" / "ci_checks.py"]
WRAPPED_TABLES = ("SPAN_FUNCTIONS", "AGGREGATE_FUNCTIONS")


def _nedmsim_imports(source: str, filename: str) -> list[tuple[str, str]]:
    """(module, name) of each ``from nedmsim... import name`` in source."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nedmsim"
            for alias in node.names]


def _imported_names() -> list[tuple[str, str]]:
    """(module, name) of each nedmsim import in the callers."""
    return [pair for path in CALLERS for pair in _nedmsim_imports(path.read_text(), str(path))]


def _readme_names() -> list[tuple[str, str]]:
    """(module, name) of each nedmsim import in README's fenced python blocks."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    return [pair for block in blocks for pair in _nedmsim_imports(block, "README.md")]


def _wrapped_names() -> list[tuple[str, str]]:
    """(module, name) of each function that bench/spans.py wraps by name."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in WRAPPED_TABLES
    }
    assert sorted(tables) == sorted(WRAPPED_TABLES)
    return [(module, name) for table in tables.values()
            for module, names in table.items() for name in names]


def _missing(pairs: list[tuple[str, str]]) -> list[str]:
    return [f"{module}.{name}" for module, name in pairs
            if not hasattr(importlib.import_module(module), name)]


def test_benchmark_imports_resolve():
    imported = _imported_names()
    assert imported  # the benchmark takes its entry points by import
    assert _missing(imported) == []


def test_readme_imports_resolve():
    imported = _readme_names()
    assert imported  # README's library section imports its entry points
    assert _missing(imported) == []


def test_benchmark_wrapped_functions_exist():
    assert _missing(_wrapped_names()) == []


def test_every_module_all_resolves_without_duplicates():
    modules = [nedmsim] + [
        importlib.import_module(f"nedmsim.{info.name}")
        for info in pkgutil.iter_modules(nedmsim.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        exported = getattr(module, "__all__", [])  # the cli module declares none
        assert len(exported) == len(set(exported)), module.__name__
        assert _missing([(module.__name__, name) for name in exported]) == []
