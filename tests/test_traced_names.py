"""Every name the benchmark wraps or calls must exist in the package.

``perfbench/tracing.py`` wraps functions by module path and skips a target it
cannot find, so a rename would silently zero that layer's metrics; a name the
workloads in ``perfbench/worker.py`` call would only fail a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
if not TRACING.exists():
    pytest.skip("perfbench/ is not in this checkout", allow_module_level=True)

_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _resolve(module, dotted):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module, dotted",
                         [(module, dotted) for module, dotted, _ in tracing.SPANNED],
                         ids=[f"{m}.{d}" for m, d, _ in tracing.SPANNED])
def test_spanned_function_exists(module, dotted):
    assert callable(_resolve(module, dotted))


def test_check_table_exists_and_holds_the_traced_checks():
    table = _resolve(*tracing.CHECK_TABLE)
    assert isinstance(table, dict)
    assert all(callable(fn) for fn in table.values())
    assert set(tracing.CHECKS) <= set(table)


def _worker_names():
    """(module, name) for every fronttrack name ``perfbench/worker.py`` reads:
    ``alias.name`` after ``import fronttrack... as alias``, and the names of
    ``from fronttrack... import name``."""
    tree = ast.parse((TRACING.parent / "worker.py").read_text())
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name.split(".")[0] == "fronttrack"})
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fronttrack":
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add((aliases[node.value.id], node.attr))
    return sorted(names)


WORKER_NAMES = _worker_names()


def test_worker_scan_finds_the_workload_calls():
    assert ("fronttrack", "default_envelope") in WORKER_NAMES
    assert ("fronttrack.cli", "main") in WORKER_NAMES


@pytest.mark.parametrize("module, name", WORKER_NAMES,
                         ids=[f"{m}.{n}" for m, n in WORKER_NAMES])
def test_worker_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)
