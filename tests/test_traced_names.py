"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` wraps functions by module path and skips a target it
cannot find, so a rename would silently zero that layer's metrics.
"""

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
