"""The NumPy kernels' integer dedup: one sort, never NumPy's hash path.

NumPy >= 2.3 answers a bare ``np.unique`` (and ``np.union1d``, which
calls it) through a hash table, an order of magnitude slower than one
sort on the kernels' integer keys.  ``_sorted_unique`` is the sort;
the guard below keeps every kernel on it.  A ``np.unique`` call that
asks for indices, an inverse or counts is answered by sorting already.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

KERNELS_DIR = Path(__file__).resolve().parent.parent / "src/repro/kernels"

INPUTS = {
    "empty": [],
    "one": [7],
    "all_equal": [3, 3, 3, 3],
    "sorted": [0, 1, 1, 2, 5, 5, 9],
    "reversed": [9, 5, 5, 2, 1, 1, 0],
    "negative": [-4, 2, -4, 0, -1, 2, -9],
}


@pytest.mark.parametrize("dtype", ["int32", "int64"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_sorted_unique_equals_np_unique(name, dtype):
    np = pytest.importorskip("numpy")
    from repro.kernels.interning import _sorted_unique

    values = np.array(INPUTS[name], dtype=dtype)
    expected = np.unique(values)
    got = _sorted_unique(values)
    assert got.dtype == values.dtype
    np.testing.assert_array_equal(got, expected)


def _hashing_calls(path: Path) -> list[str]:
    """Each ``np.union1d`` or bare ``np.unique`` call in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        keywords = {keyword.arg or "" for keyword in node.keywords}
        bare_unique = node.func.attr == "unique" and not any(
            keyword.startswith("return_") for keyword in keywords
        )
        if node.func.attr == "union1d" or bare_unique:
            found.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
    return found


def test_no_kernel_dedups_through_a_hash_table():
    modules = sorted(KERNELS_DIR.glob("*.py"))
    assert modules
    found = [call for path in modules for call in _hashing_calls(path)]
    assert found == [], (
        "use repro.kernels.interning._sorted_unique instead: " + ", ".join(found)
    )
