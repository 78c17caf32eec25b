"""The NumPy kernels' integer dedup and numbering: never NumPy's hash
path, never its argsort path.

NumPy >= 2.3 answers a bare ``np.unique`` (and ``np.union1d``, which
calls it) through a hash table, an order of magnitude slower than one
sort on the kernels' integer keys; ``_sorted_unique`` is the sort.  A
``np.unique`` that asks for first indices or an inverse pays a stable
argsort instead: on 16,000 int64 keys about 1.2 ms, against 0.09 ms
for ``np.sort``, and 10-30x the dense first-seen table of
``_first_seen``, which numbers ids below a known bound.  The guards
below keep every kernel on those two; ``return_counts`` stays allowed.
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


def _kernel_numpy_calls(flagged) -> list[str]:
    """Each ``np.<name>(...)`` call under ``src/repro/kernels`` for which
    ``flagged(name, keyword_names)`` holds."""
    modules = sorted(KERNELS_DIR.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and flagged(
                    node.func.attr,
                    {keyword.arg or "" for keyword in node.keywords},
                )
            ):
                found.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
    return found


def test_no_kernel_dedups_through_a_hash_table():
    found = _kernel_numpy_calls(
        lambda name, keywords: name == "union1d"
        or (
            name == "unique"
            and not any(keyword.startswith("return_") for keyword in keywords)
        )
    )
    assert found == [], (
        "use repro.kernels.interning._sorted_unique instead: " + ", ".join(found)
    )


def test_no_kernel_numbers_ids_through_an_argsort():
    found = _kernel_numpy_calls(
        lambda name, keywords: name == "unique"
        and bool(keywords & {"return_index", "return_inverse"})
    )
    assert found == [], (
        "use repro.kernels.interning._first_seen instead: " + ", ".join(found)
    )
