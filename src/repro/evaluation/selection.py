"""The paper's seed-selection method names (Table 2, Figures 5 and 6).

:func:`method_selector` maps each method the paper compares onto a
bound entry of the selector registry (:func:`repro.api.get_selector`):

* ``UN`` / ``TV`` / ``WC`` / ``EM`` / ``PT`` — greedy under IC with the
  respective edge probabilities (Table 2);
* ``IC`` — alias for ``EM``, the Figure-5/6 label;
* ``LT`` — greedy under LT with learned weights;
* ``CD`` — the credit-distribution maximizer;
* ``HighDegree`` / ``PageRank`` — the structural baselines of Figure 6.

Seeds come from ``method_selector(method).select(context, k).seeds``
over one shared :class:`~repro.api.context.SelectionContext`, so every
method reuses the learned artifacts (EM probabilities, LT weights, the
credit index); :func:`repro.api.run_experiment` runs the same
selectors from a config and scores them under the CD proxy.

For the IC and LT models the mapping defaults to the PMIA and LDAG
heuristics, exactly as the paper does where MC greedy "is too slow to
complete in a reasonable time" (footnote 3); pass
``ic_algorithm="celf"`` / ``lt_algorithm="celf"`` for the Monte Carlo
greedy used on the small dataset.
"""

from __future__ import annotations

from repro.api.context import IC_PROBABILITY_METHODS
from repro.api.registry import Selector, get_selector
from repro.utils.validation import require

__all__ = ["method_selector"]


def method_selector(
    method: str,
    ic_algorithm: str = "pmia",
    lt_algorithm: str = "ldag",
) -> Selector:
    """Map a paper method name onto a bound registry selector.

    ``CD``/``HighDegree``/``PageRank`` map directly; the IC probability
    methods (``UN``/``TV``/``WC``/``EM``/``PT``, plus the ``IC`` alias
    for ``EM``) map to PMIA or Monte-Carlo CELF per ``ic_algorithm``;
    ``LT`` maps to LDAG or Monte-Carlo CELF per ``lt_algorithm``.
    """
    require(
        ic_algorithm in ("pmia", "celf"),
        f"ic_algorithm must be 'pmia' or 'celf', got {ic_algorithm!r}",
    )
    require(
        lt_algorithm in ("ldag", "celf"),
        f"lt_algorithm must be 'ldag' or 'celf', got {lt_algorithm!r}",
    )
    if method == "IC":
        method = "EM"
    if method in IC_PROBABILITY_METHODS:
        if ic_algorithm == "pmia":
            return get_selector("pmia", method=method)
        return get_selector("celf", model="ic", method=method)
    if method == "LT":
        if lt_algorithm == "ldag":
            return get_selector("ldag")
        return get_selector("celf", model="lt")
    if method == "CD":
        return get_selector("cd")
    if method == "HighDegree":
        return get_selector("high_degree")
    if method == "PageRank":
        return get_selector("pagerank")
    raise ValueError(f"unknown seed-selection method {method!r}")
