"""``repro.kernels`` — interned, NumPy-vectorized compute kernels.

The reproduction's hot paths — learning (Eq.-9 influenceability, the
Saito-EM fixed point), the Algorithm-2 credit scan, the sigma_cd
evaluator's build and queries, the CD maximizer's cold start,
Monte-Carlo IC/LT spread and reverse-reachability sketches — are
array-shaped: frontier
expansion over CSR adjacency, segment reductions over flat episode
arrays, batched Bernoulli trials over edge arrays.  This subpackage
provides NumPy implementations of each, dispatched as a selectable
*backend* of the :mod:`repro.api` layer:

* :mod:`repro.kernels.interning` — :class:`IdMap` (users/actions to
  contiguous ``int32`` ids), the :class:`CompiledGraph` CSR and the
  :class:`CompiledLog` whole-log trace and link arrays (its only
  layout), built once and cached on
  :class:`~repro.api.context.SelectionContext`, and
  :func:`positive_csr`, the one CSR over positive-valued edges that
  the Monte-Carlo and sketch kernels compile;
* :mod:`repro.kernels.params_numpy` — Eq.-9 ``tau``/``infl`` learning
  over the compiled log (bit-for-bit
  :func:`repro.core.params.learn_influenceability`);
* :mod:`repro.kernels.em_numpy` — the EM fixed point over flat
  episode/parent-edge arrays (bit-for-bit the estimator of
  :func:`repro.probabilities.em.learn_ic_probabilities_em`);
* :mod:`repro.kernels.scan_numpy` — Algorithm 2, level by level over
  the compiled log's link arrays, handed over to the columnar
  :class:`~repro.core.index.CreditIndex`;
* :mod:`repro.kernels.cd_numpy` — the sigma_cd evaluator's columns
  taken from the compiled log (byte-for-byte
  :class:`~repro.core.spread.CDSpreadEvaluator`), its query kernel
  (one gather and one ``bincount`` per depth level of the whole link
  table, bit-for-bit the Python walk), and the CD maximizer's
  empty-seed-set gain sweep and Lemma-2 update;
* :mod:`repro.kernels.mc_numpy` — batched Monte-Carlo IC/LT spread
  estimation over the positive-edge out-CSR;
* :mod:`repro.kernels.sketch_numpy` — batched reverse-reachability
  sketch generation over the positive-edge in-CSR and greedy coverage
  (byte-identical batches).

The pure-Python implementations remain the documented reference
semantics; the kernels are held to them by the cross-backend parity
suite (``tests/test_kernels_parity.py``).

Backend selection
-----------------
``resolve_backend`` implements the policy used by every dispatch site
(:class:`~repro.api.context.SelectionContext`,
:class:`~repro.api.experiment.ExperimentConfig`, the diffusion
``estimate_spread_*`` functions and the Monte-Carlo oracles):

* an explicit ``"python"`` or ``"numpy"`` request wins;
* ``None`` / ``"auto"`` defers to the ``REPRO_BACKEND`` environment
  variable, falling back to ``"python"`` when it is unset;
* a ``"numpy"`` request on a machine without NumPy degrades gracefully
  to ``"python"`` with a one-time :class:`RuntimeWarning` — no caller
  ever has to guard the import themselves.

This module itself never imports NumPy at import time, so ``import
repro`` stays dependency-free; the kernel submodules import it eagerly
and are only loaded once a dispatch actually chooses them.
"""

from __future__ import annotations

import os
import warnings

from repro.obs import trace as obs_trace

__all__ = [
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "available_backends",
    "numpy_available",
    "resolve_backend",
]

BACKENDS = ("python", "numpy")
BACKEND_ENV_VAR = "REPRO_BACKEND"

# Tri-state import probe: None = not yet probed.  Tests monkeypatch this
# to False to exercise the no-NumPy fallback on machines that have it.
_NUMPY_OK: bool | None = None
_WARNED_FALLBACK = False


def numpy_available() -> bool:
    """True iff NumPy is importable (probed once, then cached)."""
    global _NUMPY_OK
    if _NUMPY_OK is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_OK = True
        except ImportError:
            _NUMPY_OK = False
    return _NUMPY_OK


def available_backends() -> tuple[str, ...]:
    """The backends that can actually run on this machine."""
    return BACKENDS if numpy_available() else ("python",)


def resolve_backend(requested: str | None = None) -> str:
    """Resolve a backend request to a runnable backend name.

    Parameters
    ----------
    requested:
        ``"python"``, ``"numpy"``, ``"auto"`` or ``None``.  ``auto`` /
        ``None`` defer to the ``REPRO_BACKEND`` environment variable
        (default ``"python"``).

    Returns
    -------
    ``"python"`` or ``"numpy"``.  A ``"numpy"`` resolution is only ever
    returned when NumPy is importable; otherwise the request degrades to
    ``"python"`` with a one-time :class:`RuntimeWarning`.
    """
    global _WARNED_FALLBACK
    with obs_trace.span("kernels.resolve_backend") as sp:
        sp.set(requested=str(requested))
        if requested is None or requested == "auto":
            requested = os.environ.get(BACKEND_ENV_VAR, "") or "python"
        if requested not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS + ('auto',)}, "
                f"got {requested!r}"
            )
        if requested == "numpy" and not numpy_available():
            if not _WARNED_FALLBACK:
                warnings.warn(
                    "the 'numpy' backend was requested but NumPy is not "
                    "installed; falling back to the pure-Python reference "
                    "implementations",
                    RuntimeWarning,
                    stacklevel=2,
                )
                _WARNED_FALLBACK = True
            sp.set(resolved="python", fallback=True)
            return "python"
        sp.set(resolved=requested)
        return requested
