"""The paper's printed Eq. (5), for a quantification of its union-bound slip.

:func:`eq5_union_expectation` rebuilds ``F_J`` window by window using
the paper's union decomposition ``P(A∪B) = P(A)+P(B)−P(A)·P(B)`` with
``A = {R_n ∈ (t0, v]}`` and ``B = {R_{n+1} <= u}``.  The correct
decomposition restricts ``B`` to paths where job *n* survived ``t0``
(``B' = {R_n > t0} ∩ B``); the difference adds a spurious
``F̃(t0)·F̃(u)`` term per window.  The printed I1-window base term is
resolved by continuity (as the authors' own smooth surfaces imply).
:mod:`repro.experiments.eq5_discrepancy` measures the resulting gap
(see DESIGN.md errata).

Eqs. (1)–(4) as printed are the test references for the geometric-sum
moments of :mod:`repro.core.strategies` (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.model import GriddedLatencyModel

__all__ = [
    "eq5_union_expectation",
    "union_cdf_of_j",
]


def union_cdf_of_j(
    model: GriddedLatencyModel, t0: float, t_inf: float
) -> np.ndarray:
    """``F_J`` on the grid under the paper's union decomposition of §6.

    Window-by-window reconstruction: before ``t0`` the job is alone and
    ``F_J = F̃``; on each ``I0`` window the paper's
    ``P(A)+P(B)-P(A)P(B)`` increment is added; on each ``I1`` window the
    increment ``q^n·(F̃(u) - F̃(t∞-t0))`` follows by continuity.
    """
    k0 = model.index_of(t0)
    ki = model.index_of(t_inf)
    n = model.grid.n
    if not 1 <= k0 <= ki <= min(2 * k0, n - 1):
        raise ValueError(
            f"need t0 <= t_inf <= 2·t0 on the grid, got t0={t0}, t_inf={t_inf}"
        )
    F = model.F
    q = float(model.S[ki])
    out = np.zeros(n)
    lim = min(k0 + 1, n)
    out[:lim] = F[:lim]
    base = float(F[k0])
    qn = 1.0  # q^(m-1)
    m = 1
    while m * k0 < n and qn > 1e-300:
        # I0(m): indices [m·k0, (m-1)·k0 + ki]
        lo = m * k0
        hi = min((m - 1) * k0 + ki, n - 1)
        idx = np.arange(lo, hi + 1)
        v = idx - (m - 1) * k0
        u = idx - m * k0
        p_a = F[v] - F[k0]
        p_b = F[u]
        out[idx] = base + qn * (p_a + p_b - p_a * p_b)
        if hi < (m - 1) * k0 + ki:
            break  # I0 truncated by the grid end
        # window-end value (v = ki, u = ki - k0)
        p_a_end = F[ki] - F[k0]
        p_b_end = F[ki - k0]
        base = base + qn * (p_a_end + p_b_end - p_a_end * p_b_end)
        # I1(m): indices [(m-1)·k0 + ki, (m+1)·k0]
        lo1 = (m - 1) * k0 + ki
        hi1 = min((m + 1) * k0, n - 1)
        idx1 = np.arange(lo1, hi1 + 1)
        u1 = idx1 - m * k0
        out[idx1] = base + qn * q * (F[u1] - F[ki - k0])
        if hi1 < (m + 1) * k0:
            break
        base = base + qn * q * (F[k0] - F[ki - k0])
        qn *= q
        m += 1
    return out


def eq5_union_expectation(
    model: GriddedLatencyModel, t0: float, t_inf: float
) -> float:
    """``E_J`` implied by the union-decomposition ``F_J`` (printed Eq. 5).

    Computed as the normalised first moment of the reconstructed ``F_J``
    (the union form slightly over-counts mass, so the total increment can
    exceed the true success probability; normalising isolates the shape
    error the way the authors' numerical minimisation would have seen it).
    """
    f_j = union_cdf_of_j(model, t0, t_inf)
    d_f = np.diff(f_j)
    d_f = np.maximum(d_f, 0.0)
    mass = d_f.sum()
    if mass <= 0.0:
        return float("inf")
    mids = 0.5 * (model.times[:-1] + model.times[1:])
    return float(np.dot(mids, d_f) / mass)
