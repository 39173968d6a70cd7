"""Higher-level analyses built on the strategy models.

* :mod:`repro.analysis.stability` — §7.1's robustness study: how much
  does ``Δcost`` degrade when the optimal ``(t0, t∞)`` are perturbed by a
  few seconds (Table 5's ±5 s radius).
* :mod:`repro.analysis.transfer` — §7.2's practicality study: apply the
  timeouts optimised on one week's traces to another week's latency law
  (Table 6), the "estimate parameters from last week" workflow.
"""

from repro.analysis.stability import StabilityReport, stability_analysis
from repro.analysis.transfer import TransferCell, transfer_matrix

__all__ = [
    "StabilityReport",
    "stability_analysis",
    "TransferCell",
    "transfer_matrix",
]
