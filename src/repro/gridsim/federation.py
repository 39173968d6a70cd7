"""WMS federation: several brokers with partial, differently-stale views.

Production grids run more than one Workload Management Server: each VO
or region operates brokers that *own* a subset of the computing
elements (they receive those sites' load reports on the normal
information-system cadence) while the rest of the grid is visible only
through the federated information system, which propagates with extra
lag.  Jobs therefore route through brokers whose views disagree — a
stronger version of the paper's §1 partial-information effect, and the
reason two users submitting the same second can land on very different
queues.

:class:`BrokerConfig` declares one broker; the grid builds each as a
:class:`~repro.gridsim.wms.WorkloadManager` (or its batched lane) with
split refresh: owned sites re-measure every ``info_refresh`` seconds,
remote sites every ``info_refresh + info_lag``.  A grid without brokers
is a one-broker federation whose only broker owns every site, which is
why a single broker owning every site with zero lag reproduces the
broker-free grid byte for byte (pinned by ``tests/test_federation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_nonnegative

__all__ = ["BrokerConfig"]


@dataclass(frozen=True)
class BrokerConfig:
    """Static description of one federated broker.

    Attributes
    ----------
    name:
        Broker label (e.g. ``"wms.cern"``).
    sites:
        Names of the computing elements this broker owns (fresh load
        reports).  Every other site in the grid is still rankable, but
        only through the lagged federated view.
    info_lag:
        Extra staleness (s) added to the information-system refresh
        period for non-owned sites.  0 means the broker sees the whole
        grid on the normal cadence.
    """

    name: str
    sites: tuple[str, ...]
    info_lag: float = 600.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("broker name must be non-empty")
        if not self.sites:
            raise ValueError(f"broker {self.name!r} must own at least one site")
        dupes = {s for s in self.sites if self.sites.count(s) > 1}
        if dupes:
            raise ValueError(
                f"broker {self.name!r} lists duplicate site(s): "
                f"{', '.join(sorted(dupes))}"
            )
        check_nonnegative("info_lag", self.info_lag)
