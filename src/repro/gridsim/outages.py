"""Site outages: scheduled downtime windows for computing elements.

EGEE sites regularly go into (un)scheduled downtime; jobs queued there
stall until the site returns — a major source of the latency outliers the
paper measures.  :class:`OutageProcess` alternates up/down periods per
site: on outage start the CE stops dispatching (cores appear busy); on
recovery the queue drains again.  Jobs already running are killed with a
configurable probability (power loss vs. drained downtime).
"""

from __future__ import annotations

import numpy as np

from repro.gridsim.events import Simulator
from repro.gridsim.site import VectorComputingElement
from repro.util.validation import check_positive, check_probability

__all__ = ["OutageProcess"]


class OutageProcess:
    """Alternating up/down renewal process attached to one CE.

    Up durations are exponential with mean ``mean_uptime``; outage
    durations exponential with mean ``mean_downtime``.

    Implementation: an outage closes the CE's dispatch gate (queued jobs
    stall) and optionally kills running jobs; recovery reopens the gate
    and drains the queue.
    """

    def __init__(
        self,
        site: VectorComputingElement,
        sim: Simulator,
        rng: np.random.Generator,
        *,
        mean_uptime: float = 5 * 86_400.0,
        mean_downtime: float = 4 * 3600.0,
        kill_running: float = 0.5,
    ) -> None:
        check_positive("mean_uptime", mean_uptime)
        check_positive("mean_downtime", mean_downtime)
        check_probability("kill_running", kill_running)
        self.site = site
        self.sim = sim
        self.rng = rng
        self.mean_uptime = mean_uptime
        self.mean_downtime = mean_downtime
        self.kill_running = kill_running
        self.is_down = False
        self.outages_started = 0
        #: jobs this process's outages killed mid-run (both lanes)
        self.jobs_killed = 0

    def start(self) -> None:
        """Arm the process (first outage after one up period)."""
        self.sim.schedule(
            float(self.rng.exponential(self.mean_uptime)), self._go_down
        )

    def _go_down(self) -> None:
        self.is_down = True
        self.outages_started += 1
        # the site closes its dispatch gate first, then kills a share of
        # the running jobs (unscheduled outage semantics); freed cores
        # stay idle until recovery because the gate is closed.  Both site
        # engines implement the hook — the vectorised lane reconciles its
        # background commits to now before sampling the kills.
        before = self.site.jobs_killed
        self.site.begin_outage(self.rng, self.kill_running)
        self.jobs_killed += self.site.jobs_killed - before
        self.sim.schedule(
            float(self.rng.exponential(self.mean_downtime)), self._come_up
        )

    def _come_up(self) -> None:
        self.is_down = False
        self.site.end_outage()
        self.sim.schedule(
            float(self.rng.exponential(self.mean_uptime)), self._go_down
        )
