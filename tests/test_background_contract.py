"""The background-intake contract every site engine implements.

Load generators hand their arrivals to a site in chunks through
``site.feed_background(times, runtimes, vos=None)`` and read the
delivered count back from ``site.background_delivered()``; no generator
knows which engine it feeds.  Checked for both generators on the vector
engine with one VO and with three, and on both event-driven oracles
(the plain FIFO and the fair-share one):

* each refill makes exactly one ``feed_background`` call;
* on a background-only site, ``jobs_generated`` equals
  ``background_delivered()``, which equals the fed arrivals already due;
* the event-driven fair-share site queues labelled arrivals under the
  VO they were labelled with;
* two generators feeding one event-driven site do not trade runtimes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridsim.background import BackgroundLoad
from repro.gridsim.events import Simulator
from repro.gridsim.fairshare import (
    FairShareComputingElement,
    FairShareVectorComputingElement,
    multi_vo,
)
from repro.gridsim.replay import TraceReplayLoad
from repro.gridsim.site import ComputingElement
from oracles import vo_queue_lengths

SHARES = (("biomed", 0.5), ("atlas", 0.3), ("cms", 0.2))
#: engine -> (class, VO shares); the vector engine with no shares runs
#: one VO, the event FIFO has no VO machinery at all
ENGINES = {
    "vector": (FairShareVectorComputingElement, None),
    "fairshare-vector": (FairShareVectorComputingElement, SHARES),
    "event": (ComputingElement, None),
    "fairshare-event": (FairShareComputingElement, SHARES),
}
CHUNK = 16
HORIZON = 20_000.0


def make_site(engine: str, sim: Simulator, n_cores: int = 4):
    cls, shares = ENGINES[engine]
    if shares is not None:
        return cls("s", n_cores, sim, vo_shares=shares)
    return cls("s", n_cores, sim)


def make_load(kind: str, site, sim: Simulator):
    fairshare = multi_vo(site)
    if kind == "background":
        return BackgroundLoad(
            site,
            sim,
            np.random.default_rng(11),
            utilization=0.8,
            runtime_median=600.0,
            chunk_size=CHUNK,
            vo_mix=SHARES if fairshare else None,
        )
    rng = np.random.default_rng(12)
    arrivals = np.cumsum(rng.exponential(120.0, size=150))
    runtimes = rng.lognormal(np.log(400.0), 0.6, size=150)
    return TraceReplayLoad(
        site,
        sim,
        arrivals,
        runtimes,
        vo="atlas" if fairshare else "",
        offset=5.0,
        chunk_size=CHUNK,
    )


def record_feeds(site) -> list[tuple[list, list, list | None]]:
    """Wrap ``site.feed_background`` to log every chunk it is handed."""
    feeds = []
    feed = site.feed_background

    def logged(times, runtimes, vos=None):
        feeds.append((list(times), list(runtimes), None if vos is None else list(vos)))
        feed(times, runtimes, vos)

    site.feed_background = logged
    return feeds


def record_refills(load) -> list[float]:
    """Wrap ``load._refill`` (before ``start``) to log each refill instant."""
    refills = []
    refill = load._refill

    def logged():
        refills.append(load.sim.now)
        refill()

    load._refill = logged
    return refills


@pytest.mark.parametrize("kind", ["background", "replay"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestFeedContract:
    def run(self, engine: str, kind: str, until: float = HORIZON):
        sim = Simulator()
        site = make_site(engine, sim)
        load = make_load(kind, site, sim)
        feeds = record_feeds(site)
        refills = record_refills(load)
        load.start()
        sim.run_until(until)
        return sim, site, load, feeds, refills

    def test_one_feed_per_refill(self, engine, kind):
        _, _, _, feeds, refills = self.run(engine, kind)
        assert len(refills) > 3
        assert len(feeds) == len(refills)
        for times, runtimes, vos in feeds:
            assert len(times) == len(runtimes)
            assert vos is None or len(vos) == len(times)

    @pytest.mark.parametrize("until", [3_333.3, HORIZON])
    def test_generated_equals_delivered(self, engine, kind, until):
        sim, site, load, feeds, _ = self.run(engine, kind, until)
        due = sum(sum(1 for t in times if t <= sim.now) for times, _, _ in feeds)
        assert due > 0
        assert load.jobs_generated == site.background_delivered() == due


@pytest.mark.parametrize("kind", ["background", "replay"])
def test_event_fairshare_queues_arrivals_under_their_vo(kind):
    sim = Simulator()
    site = make_site("fairshare-event", sim, n_cores=1)
    # a closed gate keeps every arrival queued where it landed
    site.dispatch_enabled = False
    load = make_load(kind, site, sim)
    feeds = record_feeds(site)
    load.start()
    sim.run_until(HORIZON)
    names = site.fairshare.names
    expected: dict[str, list[float]] = {n: [] for n in names}
    for times, runtimes, vos in feeds:
        labels = [0] * len(times) if vos is None else vos
        for t, r, v in zip(times, runtimes, labels):
            if t <= sim.now:
                expected[names[v]].append(r)
    queued = {
        n: [job.runtime for job in q] for n, q in zip(names, site._vo_queues)
    }
    assert queued == expected
    assert vo_queue_lengths(site) == {n: len(r) for n, r in expected.items()}
    for n, q in zip(names, site._vo_queues):
        assert all(job.vo == n and job.tag == "background" for job in q)
    fed_vos = {n for n, rs in expected.items() if rs}
    # the traffic mix reaches every VO; the replay is all "atlas"
    assert fed_vos == (set(names) if kind == "background" else {"atlas"})


def test_two_generators_on_one_event_site_keep_their_runtimes():
    # a synthetic stream and a replay interleave their arrivals on one
    # site: each arrival must still carry the runtime it was fed with
    sim = Simulator()
    site = make_site("event", sim, n_cores=1)
    site.dispatch_enabled = False
    loads = [make_load("background", site, sim), make_load("replay", site, sim)]
    feeds = record_feeds(site)
    for load in loads:
        load.start()
    sim.run_until(HORIZON)
    fed = sorted(
        (t, r) for times, runtimes, _ in feeds for t, r in zip(times, runtimes)
    )
    due = [(t, r) for t, r in fed if t <= sim.now]
    assert len(due) > 2 * CHUNK
    assert [(job.submit_time, job.runtime) for job in site.queue] == due
    assert site.background_delivered() == len(due)
