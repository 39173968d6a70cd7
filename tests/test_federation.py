"""WMS federation: broker ownership, view staleness, and routing.

The degenerate contract is the anchor: one broker owning every site with
zero extra lag must be *byte-identical* to the historical single-WMS
grid — same RNG streams, same probe traces.  On top of that, federated
brokers must refresh owned sites on the normal cadence and remote sites
only after the extra lag, and submissions must honour explicit and
round-robin routing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridsim import (
    BatchedWorkloadManager,
    BrokerConfig,
    FairShareVectorComputingElement,
    FaultModel,
    GridConfig,
    GridSimulator,
    Job,
    JobState,
    ProbeExperiment,
    Simulator,
    SiteConfig,
    WorkloadManager,
    federated_grid_config,
)


def two_site_config(**kw) -> GridConfig:
    defaults = dict(
        sites=(SiteConfig("a", 8), SiteConfig("b", 16)),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


class TestBrokerConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            BrokerConfig("", ("a",))
        with pytest.raises(ValueError, match="at least one site"):
            BrokerConfig("w", ())
        with pytest.raises(ValueError, match="duplicate site"):
            BrokerConfig("w", ("a", "a"))
        with pytest.raises(ValueError, match="info_lag"):
            BrokerConfig("w", ("a",), info_lag=-1.0)

    def test_grid_config_validation(self):
        with pytest.raises(ValueError, match="duplicate broker name"):
            two_site_config(
                brokers=(BrokerConfig("w", ("a",)), BrokerConfig("w", ("b",)))
            )
        with pytest.raises(ValueError, match="unknown site"):
            two_site_config(brokers=(BrokerConfig("w", ("zz",)),))


class TestDegenerateByteIdentity:
    def test_single_broker_zero_lag_equals_plain_wms(self):
        plain = two_site_config()
        onebroker = two_site_config(
            brokers=(BrokerConfig("wms", ("a", "b"), info_lag=0.0),)
        )
        traces = []
        for cfg in (plain, onebroker):
            g = GridSimulator(cfg, seed=19)
            g.warm_up(3600.0)
            traces.append(
                ProbeExperiment(g, n_slots=6, timeout=4000.0).run(30_000.0)
            )
        tp, tb = traces
        np.testing.assert_array_equal(tp.submit_times, tb.submit_times)
        np.testing.assert_array_equal(tp.latencies, tb.latencies)
        np.testing.assert_array_equal(tp.status_codes, tb.status_codes)

    def test_adding_brokers_keeps_background_streams(self):
        """Extra broker RNG streams ride behind the historical layout, so
        the physical grid (background draws) is unperturbed."""
        plain = GridSimulator(two_site_config(), seed=5)
        fed = GridSimulator(
            two_site_config(
                brokers=(
                    BrokerConfig("w1", ("a",)),
                    BrokerConfig("w2", ("b",)),
                )
            ),
            seed=5,
        )
        for g in (plain, fed):
            g.warm_up(12 * 3600.0)
        assert [bg.jobs_generated for bg in plain.background] == [
            bg.jobs_generated for bg in fed.background
        ]
        assert [s.jobs_started for s in plain.sites] == [
            s.jobs_started for s in fed.sites
        ]


class TestOneBrokerGrid:
    """A broker-free grid is a one-broker federation."""

    @pytest.mark.parametrize(
        "engine, cls",
        [("batched", BatchedWorkloadManager), ("event", WorkloadManager)],
    )
    def test_the_only_broker_is_named_0_and_owns_every_site(self, engine, cls):
        g = GridSimulator(two_site_config(wms_engine=engine), seed=3)
        assert len(g.brokers) == 1
        (broker,) = g.brokers
        assert type(broker) is cls
        assert broker is g.wms
        assert broker.name == "0"
        assert [broker.sites[i].name for i in broker._owned_idx] == ["a", "b"]
        assert broker.info_lag == 0.0
        g.run_until(5000.0)
        broker.current_snapshot()
        # no remote sites: one refresh leaves no lagged part of the view
        assert broker.snapshot_staleness() == 0.0

    def test_via_the_implicit_name_routes_to_it(self):
        g = GridSimulator(two_site_config(faults=FaultModel()), seed=3)
        assert g.broker_for("0") is g.wms
        job = g.submit(Job(runtime=10.0), via="0")
        assert job.state is JobState.MATCHING
        assert g.metrics.value("broker.0.dispatches") == 0
        g.run_until(g.now + 3600.0)
        assert g.metrics.value("broker.0.dispatches") == 1


class TestStaleViews:
    def make_broker(self, info_lag=1000.0, info_refresh=300.0):
        sim = Simulator()
        sites = [
            FairShareVectorComputingElement("own", 2, sim),
            FairShareVectorComputingElement("far", 2, sim),
        ]
        broker = WorkloadManager(
            sim,
            sites,
            np.random.default_rng(0),
            owned=("own",),
            info_lag=info_lag,
            name="w",
            info_refresh=info_refresh,
            ranking_noise=0.0,
        )
        return sim, sites, broker

    def test_remote_view_lags_behind_owned(self):
        sim, (own, far), broker = self.make_broker()
        np.testing.assert_array_equal(broker.current_snapshot(), [0.0, 0.0])
        # pile identical load on both sites
        for site in (own, far):
            for _ in range(6):
                site.enqueue(Job(runtime=5000.0))
        # after one refresh period the owned estimate moved, remote not yet
        sim.run_until(301.0)
        snap = broker.current_snapshot().copy()
        assert snap[0] > 0.0
        assert snap[1] == 0.0
        # after refresh + lag the remote estimate catches up
        sim.run_until(1302.0)
        snap = broker.current_snapshot()
        assert snap[1] > 0.0

    def test_zero_lag_refreshes_together(self):
        sim, (own, far), broker = self.make_broker(info_lag=0.0)
        for site in (own, far):
            site.enqueue(Job(runtime=5000.0))
            site.enqueue(Job(runtime=5000.0))
            site.enqueue(Job(runtime=5000.0))
        sim.run_until(301.0)
        snap = broker.current_snapshot()
        assert snap[0] > 0.0 and snap[1] > 0.0

    def test_owned_sites_listing_and_validation(self):
        sim, sites, broker = self.make_broker()
        assert [broker.sites[i].name for i in broker._owned_idx] == ["own"]
        with pytest.raises(ValueError, match="unknown site"):
            WorkloadManager(
                sim,
                sites,
                np.random.default_rng(0),
                owned=("nosuch",),
                name="bad",
            )


class TestRouting:
    def fed_grid(self, seed=7) -> GridSimulator:
        return GridSimulator(
            two_site_config(
                faults=FaultModel(),  # keep every submission routable
                brokers=(
                    BrokerConfig("w1", ("a",)),
                    BrokerConfig("w2", ("b",)),
                ),
            ),
            seed=seed,
        )

    def test_round_robin_default(self):
        g = self.fed_grid()
        for _ in range(10):
            g.submit(Job(runtime=1.0))
        g.run_until(5000.0)
        assert [b.dispatch_count for b in g.brokers] == [5, 5]

    def test_explicit_routing_by_name_and_index(self):
        g = self.fed_grid()
        for _ in range(4):
            g.submit(Job(runtime=1.0), via="w2")
        g.submit(Job(runtime=1.0), via=0)
        g.run_until(5000.0)
        assert g.brokers[1].dispatch_count == 4
        assert g.brokers[0].dispatch_count == 1

    def test_unknown_broker_raises(self):
        g = self.fed_grid()
        with pytest.raises(ValueError, match="unknown broker"):
            g.submit(Job(runtime=1.0), via="nosuch")
        with pytest.raises(ValueError, match="out of range"):
            g.submit(Job(runtime=1.0), via=2)
        with pytest.raises(ValueError, match="out of range"):
            g.submit(Job(runtime=1.0), via=-1)

    def test_wms_is_primary_broker(self):
        g = self.fed_grid()
        assert g.wms is g.brokers[0]
        plain = GridSimulator(two_site_config(), seed=1)
        assert plain.brokers == [plain.wms]


class TestFederatedGridConfig:
    def test_structure(self):
        cfg = federated_grid_config(n_sites=6, n_brokers=3)
        assert len(cfg.sites) == 6
        assert len(cfg.brokers) == 3
        owned = [s for b in cfg.brokers for s in b.sites]
        assert sorted(owned) == sorted(s.name for s in cfg.sites)
        assert all(len(sc.vo_shares) == 3 for sc in cfg.sites)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_brokers"):
            federated_grid_config(n_sites=2, n_brokers=3)
        with pytest.raises(ValueError, match="n_sites"):
            federated_grid_config(n_sites=0)

    def test_runs_end_to_end(self):
        cfg = federated_grid_config(n_sites=4, n_brokers=2, seed=3)
        g = GridSimulator(cfg, seed=3)
        g.warm_up(3600.0)
        trace = ProbeExperiment(g, n_slots=4, timeout=4000.0).run(10_000.0)
        assert len(trace) > 10
        assert sum(b.dispatch_count for b in g.brokers) > 0
