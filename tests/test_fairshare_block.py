"""Block-resolved fair-share commits against the per-start oracles.

:class:`~repro.gridsim.fairshare.FairShareVectorComputingElement`
resolves background-only runs as fused blocks.  The contract: every
float it commits — decayed usage, charge, decision instant, winner — is
**bit-identical** to the per-start
:class:`~repro.gridsim.fairshare.FairShareState`-method loop
(:class:`oracles.ScalarFairShareCE`), which in turn matches the event-driven
:class:`~repro.gridsim.fairshare.FairShareComputingElement` wherever the
RNG streams align.  This suite drives identical operation scripts
through both commit paths (hand-built boundary scenarios plus seeded
random interleavings), runs grid-level probe traces over the full
engine × WMS matrix, and holds the vector engine to its one wake
rule.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies import MultipleSubmission, SingleResubmission
from repro.gridsim import (
    FairShareVectorComputingElement,
    FaultModel,
    GridConfig,
    GridSimulator,
    Job,
    JobState,
    ProbeExperiment,
    SiteConfig,
    Simulator,
)
from oracles import ScalarFairShareCE, make_grid, use_scalar_commits

SHARES3 = (("biomed", 0.5), ("atlas", 0.3), ("cms", 0.2))
HALFLIVES = [86_400.0, 3600.0, math.inf]
HL_IDS = ["day", "hour", "inf"]


def make_site(halflife: float, n_cores: int = 2, block: bool = True):
    sim = Simulator()
    cls = FairShareVectorComputingElement if block else ScalarFairShareCE
    site = cls(
        "fs", n_cores, sim, vo_shares=SHARES3, fairshare_halflife=halflife
    )
    return sim, site


def site_state(sim: Simulator, site: FairShareVectorComputingElement) -> tuple:
    """Exact observable + fair-share state (floats compared bitwise)."""
    site._advance()
    fs = site.fairshare
    return (
        sim.now,
        site.jobs_started,
        site.jobs_completed,
        site.jobs_failed_bh,
        site.busy_cores,
        site.queue_length,
        tuple(site._bgc),
        tuple(fs._usage),
        fs._last,
        tuple(sorted(site._core_free)),
    )


def job_trace(jobs: list[Job]) -> list[tuple]:
    return [(j.state.value, j.start_time, j.end_time) for j in jobs]


def apply_script(
    sim: Simulator, site, script, after_op=None, at_start=None
) -> tuple[list[Job], list]:
    """Replay one operation script; returns its jobs and settle log.

    Jobs are numbered in creation order.  ``("settle", idxs)`` makes the
    listed jobs copies of one task: the first copy to start cancels the
    others — a queued or running copy at the site, a copy not yet
    enqueued in place (the WMS's ``cancel_matching``).  The log records
    the state each start callback found every sibling in, which is what
    the grid routes (and traces) a cancel by.  ``after_op(jobs)`` runs
    after every op, ``at_start(job)`` at the top of every start callback.
    """
    jobs: list[Job] = []
    number: dict[int, int] = {}
    groups: dict[int, tuple[int, ...]] = {}
    seen: list[tuple[int, str]] = []

    def settle(job: Job) -> None:
        if at_start is not None:
            at_start(job)
        group = groups.get(number[id(job)], ())
        for k in group:
            groups.pop(k, None)
            if k >= len(jobs) or jobs[k] is job:
                continue
            sibling = jobs[k]
            seen.append((k, sibling.state.value))
            if sibling.state is JobState.CREATED:
                sibling.state = JobState.CANCELLED
            else:
                site.cancel(sibling)

    def new_job(vo: str, runtime: float) -> Job:
        job = Job(runtime=runtime, vo=vo)
        number[id(job)] = len(jobs)
        jobs.append(job)
        return job

    site.on_start = settle
    for op in script:
        kind = op[0]
        if kind == "run":
            sim.run_until(op[1])
        elif kind == "feed":
            _, times, runtimes, vos = op
            site.feed_background(list(times), list(runtimes), list(vos))
        elif kind == "client":
            # arrivals come from a dispatch event, as on a grid: before
            # the run loop returns and its reconcilers settle the site
            _, t, vo, runtime = op
            sim.schedule_at(t, partial(site.enqueue, new_job(vo, runtime)))
            sim.run_until(t)
        elif kind == "burst":
            _, t, members = op
            group = [new_job(vo, runtime) for vo, runtime in members]
            sim.schedule_at(t, partial(site.enqueue_many, group))
            sim.run_until(t)
        elif kind == "settle":
            group = tuple(op[1])
            for k in group:
                groups[k] = group
        elif kind == "cancel":
            _, t, idx = op
            sim.run_until(t)
            site.cancel(jobs[idx])
        elif kind == "hole":
            _, t, flag = op
            sim.run_until(t)
            if flag:
                site.begin_black_hole()
            else:
                site.end_black_hole()
        elif kind == "outage":
            _, t, flag, *kill = op
            sim.run_until(t)
            if flag:
                site.begin_outage(np.random.default_rng(0), *(kill or [0.0]))
            else:
                site.end_outage()
        elif kind == "read":
            # a telemetry read: a reconciliation point outside the ops
            sim.run_until(op[1])
            site.queue_length
        elif kind == "floor":
            # a recovery instant still ahead of the clock: public hooks
            # only ever set the floor to now, so it is written directly,
            # with the walk invalidation ``end_outage`` does; the memo
            # moved, so the wake rule is re-applied
            _, t, floor = op
            sim.run_until(t)
            site._dispatch_floor = floor
            site._next_due = 0.0
            site._ensure_wake()
        else:  # pragma: no cover - script typo guard
            raise AssertionError(kind)
        if after_op is not None:
            after_op(jobs)
    return jobs, seen


def queue_state(site) -> tuple:
    """Per-VO husk counts and FIFO lengths, plus the live-client count.

    Both loops drop husks lazily, but at different moments (the scalar
    loop after its decision-instant check, the block loop before it),
    so leading husks are dropped first on both sides — what remains is
    the queue content neither loop has reached yet.
    """
    for v, q in enumerate(site._clq):
        while q and q[0].state is not JobState.QUEUED:
            q.popleft()
            site._vo_husks[v] -= 1
    return (
        tuple(site._vo_husks),
        tuple(len(q) for q in site._clq),
        site._live_clients,
    )


def run_both(script, halflife: float, n_cores: int = 2, lazy: bool = False):
    """Replay ``script`` on the production site and on the scalar oracle.

    ``lazy`` disarms the wake on both, so commits happen only at the
    reconciliation points the script reaches (enqueue pre-walks included).
    """
    outs = []
    for block in (True, False):
        sim, site = make_site(halflife, n_cores=n_cores, block=block)
        if lazy:
            site._ensure_wake = lambda: None
        jobs, seen = apply_script(sim, site, script)
        outs.append(
            (site_state(sim, site), job_trace(jobs) + seen, queue_state(site))
        )
    return outs


def assert_paths_agree(
    script, halflife: float, n_cores: int = 2, lazy: bool = False
) -> None:
    (state_a, trace_a, queues_a), (state_b, trace_b, queues_b) = run_both(
        script, halflife, n_cores, lazy
    )
    assert state_a == state_b
    assert trace_a == trace_b
    assert queues_a == queues_b


class TestBlockVsScalarScripts:
    """Hand-built boundary scenarios, identical on both commit paths."""

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_mixed_interleaving(self, halflife):
        script = [
            ("feed", [1.0, 2.0, 4.0, 6.0], [30.0, 25.0, 40.0, 10.0], [0, 1, 2, 0]),
            ("client", 3.0, "atlas", 15.0),
            ("run", 10.0),
            ("feed", [12.0, 13.0], [20.0, 20.0], [1, 0]),
            ("client", 14.0, "cms", 5.0),
            ("client", 14.0, "biomed", 7.0),
            ("run", 200.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_exact_tie_background_beats_client(self, halflife):
        """A background head and a client share the exact arrival float."""
        script = [
            ("feed", [5.0, 5.0], [50.0, 50.0], [0, 1]),
            ("client", 5.0, "biomed", 10.0),
            ("run", 300.0),
        ]
        assert_paths_agree(script, halflife, n_cores=1)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_cancel_mid_block(self, halflife):
        """A queued client cancelled between commits leaves a husk the
        block resolver must skip without perturbing the float ladder."""
        script = [
            ("feed", [1.0, 2.0, 3.0, 8.0, 9.0], [40.0] * 5, [0, 1, 2, 0, 1]),
            ("client", 4.0, "cms", 20.0),
            ("client", 4.5, "biomed", 20.0),
            ("cancel", 5.0, 0),
            ("run", 6.0),
            ("cancel", 6.5, 1),
            ("run", 400.0),
        ]
        assert_paths_agree(script, halflife, n_cores=1)

    @pytest.mark.parametrize("block", [True, False], ids=["block", "scalar"])
    def test_cancel_lands_inside_own_enqueue_prewalk(self, block):
        """A sibling settle cancels the very job being enqueued.

        ``enqueue`` stamps state/site/queue_time *before* its pre-walk,
        so a start committed by that walk can settle a sibling copy and
        cancel the mid-enqueue job — which is then appended to its VO
        FIFO already CANCELLED, right after the walk re-synced the head
        cache.  The husk must never be installed as the cached client
        head (it would misprice the next decision instant) and must be
        skipped at pop time (it must never *start*).
        """
        sim, site = make_site(86_400.0, n_cores=1, block=block)
        site._ensure_wake = lambda: None  # force fully lazy commits
        j0 = Job(runtime=50.0, vo="biomed")
        site.enqueue(j0)  # takes the only core, 0 -> 50
        j1 = Job(runtime=30.0, vo="biomed")
        site.enqueue(j1)  # queued behind j0, starts at 50
        j2 = Job(runtime=20.0, vo="biomed")
        cancelled: list[bool] = []

        def settle(job: Job) -> None:
            if job is j1 and not cancelled:
                cancelled.append(site.cancel(j2))

        site.on_start = settle
        sim.run_until(60.0)
        site.enqueue(j2)  # pre-walk commits j1 -> settle cancels j2
        assert cancelled == [True]
        assert j2.state is JobState.CANCELLED
        sim.run_until(85.0)
        j3 = Job(runtime=5.0, vo="biomed")
        site.enqueue(j3)  # must start past the leading husk
        assert j1.start_time == 50.0
        assert math.isnan(j2.start_time)  # the husk never started
        assert j3.start_time == 85.0
        assert site._vo_husks == [0, 0, 0]
        assert site._live_clients == 0
        assert site.queue_length == 0

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_black_hole_racing_block_boundary(self, halflife):
        """The hole flips exactly at a pending head's arrival instant."""
        script = [
            ("feed", [1.0, 5.0, 10.0, 30.0, 35.0], [60.0] * 5, [0, 1, 0, 2, 1]),
            ("client", 2.0, "atlas", 25.0),
            ("hole", 10.0, True),
            ("client", 15.0, "biomed", 10.0),
            ("hole", 30.0, False),
            ("feed", [40.0, 41.0], [15.0, 15.0], [2, 0]),
            ("client", 42.0, "cms", 5.0),
            ("run", 500.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_burst_on_partly_free_site(self, halflife):
        """Two members start on arrival in batch order, the third queues."""
        script = [
            ("feed", [1.0, 2.0, 30.0], [10.0, 10.0, 40.0], [0, 1, 2]),
            ("burst", 20.0, [("cms", 30.0), ("biomed", 15.0), ("atlas", 9.0)]),
            ("run", 300.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_free_core_with_husk_at_vo_head(self, halflife):
        """j2 is cancelled inside its own pre-walk and sits as a husk at
        the head of its VO FIFO; j3 then finds the core free and starts
        in closed form, dropping the husk the loop would have popped."""
        script = [
            ("client", 0.0, "biomed", 50.0),
            ("client", 0.0, "biomed", 30.0),
            ("settle", [1, 2]),
            ("client", 60.0, "biomed", 20.0),
            ("client", 85.0, "biomed", 5.0),
            ("run", 200.0),
        ]
        (_, trace, queues), oracle = run_both(
            script, halflife, n_cores=1, lazy=True
        )
        assert (trace, queues) == oracle[1:]
        assert trace[2][0] == "cancelled" and math.isnan(trace[2][1])
        assert trace[3][1] == 85.0
        assert queues == ((0, 0, 0), (0, 0, 0), 0)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_prewalk_cancels_job_being_enqueued(self, halflife):
        """j1's start in j2's pre-walk cancels j2 and frees the core
        again by now: the free core must not start the husk.  It stays
        in its VO while another VO's newcomer starts in closed form, and
        a later same-VO client queues behind it."""
        script = [
            ("client", 0.0, "biomed", 50.0),
            ("client", 0.0, "biomed", 5.0),
            ("settle", [1, 2]),
            ("client", 60.0, "biomed", 20.0),
            ("client", 85.0, "atlas", 5.0),
            ("client", 86.0, "biomed", 7.0),
            ("run", 200.0),
        ]
        assert_paths_agree(script, halflife, n_cores=1, lazy=True)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    @pytest.mark.parametrize("busy", [False, True], ids=["free", "busy"])
    def test_first_start_cancels_later_group_member(self, halflife, busy):
        """A burst of sibling copies: the first start cancels the rest,
        before they are enqueued (free cores) or as queue husks (busy)."""
        script = [
            ("feed", [1.0, 2.0], [100.0, 100.0], [0, 2]) if busy else ("run", 0.0),
            ("settle", [0, 1, 2]),
            ("burst", 10.0, [("biomed", 40.0), ("atlas", 40.0), ("cms", 40.0)]),
            ("client", 20.0, "cms", 12.0),
            ("run", 400.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_exact_tie_on_idle_core_goes_to_underserved_vo(self, halflife):
        """Two VO heads land on an idle core at the same instant: the
        usage/share rule, not registration order, picks the winner."""
        script = [
            ("feed", [1.0], [10.0], [0]),
            ("run", 15.0),
            ("feed", [20.0, 20.0], [10.0, 10.0], [0, 1]),
            ("client", 20.0, "cms", 5.0),
            ("run", 100.0),
        ]
        assert_paths_agree(script, halflife, n_cores=1)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_start_callback_sees_completed_sibling(self, halflife):
        """A run that ended before the closed-form start is settled
        first, so the start callback finds it completed, not running."""
        script = [
            ("client", 0.0, "atlas", 10.0),
            ("settle", [0, 1]),
            ("client", 30.0, "atlas", 10.0),
            ("run", 100.0),
        ]
        (_, trace, _), oracle = run_both(script, halflife, n_cores=1)
        assert trace == oracle[1]
        assert trace[-1] == (0, "completed")

    def test_enqueue_many_counts_only_admitted_members(self):
        """A member cancelled by an earlier member's start is skipped."""
        counts = []
        for block in (True, False):
            sim, site = make_site(86_400.0, n_cores=2, block=block)
            group = [Job(runtime=5.0, vo="atlas") for _ in range(3)]
            site.on_start = lambda job, g=group: setattr(
                g[2], "state", JobState.CANCELLED
            )
            counts.append(site.enqueue_many(group))
            assert [j.state for j in group] == [
                JobState.RUNNING,
                JobState.RUNNING,
                JobState.CANCELLED,
            ]
        assert counts == [2, 2]

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_dispatch_floor_after_now(self, halflife):
        """Idle cores behind a floor still ahead: nothing starts early."""
        script = [
            ("feed", [5.0, 40.0], [20.0, 20.0], [1, 0]),
            ("floor", 10.0, 50.0),
            ("client", 20.0, "cms", 10.0),
            ("burst", 30.0, [("biomed", 10.0), ("atlas", 10.0)]),
            ("client", 60.0, "atlas", 10.0),
            ("run", 300.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_closed_outage_gate(self, halflife):
        """Free cores, closed gate: arrivals queue until the reopening."""
        script = [
            ("feed", [2.0, 12.0], [30.0, 30.0], [0, 1]),
            ("outage", 10.0, True),
            ("client", 20.0, "cms", 10.0),
            ("burst", 25.0, [("biomed", 10.0), ("atlas", 10.0)]),
            ("outage", 40.0, False),
            ("client", 45.0, "biomed", 10.0),
            ("run", 300.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_black_hole_burst(self, halflife):
        """A burst into a hole fails whole; after it, starts on arrival."""
        script = [
            ("feed", [1.0, 12.0], [30.0, 30.0], [2, 1]),
            ("hole", 10.0, True),
            ("burst", 15.0, [("biomed", 10.0), ("cms", 10.0)]),
            ("hole", 30.0, False),
            ("burst", 35.0, [("atlas", 10.0), ("biomed", 10.0)]),
            ("run", 300.0),
        ]
        assert_paths_agree(script, halflife)

    @pytest.mark.parametrize("seed", [3, 11, 29, 47])
    @pytest.mark.parametrize("halflife", HALFLIVES, ids=HL_IDS)
    def test_random_interleavings(self, seed, halflife):
        """Seeded random scripts: feeds, clients, cancels, mixed order."""
        rng = np.random.default_rng(seed)
        script, t = [], 0.0
        n_clients = 0
        for _ in range(12):
            t += float(rng.uniform(1.0, 40.0))
            kind = rng.integers(0, 3)
            if kind == 0:
                k = int(rng.integers(1, 6))
                times = np.sort(t + rng.uniform(0.0, 60.0, k)).tolist()
                runtimes = rng.uniform(5.0, 80.0, k).tolist()
                vos = rng.integers(0, 3, k).tolist()
                script.append(("feed", times, runtimes, vos))
            elif kind == 1:
                vo = ("biomed", "atlas", "cms")[int(rng.integers(0, 3))]
                script.append(("client", t, vo, float(rng.uniform(5.0, 50.0))))
                n_clients += 1
            elif n_clients:
                script.append(("cancel", t, int(rng.integers(0, n_clients))))
        script.append(("run", t + 600.0))
        assert_paths_agree(script, halflife)


VOS = ("biomed", "atlas", "cms")
_gaps = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)
_runtimes = st.floats(min_value=1.0, max_value=120.0, allow_nan=False)
_vos = st.sampled_from(VOS)


@st.composite
def scripts(draw):
    """Feed, client, burst (optionally a sibling group), cancel, hole
    and run ops at non-decreasing instants."""
    script, t, n_jobs, hole = [], 0.0, 0, False
    for _ in range(draw(st.integers(1, 14))):
        t += draw(_gaps)
        kind = draw(
            st.sampled_from(("feed", "client", "burst", "cancel", "hole", "run"))
        )
        if kind == "feed":
            k = draw(st.integers(1, 6))
            times = sorted(
                t + x
                for x in draw(st.lists(_gaps, min_size=k, max_size=k))
            )
            runtimes = draw(st.lists(_runtimes, min_size=k, max_size=k))
            vos = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
            script.append(("feed", times, runtimes, vos))
        elif kind == "client":
            script.append(("client", t, draw(_vos), draw(_runtimes)))
            n_jobs += 1
        elif kind == "burst":
            members = draw(st.lists(st.tuples(_vos, _runtimes), min_size=1, max_size=4))
            if len(members) > 1 and draw(st.booleans()):
                script.append(("settle", list(range(n_jobs, n_jobs + len(members)))))
            script.append(("burst", t, members))
            n_jobs += len(members)
        elif kind == "cancel" and n_jobs:
            script.append(("cancel", t, draw(st.integers(0, n_jobs - 1))))
        elif kind == "hole":
            hole = not hole
            script.append(("hole", t, hole))
        else:
            script.append(("run", t))
    script.append(("run", t + 500.0))
    return script


class TestAdmissionFuzz:
    """Production (block resolver + closed-form admission) against the
    scalar append-then-walk oracle on drawn scripts, bit for bit."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        script=scripts(),
        halflife=st.sampled_from(HALFLIVES),
        n_cores=st.integers(1, 4),
        lazy=st.booleans(),
    )
    def test_production_equals_scalar_oracle(self, script, halflife, n_cores, lazy):
        assert_paths_agree(script, halflife, n_cores=n_cores, lazy=lazy)


def multi_vo_config(**kw) -> GridConfig:
    defaults = dict(
        sites=(
            SiteConfig(
                "a", 8, utilization=0.9, runtime_median=600.0, vo_shares=SHARES3
            ),
            SiteConfig(
                "b",
                16,
                utilization=0.95,
                runtime_median=900.0,
                vo_shares=SHARES3[:2],
            ),
        ),
        matchmaking_median=30.0,
        faults=FaultModel(p_lost=0.02, p_stuck=0.02),
    )
    defaults.update(kw)
    return GridConfig(**defaults)


def grid_fingerprint(grid: GridSimulator) -> tuple:
    return (
        grid.now,
        tuple(s.queue_length for s in grid.sites),
        tuple(s.busy_cores for s in grid.sites),
        tuple(s.jobs_started for s in grid.sites),
        tuple(s.jobs_completed for s in grid.sites),
        tuple(
            tuple(s.fairshare._usage)
            for s in grid.sites
            if hasattr(s, "fairshare")
        ),
    )


class TestGridLevelEquivalence:
    """Full-grid probe traces across the engine × WMS matrix."""

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    @pytest.mark.parametrize("seed", [17, 59])
    def test_three_way_probe_traces(self, wms_engine, seed):
        """block == scalar == event oracle, bit for bit."""
        traces, fps = [], []
        for flavour in ("block", "scalar", "event"):
            engine = "event" if flavour == "event" else "vector"
            cfg = multi_vo_config(wms_engine=wms_engine)
            grid = make_grid(cfg, seed, engine)
            if flavour == "scalar":
                use_scalar_commits(grid)
            grid.warm_up(3600.0)
            traces.append(
                ProbeExperiment(grid, n_slots=6, timeout=4000.0).run(40_000.0)
            )
            fps.append(grid_fingerprint(grid))
        for other in (1, 2):
            np.testing.assert_array_equal(
                traces[0].submit_times, traces[other].submit_times
            )
            np.testing.assert_array_equal(
                traces[0].latencies, traces[other].latencies
            )
        # usage vectors only exist on the vector flavours
        assert fps[0] == fps[1]

    @pytest.mark.parametrize("halflife", [3600.0, math.inf], ids=["hour", "inf"])
    def test_halflife_extremes_block_vs_scalar(self, halflife):
        outs = []
        for flag in (True, False):
            cfg = multi_vo_config(fairshare_halflife=halflife)
            grid = GridSimulator(cfg, seed=31)
            if not flag:
                use_scalar_commits(grid)
            grid.warm_up(6 * 3600.0)
            out = ProbeExperiment(grid, n_slots=4, timeout=3000.0).run(30_000.0)
            outs.append((grid_fingerprint(grid), out.latencies.tolist()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("wms_engine", ["batched", "event"])
    def test_burst_strategies_block_vs_scalar(self, wms_engine):
        """Sibling bursts cancel mid-block on every start; traces must
        stay bit-identical with block commits on and off."""
        from repro.gridsim import run_strategy_on_grid

        outs = []
        for flag in (True, False):
            cfg = multi_vo_config(wms_engine=wms_engine)
            grid = GridSimulator(cfg, seed=43)
            if not flag:
                use_scalar_commits(grid)
            grid.warm_up(3600.0)
            outs.append(
                run_strategy_on_grid(
                    grid,
                    MultipleSubmission(b=3, t_inf=2500.0),
                    30,
                    task_interval=250.0,
                    runtime=90.0,
                )
            )
        a, b = outs
        np.testing.assert_array_equal(a.j, b.j)
        np.testing.assert_array_equal(a.jobs_submitted, b.jobs_submitted)
        assert a.gave_up == b.gave_up

    def test_snapshot_restore_preserves_equivalence(self):
        """Fork a warmed block-commit grid; the fork must keep matching
        a scalar twin forked from the same pickled state."""
        cfg = multi_vo_config()
        grid = GridSimulator(cfg, seed=61)
        grid.warm_up(7200.0)
        snap = grid.snapshot()
        a, b = snap.restore(), snap.restore()
        use_scalar_commits(b)
        ta = ProbeExperiment(a, n_slots=4, timeout=3000.0).run(20_000.0)
        tb = ProbeExperiment(b, n_slots=4, timeout=3000.0).run(20_000.0)
        np.testing.assert_array_equal(ta.latencies, tb.latencies)
        assert grid_fingerprint(a) == grid_fingerprint(b)


def wake_rule_script(seed: int) -> list:
    """A seeded script touching every op that moves the memo, the
    live-client count or the gate: feeds, clients, bursts of sibling
    copies, cancels, outages (with kills), black holes, floor moves and
    telemetry reads, at non-decreasing instants."""
    rng = np.random.default_rng(seed)
    script, t, n_jobs = [], 0.0, 0
    outage = hole = False
    for _ in range(40):
        t += float(rng.uniform(0.0, 25.0))
        kind = ("feed", "client", "burst", "cancel", "outage", "hole",
                "floor", "read", "run")[int(rng.integers(0, 9))]
        if kind == "feed":
            k = int(rng.integers(1, 6))
            times = np.sort(t + rng.uniform(0.0, 60.0, k)).tolist()
            script.append(("feed", times, rng.uniform(5.0, 90.0, k).tolist(),
                           rng.integers(0, 3, k).tolist()))
        elif kind == "client":
            script.append(("client", t, VOS[int(rng.integers(0, 3))],
                           float(rng.uniform(5.0, 60.0))))
            n_jobs += 1
        elif kind == "burst":
            k = int(rng.integers(1, 4))
            if k > 1:
                script.append(("settle", list(range(n_jobs, n_jobs + k))))
            script.append(("burst", t, [
                (VOS[int(rng.integers(0, 3))], float(rng.uniform(5.0, 60.0)))
                for _ in range(k)
            ]))
            n_jobs += k
        elif kind == "cancel" and n_jobs:
            script.append(("cancel", t, int(rng.integers(0, n_jobs))))
        elif kind == "outage":
            outage = not outage
            script.append(("outage", t, outage, 0.5))
        elif kind == "hole":
            hole = not hole
            script.append(("hole", t, hole))
        elif kind == "floor":
            script.append(("floor", t, t + float(rng.uniform(0.0, 40.0))))
        else:
            script.append((kind if kind != "cancel" else "run", t))
    # reopen the site, then let it drain
    if outage:
        script.append(("outage", t, False))
    if hole:
        script.append(("hole", t, False))
    script.append(("client", t, "atlas", 10.0))
    script.append(("run", t + 600.0))
    return script


#: clients queue behind busy cores, the last one is cancelled while
#: queued (its wake must go), then a floor move, an outage that kills,
#: and a hole pass while another client waits
_WAKE_HAND_SCRIPT = [
    ("feed", [0.5, 1.0, 1.5, 2.0], [100.0] * 4, [0, 1, 2, 0]),
    ("client", 3.0, "biomed", 10.0),
    ("client", 4.0, "atlas", 10.0),
    ("cancel", 5.0, 0),
    ("cancel", 6.0, 1),
    ("client", 7.0, "cms", 10.0),
    ("read", 8.0),
    ("floor", 9.0, 150.0),
    ("outage", 20.0, True, 0.5),
    ("client", 25.0, "biomed", 5.0),
    ("outage", 30.0, False),
    ("hole", 40.0, True),
    ("hole", 50.0, False),
    ("client", 60.0, "atlas", 5.0),
    ("run", 400.0),
]


def one_vo_script(script: list) -> list:
    """``script`` for a one-VO site: every background label becomes VO 0."""
    return [
        ("feed", op[1], op[2], [0] * len(op[3])) if op[0] == "feed" else op
        for op in script
    ]


class TestWakeRule:
    """The one wake rule of the vector engine, held after every op, on a
    site with one VO (its inline FIFO run) and on one with three."""

    @pytest.mark.parametrize("seed", [None, *range(8)])
    @pytest.mark.parametrize("engine", ["one-vo", "fairshare"])
    def test_wake_sits_on_the_memo_while_a_client_waits(self, engine, seed):
        """A wake at ``max(now, _next_due)`` exactly when a live client
        waits behind an open gate, none otherwise; and no client start
        fires after its start instant (the wake is never late)."""
        if engine == "one-vo":
            sim = Simulator()
            site = FairShareVectorComputingElement("one-vo", 2, sim)
        else:
            sim, site = make_site(3600.0)

        def after_op(jobs: list[Job]) -> None:
            waiting = sum(
                j.state is JobState.QUEUED and j.site == site.name for j in jobs
            )
            assert site._live_clients == waiting
            w = site._wake
            if waiting and site.dispatch_enabled:
                assert w is not None and not w.cancelled
                assert w.time == max(sim.now, site._next_due)
            else:
                assert w is None

        def at_start(job: Job) -> None:
            assert job.start_time == sim.now

        script = _WAKE_HAND_SCRIPT if seed is None else wake_rule_script(seed)
        if engine == "one-vo":
            script = one_vo_script(script)
        jobs, _ = apply_script(sim, site, script, after_op, at_start)
        assert any(j.state is JobState.COMPLETED for j in jobs)


class TestPopulationParity:
    """The population driver sees identical results on both paths."""

    def test_small_population_block_vs_scalar(self):
        from repro.gridsim import warmed_snapshot
        from repro.population import FleetSpec, PopulationSpec, run_population

        sites = tuple(
            SiteConfig(
                f"p{i}",
                16,
                utilization=0.85,
                runtime_median=900.0,
                vo_shares=SHARES3,
            )
            for i in range(2)
        )
        cfg = GridConfig(sites=sites)
        snap = warmed_snapshot(cfg, seed=23, duration=3600.0)
        spec = PopulationSpec(
            fleets=(
                FleetSpec("biomed", SingleResubmission(t_inf=4000.0), 60),
                FleetSpec(
                    "atlas",
                    MultipleSubmission(b=3, t_inf=4000.0),
                    40,
                    runtime=120.0,
                ),
            ),
            window=20_000.0,
        )
        outs = []
        for flag in (True, False):
            grid = snap.restore()
            if not flag:
                use_scalar_commits(grid)
            outs.append(run_population(grid, spec, seed=23))
        a, b = outs
        for fa, fb in zip(a.fleets, b.fleets):
            np.testing.assert_array_equal(fa.j, fb.j)
            np.testing.assert_array_equal(fa.jobs_submitted, fb.jobs_submitted)
        assert a.site_usage_shares == b.site_usage_shares
        assert a.duration == b.duration
