"""Workload traces: containers, synthesis, and archive formats.

The paper's reference data is a set of probe-job traces from the EGEE
biomed VO (12 sets, 10,893 probes, 10,000 s timeout).  Those traces are
not publicly bundled, so this package provides:

* :class:`TraceSet` — the trace data model: one array each of submission
  dates, final statuses and latencies, exactly the fields the paper logs
  per probe in §3.2, with :data:`PROBE_TIMEOUT` the paper's 10,000 s
  probe timeout;
* :mod:`repro.traces.paper` — the paper's per-week Table 1 statistics, their
  committed log-normal bodies, and synthesis of matched trace sets;
* :mod:`repro.traces.calibration` — the truncated-moment solver that
  derived those bodies from the (mean, std) targets;
* :mod:`repro.traces.generator` — nonstationary probe-stream generation
  (diurnal load, bursts) following the paper's constant-probe protocol;
* :mod:`repro.traces.gwf` / :mod:`repro.traces.swf` — Grid Workloads
  Archive (GWF) and Standard Workload Format (SWF) readers/writers so the
  pipeline runs on real public traces.
"""

from repro.traces.dataset import PROBE_TIMEOUT, TraceSet
from repro.traces.calibration import CalibrationResult, calibrate_lognormal
from repro.traces.paper import (
    PAPER_TABLE1,
    PaperWeekStats,
    WEEKS,
    WEEKLY_SETS,
    synthesize_all,
    synthesize_week,
)
from repro.traces.generator import DiurnalProfile, generate_probe_trace
from repro.traces.gwf import read_gwf, write_gwf
from repro.traces.swf import read_swf, write_swf

__all__ = [
    "PROBE_TIMEOUT",
    "TraceSet",
    "CalibrationResult",
    "calibrate_lognormal",
    "PAPER_TABLE1",
    "PaperWeekStats",
    "WEEKS",
    "WEEKLY_SETS",
    "synthesize_all",
    "synthesize_week",
    "DiurnalProfile",
    "generate_probe_trace",
    "read_gwf",
    "write_gwf",
    "read_swf",
    "write_swf",
]
