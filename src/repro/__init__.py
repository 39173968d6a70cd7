"""repro — reproduction of *Modeling User Submission Strategies on
Production Grids* (Lingrand, Montagnat, Glatard; HPDC 2009).

The library models the latency experienced by grid jobs as a heavy-tailed
random variable with a fault ratio, and evaluates three client-side
submission strategies — single resubmission, multiple (burst) submission
and delayed resubmission — by their expected total latency, its standard
deviation, the mean number of parallel copies and the §7 ``Δcost``
criterion.  Substrates include heavy-tailed distribution fitting, trace
containers with GWF/SWF archive support, synthetic EGEE-like trace
calibration, Monte-Carlo strategy replay and a discrete-event grid
simulator.

Quickstart::

    import repro

    traces = repro.synthesize_all(seed=42)
    model = traces["2006-IX"].to_latency_model().on_grid()
    single = repro.optimize_single(model)
    print(f"optimal timeout {single.t_inf:.0f}s -> E_J = {single.e_j:.0f}s")
"""

from repro._version import __version__
from repro.core import (
    DelayedOptimum,
    DelayedResubmission,
    GriddedLatencyModel,
    LatencyModel,
    MultipleSubmission,
    SingleOptimum,
    SingleResubmission,
    Strategy,
    StrategyMoments,
    delta_cost,
    optimize_delayed,
    optimize_delayed_cost,
    optimize_delayed_ratio,
    optimize_multiple,
    optimize_single,
)
from repro.distributions import (
    EmpiricalDistribution,
    Exponential,
    Gamma,
    LatencyDistribution,
    LogLogistic,
    LogNormal,
    Pareto,
    ShiftedDistribution,
    TruncatedDistribution,
    Weibull,
    fit_distribution,
    select_model,
)
from repro.traces import (
    PAPER_TABLE1,
    TraceSet,
    read_gwf,
    read_swf,
    synthesize_all,
    synthesize_week,
    write_gwf,
    write_swf,
)
from repro.util import TimeGrid
from repro.workflow import plan_submissions

__all__ = [
    "__version__",
    # core
    "LatencyModel",
    "GriddedLatencyModel",
    "Strategy",
    "StrategyMoments",
    "SingleResubmission",
    "MultipleSubmission",
    "DelayedResubmission",
    "SingleOptimum",
    "DelayedOptimum",
    "optimize_single",
    "optimize_multiple",
    "optimize_delayed",
    "optimize_delayed_ratio",
    "optimize_delayed_cost",
    "delta_cost",
    # distributions
    "LatencyDistribution",
    "LogNormal",
    "Weibull",
    "Gamma",
    "Exponential",
    "Pareto",
    "LogLogistic",
    "ShiftedDistribution",
    "TruncatedDistribution",
    "EmpiricalDistribution",
    "fit_distribution",
    "select_model",
    # traces
    "TraceSet",
    "PAPER_TABLE1",
    "synthesize_all",
    "synthesize_week",
    "read_gwf",
    "write_gwf",
    "read_swf",
    "write_swf",
    # util
    "TimeGrid",
    # workflow
    "plan_submissions",
]
