"""Table 4 — ``Δcost`` samples for the delayed and multiple strategies.

Left block: the ratio sweep of Table 3 extended with ``Δcost``; right
block: the multiple submission up to b = 100.  Headline paper numbers:
ratio ≈ 1.25 minimises ``Δcost`` (0.94); the global cost optimum reaches
0.93; multiple submission costs grow to 32 at b = 100.
"""

from __future__ import annotations

from repro.core.cost import cost_curve_multiple
from repro.experiments.base import ExperimentResult
from repro.experiments.context import RATIOS, ReproContext, get_context
from repro.util.tables import Table, format_float, format_seconds

__all__ = ["run", "MULTI_BS"]

EXPERIMENT_ID = "table4"
TITLE = "Table 4: delta_cost of the strategies (2006-IX)"

#: burst sizes in the right block of the paper's Table 4
MULTI_BS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 40, 60, 80, 100)

#: paper values for the multiple block: b -> (min E_J, delta_cost)
PAPER_MULTI: dict[int, tuple[float, float]] = {
    2: (314.0, 1.3),
    3: (268.0, 1.7),
    4: (245.0, 2.1),
    5: (230.0, 2.4),
    6: (220.0, 2.8),
    7: (212.0, 3.1),
    8: (205.0, 3.5),
    9: (200.0, 3.8),
    10: (196.0, 4.2),
    20: (174.0, 7.4),
    40: (161.0, 14.0),
    60: (156.0, 20.0),
    80: (154.0, 26.0),
    100: (152.0, 32.0),
}


def run(ctx: ReproContext | None = None, *, week: str = "2006-IX") -> ExperimentResult:
    """Regenerate both blocks of Table 4."""
    ctx = ctx or get_context()
    model = ctx.model(week)
    single = ctx.single_optimum(week)

    delayed_table = Table(
        title=f"{TITLE} — delayed (per imposed ratio)",
        columns=["t_inf/t0", "N_//", "min E_J", "delta_cost"],
    )
    delayed_points = ctx.ratio_cost_curve(week)
    for ratio, point in zip(RATIOS, delayed_points):
        delayed_table.add_row(
            f"{ratio:.2f}",
            format_float(point.n_parallel, 2),
            format_seconds(point.e_j),
            format_float(point.cost, 3),
        )

    multi_table = Table(
        title=f"{TITLE} — multiple (per burst size)",
        columns=["N_// = b", "min E_J", "delta_cost", "paper E_J", "paper cost"],
    )
    multi_points = cost_curve_multiple(model, list(MULTI_BS), single.e_j)
    for b, point in zip(MULTI_BS, multi_points):
        ref = PAPER_MULTI.get(b)
        multi_table.add_row(
            b,
            format_seconds(point.e_j),
            format_float(point.cost, 2),
            format_seconds(ref[0]) if ref else "",
            format_float(ref[1], 1) if ref else "",
        )

    global_opt = ctx.cost_optimum(week)
    best_ratio_cost = min(p.cost for p in delayed_points)
    notes = [
        f"global cost optimum: delta_cost = {global_opt.cost:.3f} at "
        f"t0 = {global_opt.t0:.0f}s, t_inf = {global_opt.t_inf:.0f}s, "
        f"E_J = {global_opt.e_j:.0f}s "
        "(paper: 0.93 at t0 = 439s, t_inf = 579s, E_J = 439s)",
        f"best ratio-constrained delta_cost = {best_ratio_cost:.3f} "
        "(paper: 0.94 at ratio 1.25)",
        "multiple-submission costs grow roughly linearly in b "
        f"(measured b=100: {multi_points[-1].cost:.0f}, paper: 32)",
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        tables=[delayed_table, multi_table],
        notes=notes,
    )
