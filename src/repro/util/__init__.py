"""Shared numerical and presentation utilities.

This package holds the small, dependency-free building blocks used across
the library:

* :mod:`repro.util.grids` — uniform time grids and vectorised cumulative
  trapezoid integration, the numerical backbone of every strategy
  expectation computed in :mod:`repro.core`.
* :mod:`repro.util.validation` — argument checking helpers with consistent
  error messages.
* :mod:`repro.util.rng` — deterministic random-stream management.
* :mod:`repro.util.tables` — fixed-width ASCII table rendering used by the
  experiment harness to print paper-style tables.
* :mod:`repro.util.series` — labelled (x, y) series containers used as the
  data form of every reproduced figure.
* :mod:`repro.util.memory` — process RSS readings behind the population
  day's ``bytes/task`` figure.
"""

from repro.util.grids import TimeGrid, cumulative_trapezoid
from repro.util.rng import spawn_rngs, as_rng
from repro.util.series import Series, SeriesBundle
from repro.util.tables import Table, format_float, format_seconds
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_probability,
)

__all__ = [
    "TimeGrid",
    "cumulative_trapezoid",
    "spawn_rngs",
    "as_rng",
    "Series",
    "SeriesBundle",
    "Table",
    "format_float",
    "format_seconds",
    "check_finite",
    "check_in_range",
    "check_positive",
    "check_probability",
]
