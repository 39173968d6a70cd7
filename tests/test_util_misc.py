"""Tests for validation helpers, RNG management, tables and series."""

import numpy as np
import pytest

from repro.util.memory import (
    MIN_TASKS_FOR_BYTES,
    bytes_per_task,
    memory_summary,
    peak_rss_bytes,
    rss_bytes,
)
from repro.util.rng import as_rng, spawn_rngs
from repro.util.series import Series, SeriesBundle
from repro.util.tables import Table, format_float, format_percent, format_seconds
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_int_at_least,
    check_nonnegative,
    check_positive,
    check_probability,
)


class TestValidation:
    def test_check_finite_accepts_ints(self):
        assert check_finite("x", 3) == 3.0

    def test_check_finite_rejects_nan_inf(self):
        with pytest.raises(ValueError):
            check_finite("x", float("nan"))
        with pytest.raises(ValueError):
            check_finite("x", float("inf"))

    def test_check_finite_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            check_finite("x", "abc")

    def test_check_positive(self):
        assert check_positive("x", 0.1) == 0.1
        with pytest.raises(ValueError, match="must be > 0"):
            check_positive("x", 0.0)

    def test_check_nonnegative(self):
        assert check_nonnegative("x", 0.0) == 0.0
        with pytest.raises(ValueError, match=">= 0"):
            check_nonnegative("x", -1e-9)

    def test_check_probability(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_in_range_inclusive_flags(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=(False, True))
        with pytest.raises(ValueError):
            check_in_range("x", 2.0, 1.0, 2.0, inclusive=(True, False))
        assert check_in_range("x", 1.5, 1.0, 2.0, inclusive=(False, False)) == 1.5

    def test_error_messages_name_the_argument(self):
        with pytest.raises(ValueError, match="timeout"):
            check_positive("timeout", -1)


class TestCheckIntAtLeast:
    @pytest.mark.parametrize("value", [0, 3, 3.0, np.int64(5)])
    def test_accepts_integral_values(self, value):
        got = check_int_at_least("n", value, 0)
        assert got == value and type(got) is int

    @pytest.mark.parametrize(
        "value", [True, 2.5, float("nan"), float("inf"), "3", None]
    )
    def test_rejects_non_integers(self, value):
        with pytest.raises(TypeError, match="n must be an integer"):
            check_int_at_least("n", value, 0)

    def test_rejects_values_below_the_minimum(self):
        assert check_int_at_least("n", 1, 1) == 1
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            check_int_at_least("n", 0, 1)
        with pytest.raises(ValueError, match=">= -2"):
            check_int_at_least("n", -3, -2)


class TestRng:
    def test_as_rng_accepts_none_int_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)
        assert isinstance(as_rng(42), np.random.Generator)
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_accepts_seedsequence(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_rng(seq), np.random.Generator)

    def test_same_seed_same_stream(self):
        a = as_rng(99).random(5)
        b = as_rng(99).random(5)
        np.testing.assert_array_equal(a, b)

    def test_spawn_deterministic(self):
        xs = [g.random() for g in spawn_rngs(1, 3)]
        ys = [g.random() for g in spawn_rngs(1, 3)]
        assert xs == ys

    def test_spawn_streams_differ(self):
        a, b = spawn_rngs(5, 2)
        assert a.random() != b.random()

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(3)
        children = spawn_rngs(gen, 4)
        assert len(children) == 4
        vals = {g.random() for g in children}
        assert len(vals) == 4

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestFormatting:
    def test_format_float(self):
        assert format_float(1.234, 2) == "1.23"
        assert format_float(float("nan")) == ""
        assert format_float(None) == ""

    def test_format_seconds_paper_style(self):
        assert format_seconds(471.2) == "471s"
        assert format_seconds(None) == ""

    def test_format_percent_signed(self):
        assert format_percent(-0.334) == "-33.4%"
        assert format_percent(0.07, 0) == "+7%"


class TestTable:
    def make(self):
        t = Table(title="demo", columns=["week", "EJ", "cost"])
        t.add_row("2006-IX", 471.0, 1.0)
        t.add_row("2007-36", 510.0, 1.001)
        return t

    def test_add_row_arity_check(self):
        t = self.make()
        with pytest.raises(ValueError, match="columns"):
            t.add_row("x", 1.0)

    def test_render_contains_everything(self):
        text = self.make().render()
        assert "demo" in text
        assert "2006-IX" in text
        assert "cost" in text
        # separator line present
        assert any(set(line) <= {"-", "+"} for line in text.splitlines())

    def test_render_aligns_columns(self):
        lines = self.make().render().splitlines()
        header, sep, row1 = lines[1], lines[2], lines[3]
        assert len(header) == len(sep) == len(row1)

    def test_max_width(self):
        text = self.make().render(max_width=10)
        assert all(len(line) <= 10 for line in text.splitlines())


class TestSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            Series("s", np.arange(3), np.arange(4))

    def test_sample_keeps_endpoints(self):
        s = Series("s", np.arange(100.0), np.arange(100.0) ** 2)
        sub = s.sample(5)
        assert len(sub) <= 5
        assert sub.x[0] == 0.0
        assert sub.x[-1] == 99.0

    def test_sample_noop_when_small(self):
        s = Series("s", np.arange(3.0), np.arange(3.0))
        assert s.sample(10) is s

    def test_bundle_add_and_len(self):
        b = SeriesBundle(title="t", x_label="x", y_label="y")
        b.add(Series("a", np.arange(2.0), np.arange(2.0)))
        b.add(Series("b", np.arange(2.0), np.arange(2.0)))
        assert [s.label for s in b.series] == ["a", "b"]
        assert len(b) == 2

    def test_bundle_render_mentions_axes(self):
        b = SeriesBundle(title="fig", x_label="timeout", y_label="EJ")
        b.add(Series("a", np.arange(30.0), np.arange(30.0)))
        text = b.render(points=5)
        assert "timeout" in text and "EJ" in text and "fig" in text


class TestMemory:
    def test_readings_are_in_bytes(self):
        # an interpreter with numpy loaded is well past 10 MB resident;
        # a reading in KiB or pages would fall below it
        assert rss_bytes() > 10 * 2**20
        assert peak_rss_bytes() > 10 * 2**20

    def test_bytes_per_task_measures_growth_past_the_baseline(self):
        before = rss_bytes()
        block = bytearray(64 * 2**20)  # 64 MiB touched past any peak
        block[::4096] = b"x" * len(block[::4096])
        per_task = bytes_per_task(before, 2**20)
        del block
        assert per_task >= 32  # >= half the block, per task

    def test_peak_is_never_below_the_current_reading(self):
        blocks = []
        for _ in range(4):
            now = rss_bytes()
            assert peak_rss_bytes() >= now
            blocks.append(bytearray(4 * 2**20))
            blocks[-1][::4096] = b"x" * len(blocks[-1][::4096])
        assert peak_rss_bytes() >= rss_bytes()

    def test_without_proc_the_rusage_peak_stands_in(self, monkeypatch):
        from repro.util import memory

        monkeypatch.setattr(memory, "_status_bytes", lambda field: None)
        assert memory.rss_bytes() == memory.peak_rss_bytes() > 10 * 2**20

    def test_summary_prints_bytes_per_task_only_for_large_days(self):
        before = rss_bytes()
        assert "bytes/task" not in memory_summary(before, 3_000)
        assert memory_summary(before, MIN_TASKS_FOR_BYTES).endswith(" bytes/task")
        assert memory_summary(before, 0).startswith("peak RSS ")

    def test_zero_tasks_give_nan(self):
        assert np.isnan(bytes_per_task(rss_bytes(), 0))
