"""Tests for GWF / SWF trace round-trips."""

import io

import numpy as np
import pytest

from repro.traces import (
    TraceSet,
    read_gwf,
    read_swf,
    synthesize_week,
    write_gwf,
    write_swf,
)
from repro.traces.gwf import GWF_FIELDS, gwf_record
from repro.traces.swf import SWF_FIELDS


@pytest.fixture(scope="module")
def trace():
    return synthesize_week("2007-51", seed=4, n_jobs=200)


class TestGwf:
    def test_field_count_is_29(self):
        assert len(GWF_FIELDS) == 29

    def test_roundtrip_preserves_statistics(self, trace):
        buf = io.StringIO()
        write_gwf(trace, buf)
        buf.seek(0)
        back = read_gwf(buf, name=trace.name)
        assert len(back) == len(trace)
        assert back.n_outliers == trace.n_outliers
        assert back.mean_latency() == pytest.approx(trace.mean_latency(), abs=0.01)

    def test_roundtrip_via_file(self, trace, tmp_path):
        path = tmp_path / "trace.gwf"
        write_gwf(trace, path)
        back = read_gwf(path)
        assert back.name == "trace"
        assert len(back) == len(trace)

    def test_comments_and_blank_lines_skipped(self):
        text = "# comment\n\n0 0.0 120.5 0 1 -1 -1 -1 -1 -1 1 -1\n"
        t = read_gwf(io.StringIO(text))
        assert len(t) == 1
        assert t.latencies[0] == pytest.approx(120.5)

    def test_failed_status_becomes_fault(self):
        text = "0 0.0 120.5 0 1 -1 -1 -1 -1 -1 0 -1\n"
        t = read_gwf(io.StringIO(text))
        assert t.n_outliers == 1

    def test_negative_wait_becomes_fault(self):
        text = "0 0.0 -1 0 1 -1 -1 -1 -1 -1 1 -1\n"
        t = read_gwf(io.StringIO(text))
        assert t.n_outliers == 1

    def test_long_wait_becomes_timeout_outlier(self):
        text = "0 0.0 99999 0 1 -1 -1 -1 -1 -1 1 -1\n"
        t = read_gwf(io.StringIO(text))
        assert t.n_outliers == 1

    def test_submit_times_rebased_to_zero(self):
        text = (
            "0 1000.0 10 0 1 -1 -1 -1 -1 -1 1 -1\n"
            "1 1500.0 10 0 1 -1 -1 -1 -1 -1 1 -1\n"
        )
        t = read_gwf(io.StringIO(text))
        np.testing.assert_allclose(t.submit_times, [0.0, 500.0])

    def test_malformed_line_raises_with_line_number(self):
        text = "0 0.0 bad 0 1 -1 -1 -1 -1 -1 1 -1\n"
        with pytest.raises(ValueError, match="line 1"):
            read_gwf(io.StringIO(text))

    def test_short_line_raises(self):
        with pytest.raises(ValueError, match="fields"):
            read_gwf(io.StringIO("0 0.0 1\n"))

    def test_empty_source_raises(self):
        with pytest.raises(ValueError, match="no job records"):
            read_gwf(io.StringIO("# only comments\n"))


class TestSwf:
    def test_field_count_is_18(self):
        assert len(SWF_FIELDS) == 18

    def test_roundtrip_preserves_statistics(self, trace, tmp_path):
        path = tmp_path / "trace.swf"
        write_swf(trace, path)
        back = read_swf(path)
        assert len(back) == len(trace)
        assert back.n_outliers == trace.n_outliers
        assert back.mean_latency() == pytest.approx(trace.mean_latency(), abs=0.01)

    def test_semicolon_comments_skipped(self):
        text = "; header\n1 0.0 42.0 10 1 -1 -1 -1 -1 -1 1 -1\n"
        t = read_swf(io.StringIO(text))
        assert len(t) == 1

    def test_cancelled_jobs_are_outliers(self):
        text = "1 0.0 42.0 10 1 -1 -1 -1 -1 -1 5 -1\n"
        t = read_swf(io.StringIO(text))
        assert t.n_outliers == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no job records"):
            read_swf(io.StringIO("; nothing\n"))


class TestCrossFormat:
    def test_cross_format_consistency(self, trace, tmp_path):
        # GWF and SWF encode the same observations
        g, s = tmp_path / "a.gwf", tmp_path / "a.swf"
        write_gwf(trace, g)
        write_swf(trace, s)
        t_g, t_s = read_gwf(g), read_swf(s)
        assert t_g.mean_latency() == pytest.approx(t_s.mean_latency())
        assert t_g.n_outliers == t_s.n_outliers


class TestSwfParsing:
    # the SWF reader applies the same outlier rules as the GWF reader
    def test_failed_status_becomes_fault(self):
        t = read_swf(io.StringIO("1 0.0 42.0 10 1 -1 -1 -1 -1 -1 0 -1\n"))
        assert t.n_outliers == 1
        assert t.status_codes[0] == 2

    def test_negative_wait_becomes_fault(self):
        t = read_swf(io.StringIO("1 0.0 -1 10 1 -1 -1 -1 -1 -1 1 -1\n"))
        assert t.status_codes[0] == 2

    def test_long_wait_becomes_timeout_outlier(self):
        t = read_swf(io.StringIO("1 0.0 99999 10 1 -1 -1 -1 -1 -1 1 -1\n"))
        assert t.status_codes[0] == 1
        assert np.isinf(t.latencies[0])

    def test_submit_times_rebased_to_zero(self):
        text = (
            "1 700.0 10 0 1 -1 -1 -1 -1 -1 1 -1\n"
            "2 400.0 10 0 1 -1 -1 -1 -1 -1 1 -1\n"
        )
        t = read_swf(io.StringIO(text))
        np.testing.assert_allclose(t.submit_times, [300.0, 0.0])

    def test_malformed_line_raises_with_line_number(self):
        text = "; header\n1 0.0 bad 10 1 -1 -1 -1 -1 -1 1 -1\n"
        with pytest.raises(ValueError, match="SWF line 2"):
            read_swf(io.StringIO(text))

    def test_short_line_raises(self):
        with pytest.raises(ValueError, match="fields"):
            read_swf(io.StringIO("1 0.0 1\n"))


# (reader, writer, field count, comment prefix, default stream name)
FORMATS = {
    "gwf": (read_gwf, write_gwf, len(GWF_FIELDS), "#", "gwf"),
    "swf": (read_swf, write_swf, len(SWF_FIELDS), ";", "swf"),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request):
    return FORMATS[request.param]


def _record(n_fields: int, submit: str, wait: str, status: str) -> str:
    row = ["-1"] * n_fields
    row[0], row[1], row[2], row[3], row[4] = "1", submit, wait, "0", "1"
    row[10] = status
    return " ".join(row) + "\n"


class TestBothFormats:
    def test_written_values_round_trip_to_three_decimals(self, fmt, trace):
        read, write, *_ = fmt
        buf = io.StringIO()
        write(trace, buf)
        back = read(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.status_codes != 0, trace.status_codes != 0)
        ok = trace.status_codes == 0
        np.testing.assert_allclose(
            back.latencies[ok], trace.latencies[ok], rtol=0, atol=5e-4
        )
        np.testing.assert_allclose(
            back.submit_times, trace.submit_times - trace.submit_times.min(),
            rtol=0, atol=1e-3,
        )

    def test_every_record_has_the_full_field_count(self, fmt, trace):
        _, write, n_fields, comment, _ = fmt
        buf = io.StringIO()
        write(trace, buf)
        lines = buf.getvalue().splitlines()
        header = [ln for ln in lines if ln.startswith(comment)]
        records = [ln for ln in lines if not ln.startswith(comment)]
        assert len(header) == 2 and trace.name in header[0]
        assert len(records) == len(trace)
        assert {len(ln.split()) for ln in records} == {n_fields}

    def test_any_outlier_is_written_as_a_fault(self, fmt):
        # the formats carry one failure status, so a timeout reads back as
        # a fault; rho is what survives the round trip
        read, write, *_ = fmt
        t = TraceSet(
            "mixed", [0.0, 1.0, 2.0], [5.0, np.inf, np.inf], [0, 1, 2]
        )
        buf = io.StringIO()
        write(t, buf)
        back = read(io.StringIO(buf.getvalue()))
        assert back.status_codes.tolist() == [0, 2, 2]
        assert back.outlier_ratio == t.outlier_ratio

    def test_stream_name_defaults_to_the_format(self, fmt):
        read, _, n_fields, _, default = fmt
        t = read(io.StringIO(_record(n_fields, "0", "3", "1")))
        assert t.name == default

    def test_path_name_defaults_to_the_file_stem(self, fmt, tmp_path):
        read, _, n_fields, _, default = fmt
        path = tmp_path / f"week-36.{default}"
        path.write_text(_record(n_fields, "0", "3", "1"))
        assert read(path).name == "week-36"
        assert read(path, name="other").name == "other"

    def test_custom_timeout_sets_the_outlier_threshold(self, fmt):
        read, _, n_fields, _, _ = fmt
        text = _record(n_fields, "0", "99", "1") + _record(n_fields, "5", "120.5", "1")
        t = read(io.StringIO(text), timeout=100.0)
        assert t.timeout == 100.0
        assert t.status_codes.tolist() == [0, 1]
        assert t.successful_latencies.tolist() == [99.0]

    def test_negative_submit_time_clamped_to_zero(self, fmt):
        read, _, n_fields, _, _ = fmt
        text = _record(n_fields, "-50", "3", "1") + _record(n_fields, "20", "3", "1")
        t = read(io.StringIO(text))
        np.testing.assert_allclose(t.submit_times, [0.0, 20.0])

    def test_write_to_path_and_stream_agree(self, fmt, trace, tmp_path):
        _, write, *_ = fmt
        buf = io.StringIO()
        write(trace, buf)
        path = tmp_path / "trace.out"
        write(trace, path)
        assert path.read_text(encoding="utf-8") == buf.getvalue()


def test_gwf_record_places_fields_by_name():
    parts = gwf_record("7", "1.500", "42.000", "0", "1", vo="3").split()
    assert len(parts) == len(GWF_FIELDS)
    named = dict(zip(GWF_FIELDS, parts))
    assert named["JobID"] == "7"
    assert named["SubmitTime"] == "1.500"
    assert named["WaitTime"] == "42.000"
    assert named["NProcs"] == "1"
    assert named["Status"] == "1"
    assert named["VOID"] == "3"
    assert named["UserID"] == "-1"
