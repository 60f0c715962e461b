"""Tests for the trace summariser behind ``python -m repro report``."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.report import load_records, summarize, write_chrome

TRACE = [
    {"type": "span", "name": "cycle", "cat": "machine",
     "t0": 0.0, "t1": 2.0, "args": {"cycle": 0, "wall": 0.1}},
    {"type": "span", "name": "cycle", "cat": "machine",
     "t0": 2.0, "t1": 4.0, "args": {"cycle": 1, "wall": 0.1}},
    {"type": "span", "name": "cycle", "cat": "machine",
     "t0": 4.0, "t1": 6.1, "args": {"cycle": 2, "wall": 0.1}},
    {"type": "span", "name": "phase:red", "cat": "protocol",
     "t0": 0.0, "t1": 0.7},
    {"type": "span", "name": "phase:green", "cat": "protocol",
     "t0": 0.7, "t1": 1.4},
    {"type": "span", "name": "phase:blue", "cat": "protocol",
     "t0": 1.4, "t1": 2.0},
    {"type": "span", "name": "transfer:red->green", "cat": "protocol",
     "t0": 0.1, "t1": 0.6, "args": {"cycle": 0, "quantity": 10.0}},
    {"type": "span", "name": "ode.solve", "cat": "solver",
     "t0": 0.0, "t1": 2.0, "args": {"nfev": 500, "njev": 40,
                                    "wall": 0.05}},
    {"type": "event", "name": "monitor.phase_overlap", "cat": "monitor",
     "t": 2.0, "args": {"cycle": 0, "value": 0.01, "peak": 0.05}},
    {"type": "event", "name": "monitor.boundary_residual",
     "cat": "monitor", "t": 2.0, "args": {"cycle": 0, "value": 0.002}},
    {"type": "event", "name": "monitor.clock_jitter", "cat": "monitor",
     "t": 6.1, "args": {"value": 0.019, "cycles": 3}},
    {"type": "diag", "code": "REPRO-R104", "severity": "warning",
     "message": "residual signal", "t": 2.0, "cycle": 0},
    {"type": "metrics",
     "values": {"counters": {"ode.nfev": 500.0,
                             "ssa.firings[X -> Y]": 90.0,
                             "ssa.firings[Y -> Z]": 10.0}}},
]


class TestLoadRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in TRACE))
        assert load_records(path) == TRACE

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_records(tmp_path / "absent.jsonl")

    def test_bad_line_reports_position(self, tmp_path):
        # Mid-file corruption raises; only a *final* bad line is
        # tolerated as truncation (see TestTruncatedTail).
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span"}\nnot json\n'
                        '{"type": "event"}\n')
        with pytest.raises(ReproError, match="trace.jsonl:2"):
            load_records(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n")
        with pytest.raises(ReproError, match="empty"):
            load_records(path)


class TestSummarize:
    def test_sections_present(self):
        text = summarize(TRACE)
        assert "records" in text
        assert "cycles" in text
        assert "mean period" in text and "2.0333" in text
        assert "clock jitter" in text
        assert "phase share" in text
        assert "phase overlap" in text
        assert "boundary residual" in text
        assert "solver effort" in text
        assert "500 RHS evaluations" in text
        assert "busiest SSA channels" in text
        assert "REPRO-R104" in text

    def test_no_diagnostics_says_none(self):
        text = summarize([r for r in TRACE if r.get("type") != "diag"])
        assert "diagnostics\n  none" in text


class TestWriteChrome:
    def test_export(self, tmp_path):
        path = write_chrome(TRACE, tmp_path / "chrome.json")
        events = json.loads(path.read_text())
        names = {e["name"] for e in events}
        assert "cycle" in names and "transfer:red->green" in names

    def test_unwritable(self, tmp_path):
        with pytest.raises(ReproError, match="cannot write"):
            write_chrome(TRACE, tmp_path / "missing" / "chrome.json")


class TestTruncatedTail:
    def test_truncated_final_line_warns_and_keeps_prefix(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span", "name": "cycle", "cat": "m", '
                        '"t0": 0.0, "t1": 1.0}\n'
                        '{"type": "event", "na')
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            records = load_records(path)
        assert len(records) == 1
        assert records[0]["type"] == "span"

    def test_warning_names_file_and_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span"}\n{"broken')
        with pytest.warns(RuntimeWarning, match=r"trace\.jsonl:2"):
            load_records(path)

    def test_midfile_corruption_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span"}\nnot json\n{"type": "event"}\n')
        with pytest.raises(ReproError, match="trace.jsonl:2"):
            load_records(path)

    def test_only_line_truncated_is_empty_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "sp')
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ReproError, match="empty"):
                load_records(path)


class TestSummarizeEdgeCases:
    def test_metrics_only_trace(self):
        text = summarize([{"type": "metrics",
                           "values": {"counters": {"ode.nfev": 12.0}}}])
        assert "solver effort" in text
        assert "ode.nfev" in text
        assert "cycles" not in text

    def test_solver_paths_named(self):
        text = summarize([
            {"type": "span", "name": "ode.solve", "cat": "solver",
             "t0": 0.0, "t1": 1.0, "args": {"nfev": 9,
                                           "kinetics": "compiled"}},
            {"type": "span", "name": "ssa.batch", "cat": "solver",
             "t0": 0.0, "t1": 1.0, "args": {"events": 5,
                                           "kernel": "numpy"}},
            {"type": "span", "name": "ssa.batch", "cat": "solver",
             "t0": 0.0, "t1": 1.0, "args": {"events": 7,
                                           "kernel": "compiled"}}])
        assert "kinetics backend: compiled\n" in text
        assert "ssa kernel: compiled, numpy" in text

    def test_unknown_kinds_counted_with_warning(self):
        text = summarize([
            {"type": "span", "name": "cycle", "cat": "m",
             "t0": 0.0, "t1": 1.0},
            {"type": "hologram", "name": "?"},
            {"type": "hologram", "name": "?"},
            {"type": "frob"},
        ])
        assert ("warning: skipped 3 record(s) of unknown kind "
                "(frob=1, hologram=2)") in text

    def test_wave_records_summarised(self):
        text = summarize([
            {"type": "wave", "signal": "ctr_b0", "kind": "bit",
             "t": 0.0, "value": 0},
            {"type": "wave", "signal": "ctr_b0", "kind": "bit",
             "t": 0.3, "value": 1},
            {"type": "wave", "signal": "phase", "kind": "state",
             "t": 0.1, "value": "red"},
        ])
        assert "waveform" in text
        assert "2 signal(s), 3 change(s), horizon 0.3 time units" in text
        assert "ctr_b0" in text and "2 change(s)" in text
        assert "temporal assertions: no violations recorded" in text

    def test_assertion_violations_tallied(self):
        text = summarize([
            {"type": "wave", "signal": "b", "kind": "bit",
             "t": 0.0, "value": 0},
            {"type": "diag", "code": "REPRO-A901", "severity": "error",
             "message": "invariant broke", "t": 1.0, "cycle": 1},
        ])
        assert "temporal assertions: 1 violation(s)" in text
        assert "REPRO-A901" in text
