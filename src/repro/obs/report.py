"""Trace summariser behind ``python -m repro report <trace.jsonl>``.

Reads a JSONL trace (the :class:`~repro.obs.sinks.JsonlSink` format),
aggregates it into human-readable sections -- cycle timing and jitter,
phase share, phase-overlap and other monitor metrics, solver effort,
diagnostics -- and optionally exports the Chrome trace-event view.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.obs.sinks import chrome_events

#: Record kinds the summariser understands; anything else is counted
#: and skipped with a warning (forward compatibility with newer traces).
KNOWN_KINDS = ("span", "event", "diag", "metrics", "wave")


def load_records(path) -> list[dict]:
    """Parse one record dict per non-empty JSONL line.

    A malformed *final* line is tolerated with a warning: a process
    crash (or a still-running writer) leaves the trace truncated
    mid-record, and the intact prefix is exactly what a post-mortem
    needs to summarise.  Malformed lines anywhere else still raise --
    they mean corruption, not truncation.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path}: "
                         f"{exc.strerror or exc}") from exc
    numbered = [(line_no, line.strip()) for line_no, line
                in enumerate(text.splitlines(), start=1)
                if line.strip()]
    records = []
    for position, (line_no, line) in enumerate(numbered):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if position == len(numbered) - 1:
                warnings.warn(
                    f"{path}:{line_no}: dropping truncated trailing "
                    f"record ({exc.msg}); the trace was cut off "
                    f"mid-write", RuntimeWarning, stacklevel=2)
                break
            raise ReproError(
                f"{path}:{line_no}: not a JSONL trace record ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise ReproError(f"{path}:{line_no}: trace record is not an "
                             f"object")
        records.append(record)
    if not records:
        raise ReproError(f"{path}: empty trace")
    return records


def write_chrome(records: list[dict], path) -> Path:
    """Export records as a Chrome trace-event JSON file."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome_events(records), handle, indent=1)
    except OSError as exc:
        raise ReproError(f"cannot write Chrome trace {path}: "
                         f"{exc.strerror or exc}") from exc
    return path


# -- aggregation --------------------------------------------------------------


def _spans(records, cat=None, name=None):
    for record in records:
        if record.get("type") != "span":
            continue
        if cat is not None and record.get("cat") != cat:
            continue
        if name is not None and record.get("name") != name:
            continue
        yield record


def _monitor_values(records, name):
    return [record["args"]["value"] for record in records
            if record.get("type") == "event"
            and record.get("name") == f"monitor.{name}"
            and "value" in record.get("args", {})]


def summarize(records: list[dict]) -> str:
    """Render the trace summary (the ``repro report`` body)."""
    lines: list[str] = []

    counts: dict[str, int] = {}
    unknown: dict[str, int] = {}
    for record in records:
        kind = record.get("type", "?")
        if kind not in KNOWN_KINDS:
            unknown[kind] = unknown.get(kind, 0) + 1
            continue
        key = record.get("name", record.get("code", "?")) \
            if kind in ("span", "event") else kind
        label = f"{kind}:{key}" if kind in ("span", "event") else kind
        counts[label] = counts.get(label, 0) + 1
    lines.append("records")
    for label in sorted(counts):
        lines.append(f"  {label:32s} {counts[label]}")
    if unknown:
        total = sum(unknown.values())
        kinds = ", ".join(f"{kind}={n}" for kind, n
                          in sorted(unknown.items()))
        lines.append(f"  warning: skipped {total} record(s) of unknown "
                     f"kind ({kinds})")

    lines.extend(_cycle_section(records))
    lines.extend(_phase_section(records))
    lines.extend(_wave_section(records))
    lines.extend(_monitor_section(records))
    lines.extend(_solver_section(records))
    lines.extend(_diagnostics_section(records))
    return "\n".join(lines)


def _wave_section(records) -> list[str]:
    """Waveform summary: per-signal change counts plus assertion tally."""
    waves = [record for record in records
             if record.get("type") == "wave"]
    assertion_diags = [record for record in records
                       if record.get("type") == "diag"
                       and str(record.get("code", "")).startswith(
                           "REPRO-A")]
    if not waves and not assertion_diags:
        return []
    lines = ["", "waveform"]
    if waves:
        per_signal: dict[str, int] = {}
        t_final = 0.0
        for record in waves:
            name = record.get("signal", "?")
            per_signal[name] = per_signal.get(name, 0) + 1
            t_final = max(t_final, float(record.get("t", 0.0)))
        lines.append(f"  {len(per_signal)} signal(s), {len(waves)} "
                     f"change(s), horizon {t_final:.4g} time units")
        for name in sorted(per_signal):
            lines.append(f"    {name:30s} {per_signal[name]} change(s)")
    if assertion_diags:
        lines.append(f"  temporal assertions: "
                     f"{len(assertion_diags)} violation(s)")
    else:
        lines.append("  temporal assertions: no violations recorded")
    return lines


def _cycle_section(records) -> list[str]:
    cycles = list(_spans(records, name="cycle"))
    if not cycles:
        return []
    periods = np.array([span["t1"] - span["t0"] for span in cycles])
    lines = ["", "cycles",
             f"  count                {len(cycles)}",
             f"  mean period          {periods.mean():.4f} time units",
             f"  period range         {periods.min():.4f} .. "
             f"{periods.max():.4f}"]
    if len(cycles) >= 3:
        jitter = float(np.std(periods) / np.mean(periods))
        lines.append(f"  clock jitter         {jitter:.2%} "
                     f"(relative std of period)")
    walls = [span.get("args", {}).get("wall") for span in cycles]
    walls = [w for w in walls if w is not None]
    if walls:
        lines.append(f"  wall time            {sum(walls):.3f} s total, "
                     f"{sum(walls) / len(walls):.3f} s/cycle")
    return lines


def _phase_section(records) -> list[str]:
    phases: dict[str, float] = {}
    for span in _spans(records, cat="protocol"):
        name = span["name"]
        if not name.startswith("phase:"):
            continue
        phases[name[6:]] = phases.get(name[6:], 0.0) \
            + (span["t1"] - span["t0"])
    if not phases:
        return []
    total = sum(phases.values())
    lines = ["", "phase share (of traced phase time)"]
    for color in ("red", "green", "blue"):
        if color in phases:
            lines.append(f"  {color:6s} {phases[color]:10.4f} time units "
                         f"({phases[color] / total:.1%})")
    transfers = [span for span in _spans(records, cat="protocol")
                 if span["name"].startswith("transfer:")]
    if transfers:
        durations = np.array([s["t1"] - s["t0"] for s in transfers])
        lines.append(f"  transfers: {len(transfers)} spans, mean "
                     f"hand-off {durations.mean():.4f} time units")
    return lines


def _monitor_section(records) -> list[str]:
    lines: list[str] = []
    overlap = _monitor_values(records, "phase_overlap")
    if overlap:
        lines.extend(["", "phase overlap (drain flux outside the "
                          "dominant colour)",
                      f"  mean {np.mean(overlap):.4f}   peak "
                      f"{np.max(overlap):.4f}   cycles {len(overlap)}"])
    residual = _monitor_values(records, "boundary_residual")
    if residual:
        lines.append(f"  boundary residual: mean "
                     f"{np.mean(residual):.4f}, peak "
                     f"{np.max(residual):.4f}")
    drift = _monitor_values(records, "conservation_drift")
    if drift:
        lines.append(f"  conservation drift: mean "
                     f"{np.mean(drift):.4g}, peak {np.max(drift):.4g}")
    jitter = [record["args"]["value"] for record in records
              if record.get("type") == "event"
              and record.get("name") == "monitor.clock_jitter"]
    if jitter:
        lines.append(f"  clock jitter (monitor): {jitter[-1]:.2%}")
    return lines


def _solver_section(records) -> list[str]:
    solver_spans = list(_spans(records, cat="solver"))
    metrics = next((record["values"] for record in records
                    if record.get("type") == "metrics"), None)
    if not solver_spans and not metrics:
        return []
    lines = ["", "solver effort"]
    if solver_spans:
        nfev = sum(span.get("args", {}).get("nfev", 0)
                   for span in solver_spans)
        njev = sum(span.get("args", {}).get("njev", 0)
                   for span in solver_spans)
        wall = sum(span.get("args", {}).get("wall", 0.0)
                   for span in solver_spans)
        lines.append(f"  {len(solver_spans)} solver calls, "
                     f"{int(nfev)} RHS evaluations, "
                     f"{int(njev)} Jacobian evaluations, "
                     f"{wall:.3f} s wall")
        for label, key in (("kinetics backend", "kinetics"),
                           ("ssa kernel", "kernel")):
            paths = sorted({span["args"][key] for span in solver_spans
                            if key in span.get("args", {})})
            if paths:
                lines.append(f"  {label}: {', '.join(paths)}")
    if metrics:
        counters = metrics.get("counters", {})
        interesting = {name: value for name, value in counters.items()
                       if not name.startswith("ssa.firings[")}
        for name in sorted(interesting):
            lines.append(f"  {name:32s} {interesting[name]:g}")
        firings = {name: value for name, value in counters.items()
                   if name.startswith("ssa.firings[")}
        if firings:
            top = sorted(firings.items(), key=lambda kv: -kv[1])[:5]
            lines.append("  busiest SSA channels:")
            for name, value in top:
                lines.append(f"    {name[12:-1]:30s} {value:g}")
    return lines


def _diagnostics_section(records) -> list[str]:
    diags = [record for record in records if record.get("type") == "diag"]
    lines = ["", "diagnostics"]
    if not diags:
        lines.append("  none")
        return lines
    for record in diags:
        cycle = record.get("cycle")
        where = f" (cycle {cycle})" if cycle is not None else ""
        lines.append(f"  {record.get('code', '?')} "
                     f"{record.get('severity', '?')}: "
                     f"{record.get('message', '')}{where}")
    return lines
