"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ode_machine --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` sets up each workload several times (``setup_s`` is the
median), then repeats seeded rounds until ``--seconds`` have passed and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
rounds twice -- once plain, once with the layer wrappers of
:mod:`trace` installed -- and prints the per-layer metrics derived from
the recorded spans.  Every output is checked; a stream or job that
raises or fails an exact check is counted in ``failed``, and an SSA
stream that stalls or misses its statistical bound lowers ``ok_frac``
(see ``workloads.Record``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are a readable report and the full run record (provenance,
the code paths that ran, every metric of the workload).  Records and
span files are also written under ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: the workloads make only small-array calls, and idle
# BLAS threads spinning on a 2-CPU host add scheduler noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 9
#: seconds the host probe takes on the reference host (2-CPU x86-64
#: VM, Python 3.11, numpy 2); timed seconds are rescaled to that speed
PROBE_REF_S = 1.5e-3


def host_probe_s() -> float:
    """Seconds a fixed loop of interpreter work and small numpy calls
    takes now (the faster of two passes).

    The loop shares no code with ``src/``, so a change to the program
    cannot move it; a change in host speed (other tenants, clock
    frequency) moves it as it moves the workloads.  Each timed sample
    is multiplied by ``PROBE_REF_S / host_probe_s()`` measured just
    before it, which removes most of the drift of a shared host
    between runs.
    """
    import numpy as np

    best = math.inf
    for _ in range(2):
        start = perf_counter()
        values = np.arange(64.0)
        total = 0.0
        for i in range(3000):
            total += float(values[i % 64]) * 1.0001
            if i % 20 == 0:
                values = np.sqrt(values * values + 1.0)
        table: dict[int, int] = {}
        for i in range(2000):
            table[i % 97] = table.get(i % 97, 0) + i
        best = min(best, perf_counter() - start)
    return best


def host_scale() -> float:
    """Factor that rescales seconds timed now to the reference host."""
    return PROBE_REF_S / host_probe_s()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_cpu_s() -> float:
    times = os.times()
    return times.children_user + times.children_system


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, rounds: int) -> dict:
    import numpy
    import scipy

    return {"git_sha": _git_sha(), "src_sha256": _source_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds,
            "setup_reps": SETUP_REPS if not args.trace else 1}


def _run_rounds(workload, state, record, *, seconds=None, rounds=None,
                tracer=None, probe=False) -> tuple[int, float]:
    """Run rounds 0, 1, ... until ``rounds`` are done or ``seconds``
    have passed (at least one); returns (rounds run, wall seconds).

    With ``probe``, each round is preceded by :func:`host_scale` and
    its items get the ``scale`` that rescales their times to the
    reference host."""
    start = perf_counter()
    done = 0
    while True:
        first = len(record.items)
        scale = host_scale() if probe else 1.0
        workload.run_round(state, done, record, tracer)
        for item in record.items[first:]:
            item["scale"] = scale
        done += 1
        if rounds is not None and done >= rounds:
            break
        if rounds is None and perf_counter() - start >= seconds:
            break
    return done, perf_counter() - start


def untraced(workload, args) -> dict:
    from workloads import Record

    setup_times = []
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            workload.close(state)
        scale = host_scale()
        start = perf_counter()
        state = workload.setup()
        setup_times.append((perf_counter() - start) * scale)
    record = Record()
    children_cpu = _children_cpu_s()
    try:
        rounds, wall = _run_rounds(workload, state, record,
                                   seconds=args.seconds, rounds=args.rounds,
                                   probe=True)
        workload.finish(state, record)
    finally:
        workload.close(state)
    measured = workload.metrics(record)
    ok_frac = record.ok_frac
    gated = {"setup_s": (statistics.median(setup_times), "s"),
             "peak_rss_mb": (_peak_rss_mb(), "MiB"),
             "ok_frac": (ok_frac, "frac")}
    gated.update(workload.gated(measured))
    measured["failed_frac"] = (1.0 - ok_frac, "frac")
    measured["setup_s"] = gated["setup_s"]
    measured["peak_rss_mb"] = gated["peak_rss_mb"]
    paths = _observed_paths(record)
    paths["pool_child_cpu_s"] = _children_cpu_s() - children_cpu
    return {"record": record, "rounds": rounds, "wall_s": wall,
            "setup_times_s": setup_times, "gated": gated,
            "measured": measured, "paths": paths}


def traced(workload, args) -> dict:
    from spans import Tracer, derive
    from workloads import Record

    rounds = args.rounds or workload.trace_rounds
    # Plain pass: the base of trace.overhead_ratio.
    state = workload.setup()
    try:
        _, plain_wall = _run_rounds(workload, state, Record(), rounds=rounds)
    finally:
        workload.close(state)

    tracer = Tracer()
    record = Record()
    tracer.install()
    try:
        state = workload.setup()
        tracer.phase = "run"
        try:
            _, traced_wall = _run_rounds(workload, state, record,
                                         rounds=rounds, tracer=tracer)
        finally:
            tracer.phase = "teardown"
            workload.close(state)
    finally:
        installed = tracer.installed
        tracer.uninstall()
    workload.finish(state, record)
    per_layer = derive(tracer, record)
    per_layer["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    paths = _observed_paths(record)
    return {"record": record, "rounds": rounds, "wall_s": traced_wall,
            "plain_wall_s": plain_wall, "gated": per_layer,
            "measured": {}, "paths": paths, "wrappers": installed,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "span_count": len(tracer.spans)}


def _observed_paths(record) -> dict:
    """Which code paths ran, read from outside the program."""
    from repro.crn.simulation import batch

    flushes = [item.get("flushes", 0) for item in record.items]
    paths = {"batch_raw_uniforms": bool(batch._RAW_UNIFORMS_OK)}
    if any("design" in item for item in record.items):
        paths["flushes_per_stream"] = {
            str(n): flushes.count(n) for n in sorted(set(flushes))}
    return paths


def _number(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds (tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; run from a "
              f"full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import repro  # noqa: F401  (import time is reported, not gated)
    import_s = perf_counter() - start

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    result = (traced if args.trace else untraced)(workload, args)
    record = result["record"]

    for name, (value, unit) in sorted(result["measured"].items()):
        print(f"{args.workload:>15}  {name:<24} {value:>14.6g} {unit}")
    full = {"provenance": provenance(args, result["rounds"]),
            "import_s": import_s, "wall_s": result["wall_s"],
            "paths": result["paths"],
            "attempted": record.attempted,
            "failed": len(record.failures),
            "failures": record.failures[:20],
            "misses": len(record.misses),
            "miss_reasons": record.misses[:20],
            "metrics": {name: {"value": _number(value), "unit": unit}
                        for name, (value, unit)
                        in sorted({**result["measured"],
                                   **result["gated"]}.items())}}
    for key in ("setup_times_s", "plain_wall_s", "wrappers", "spans_file",
                "span_count"):
        if key in result:
            full[key] = result[key]
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / (f"record-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(full, indent=1) + "\n",
                           encoding="utf-8")
    print("record: " + json.dumps(full))
    summary = {
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in result["gated"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
