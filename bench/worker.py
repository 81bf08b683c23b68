"""One fresh benchmark process: import, one cold repetition, timed repetitions.

Started by run.py with a JSON spec as its only argument; prints one JSON
object on its last stdout line.  Running each workload in its own process
makes peak RSS and set-up time belong to that workload alone.

The loop is closed with one client: a repetition starts only after the
previous one finished, and the first timed repetition always runs.  With
tracing on, untraced and traced repetitions alternate, so the overhead is
measured on neighbouring repetitions and the traced outputs can be compared
byte for byte with untraced ones.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def import_program():
    """Import pivotlearn from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "pivotlearn", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"benchmark: {init} not found; run from a pivotlearn checkout")
    sys.path.insert(0, SRC)
    import pivotlearn

    if os.path.realpath(pivotlearn.__file__) != os.path.realpath(init):
        raise SystemExit(f"benchmark: imported pivotlearn from {pivotlearn.__file__}, not {init}")
    return pivotlearn


def measure(workload: str, seed: int, budget_s: float, trace: bool, toy: bool,
            spans_path: str | None = None) -> dict:
    import numpy as np

    import spans as sp
    from workloads import WORKLOADS, check_records, digest, sweep_workers

    wl = WORKLOADS[workload]
    inputs = wl.make(seed, toy)
    kept_spans = []

    def repetition(tracer=None) -> dict:
        rep = {"traced": tracer is not None}
        try:
            if tracer is None:
                t0 = time.perf_counter()
                records, extra = wl.run(inputs)
                rep["wall_s"] = time.perf_counter() - t0
            else:
                (records, extra), rep["wall_s"] = tracer.repetition(lambda: wl.run(inputs))
        except Exception as exc:  # noqa: BLE001 - a failed repetition is counted, not fatal
            rep.update(ok=False, problems=[f"raised {type(exc).__name__}: {exc}"])
            return rep
        problems = check_records(records)
        if tracer is not None:
            rep["layers"], more = sp.summarize(tracer, sweep_workers())
            problems += more
            kept_spans.append(tracer.spans)
        rep.update(
            ok=not problems,
            problems=problems,
            digest=digest(records, extra),
            labels_distinct=sum(r.counters["distinct_labeled"] for r in records),
            final_err=statistics.fmean(
                r.final_err for r in records if r.final_err is not None
            ) if records else None,
        )
        return rep

    cold = repetition()
    cold["cold"] = True
    t_ready = time.monotonic()
    reps = [cold]
    start = time.perf_counter()
    while len(reps) == 1 or time.perf_counter() - start < budget_s:
        reps.append(repetition())
        if trace:
            tracer = sp.Tracer()
            installed = sp.install(tracer)
            try:
                reps.append(repetition(tracer))
            finally:
                installed.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spans_path and kept_spans:
        write_spans(spans_path, kept_spans)
    return {
        "t_ready": t_ready,
        "peak_rss_mb": peak_kb / 1024.0,
        "reps": reps,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def write_spans(path: str, per_rep) -> None:
    """JSON lines, one span each, times in seconds from the repetition start."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for rep, spans in enumerate(per_rep):
            origin = min(s[2] for s in spans)
            for sid, name, t0, t1, parent, tid, attrs in spans:
                fh.write(json.dumps({
                    "rep": rep, "id": sid, "name": name, "start": t0 - origin,
                    "end": t1 - origin, "parent": parent, "thread": tid, "attrs": attrs,
                }) + "\n")


def main(argv) -> int:
    spec = json.loads(argv[1])
    import_program()
    result = measure(**spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
