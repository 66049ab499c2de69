"""One round of a benchmark workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Imports the package
and generates the seeded inputs (set-up), then runs every item of the
batch in order, and writes a JSON result: the time set-up finished on the
shared monotonic clock, the batch time, per-item seconds and status, the
digest of the verified outputs, peak resident memory and, when traced,
the spans and work counters.

The speed probe (``speed.py``) runs from the first line to the last.
Every time is program time with the probe's own time taken out; each is
reported raw and scaled to the probe's nominal speed, with the probes
taken around that stretch of time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

from speed import MIN_SAMPLES, SpeedProbe


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    probe = SpeedProbe()
    started = time.perf_counter()
    probe.start()

    import workloads                   # imports the package: part of set-up
    from tracing import Tracer

    batch = workloads.make_batch(args.workload, args.seed, args.workdir)
    result = {"setup_done": time.monotonic(), "setup_probe_s": probe.spent}
    setup_end = time.perf_counter()
    if args.setup_only:
        probe.sample(MIN_SAMPLES)
    else:
        tracer = None
        if args.trace:
            tracer = Tracer(run_id=f"{args.workload}:{args.seed}:{args.out}", clock=probe.clock)
            tracer.install()
        result.update(run_batch(batch, tracer, probe))
        if tracer is not None:
            result["trace"] = tracer.dump()
    probe.stop()
    result["setup_factor"] = probe.factor(started, setup_end)
    result["round_factor"] = probe.factor(started, time.perf_counter())
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def run_batch(batch, tracer, probe) -> dict:
    from workloads import CheckFailed

    def call(name, fn, *args):
        return tracer.span(name, fn, *args) if tracer else fn(*args)

    items, records, stretches = [], [], []   # stretches: (wall start, wall end, program s)
    t0, c0 = time.perf_counter(), probe.clock()
    try:
        prep = call("workload.prep", batch.prep) if batch.prep else None
        prep_error = None
    except Exception:                   # every item of the round depends on it
        prep, prep_error = None, traceback.format_exc(limit=3)
    stretches.append((t0, time.perf_counter(), probe.clock() - c0))
    for item in batch.items:
        t0, c0 = time.perf_counter(), probe.clock()
        status, detail, record = "ok", "", None
        if prep_error:
            status, detail = "failed", "prep: " + prep_error
        else:
            try:
                record = call("workload.item", item.run, prep)
            except CheckFailed as exc:
                status, detail = "wrong", str(exc)
            except Exception as exc:
                status, detail = "failed", f"{type(exc).__name__}: {exc}"
        stretches.append((t0, time.perf_counter(), probe.clock() - c0))
        items.append({"label": item.label, "status": status, "detail": detail})
        records.append((item.label, status, record))
    scaled = [secs * probe.factor(t0, t1) for t0, t1, secs in stretches]
    for it, (_t0, _t1, secs), secs_scaled in zip(items, stretches[1:], scaled[1:]):
        it["raw_seconds"], it["seconds"] = secs, secs_scaled

    digest = hashlib.sha256()
    for label, status, record in sorted(records, key=lambda r: r[0]):
        digest.update(json.dumps([label, status, record], sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
    return {"wall_s": sum(scaled), "raw_wall_s": sum(s[2] for s in stretches),
            "items": items, "digest": digest.hexdigest()}


if __name__ == "__main__":
    sys.exit(main())
