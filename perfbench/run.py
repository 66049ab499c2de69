"""zetaforms benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 30 --trace 0

Every round runs the workload's seeded batch in a fresh single-threaded
interpreter (``worker.py``), because a command-line user starts with cold
module caches.  Rounds repeat while the time budget lasts; before them,
a few set-up-only interpreters time the cold import plus input generation.
All rounds of a run must agree on the digest of their verified outputs.
Times are scaled to a reference host speed with the probe in ``speed.py``.

With ``--trace 0`` the last line of output reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics
from traced rounds, which alternate with untraced rounds so that the
tracing overhead can be given.  Earlier lines give sample counts, the
failure ratio with its base, the failing items and the digest.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import COUNTERS, LAYERS, self_times  # noqa: E402

WORKLOADS = ("exact-tables", "residual-grid", "rate-sweep", "checkers")
SETUP_PROBES = 5          # set-up-only interpreters per run, besides the rounds
RUN_LIMIT_S = 170         # every run ends well inside the 180 s a run may take
OUT_DIR = ".perfbench"    # under the repository root; holds nothing but run output
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("ZETAFORMS_DIGITS", None)            # it would change CLI precision
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in SINGLE_THREAD:
        env[var] = "1"
    return env


def run_child(args, root, workdir, index, *, trace=0, setup_only=False, deadline):
    out = os.path.join(workdir, f"child-{index}.json")
    round_dir = os.path.join(workdir, f"round-{index}")
    os.makedirs(round_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", round_dir, "--out", out,
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {index} did not finish within the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    with open(out) as fh:
        res = json.load(fh)
    res["raw_setup_s"] = res["setup_done"] - spawned - res["setup_probe_s"]
    res["setup_s"] = res["raw_setup_s"] * res["setup_factor"]
    res["total_s"] = time.monotonic() - spawned
    return res


def measure(args, root, workdir) -> tuple[list, list]:
    """Set-up probes, then rounds until the time budget is spent."""
    t0 = time.monotonic()
    hard = t0 + RUN_LIMIT_S
    run_child(args, root, workdir, 0, setup_only=True, deadline=hard)   # writes bytecode
    probes = [run_child(args, root, workdir, i, setup_only=True, deadline=hard)
              for i in range(1, SETUP_PROBES + 1)]
    rounds: list[dict] = []
    index = SETUP_PROBES + 1
    while True:
        trace = args.trace and len(rounds) % 2 == 0
        res = run_child(args, root, workdir, index, trace=int(trace), deadline=hard)
        res["traced"] = bool(trace)
        rounds.append(res)
        index += 1
        elapsed = time.monotonic() - t0
        need_untraced = args.trace and all(r["traced"] for r in rounds)
        if not need_untraced and elapsed + res["total_s"] > args.seconds:
            return probes, rounds


def end_to_end(probes, rounds) -> tuple[dict, list[str]]:
    untraced = [r for r in rounds if not r["traced"]]
    for r in untraced:      # the round's item of median cost, scaled and raw
        r["item_seconds"] = median(it["seconds"] for it in r["items"])
        r["raw_item_seconds"] = median(it["raw_seconds"] for it in r["items"])
    timings = {             # name: (key in a sample, samples, what they are)
        "wall_s": ("wall_s", untraced, "rounds"),
        "item_p50_s": ("item_seconds", untraced,
                       f"round medians over {sum(len(r['items']) for r in untraced)} items"),
        "setup_s": ("setup_s", probes + rounds, "interpreter starts"),
    }
    metrics, lines = {}, []
    for name, (key, samples, what) in timings.items():
        value = median(s[key] for s in samples)
        raw = median(s["raw_" + key] for s in samples)
        metrics[name] = {"value": value, "unit": "s"}
        lines.append(f"{name} = {value:.6g} s scaled, {raw:.6g} s raw "
                     f"(median of {len(samples)} {what})")
    rss = [r["peak_rss_kb"] / 1024 for r in untraced]
    metrics["peak_rss_mb"] = {"value": median(rss), "unit": "MB"}
    lines.append(f"peak_rss_mb = {median(rss):.6g} MB (median of {len(rss)} rounds)")
    lines.append("host speed factor (nominal / probe) per round: "
                 + " ".join(f"{r['round_factor']:.3f}" for r in rounds))
    return metrics, lines


def per_layer(rounds, trace_path) -> tuple[dict, list[str]]:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    # self times in program seconds, scaled by each round's median probe
    per_round = [{k: (secs * r["round_factor"], calls)
                  for k, (secs, calls) in self_times(r["trace"]["spans"]).items()}
                 for r in traced]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median([t.get(layer, (0.0, 0))[0] for t in per_round]), "s")
        metrics[f"{layer}.calls"] = (per_round[0].get(layer, (0.0, 0))[1], "count")
    for name, unit in COUNTERS.items():
        metrics[name] = (traced[0]["trace"]["counters"][name], unit)
    traced_wall = median([r["wall_s"] for r in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - median([r["wall_s"] for r in untraced]), "s")
    with open(trace_path, "w") as fh:
        json.dump([r["trace"] for r in traced], fh)
    lines = [f"traced rounds {len(traced)}, untraced rounds {len(untraced)}; spans in {trace_path}"]
    lines += [f"{name} = {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zetaforms", "__init__.py")):
        print("perfbench: run from the repository root (src/zetaforms not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, OUT_DIR))
    try:
        probes, rounds = measure(args, root, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    items = [it for r in rounds for it in r["items"]]
    failed = [it for it in items if it["status"] != "ok"]
    wrong = [it for it in items if it["status"] == "wrong"]
    digests = {r["digest"] for r in rounds}
    if args.trace:
        trace_path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        metrics, lines = per_layer(rounds, trace_path)
    else:
        metrics, lines = end_to_end(probes, rounds)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(rounds[0]['items'])} items, digest {' '.join(sorted(digests))}")
    for line in lines:
        print(line)
    for label in sorted({it["label"] for it in items}):
        secs = [it["seconds"] for r in rounds if not r["traced"] for it in r["items"]
                if it["label"] == label]
        if secs:
            print(f"  item {label}: {median(secs):.4g} s")
    print(f"fail_ratio = {len(failed)}/{len(items)} = {len(failed) / len(items):.4g} "
          f"({len(wrong)} wrong results)")
    for label, detail in sorted({(it["label"], it["detail"]) for it in failed}):
        print(f"  failed: {label}: {detail}")
    print(json.dumps({
        "correct": len(digests) == 1 and not wrong,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
