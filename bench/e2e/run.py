#!/usr/bin/env python3
"""End-to-end benchmark of the SmartSAGE reproduction.

Builds bench/e2e (the library comes in with the root's own flags) into
build/e2e, runs each workload in its own smartsage_bench process, checks
that the outputs are correct, and prints every metric by name and unit.
Metric names, units, directions and bounds come from BENCHMARK.json.

  python3 bench/e2e/run.py                  # every workload
  python3 bench/e2e/run.py --workload serve-cached --seed 7
  python3 bench/e2e/run.py --smoke          # tiny sizes, every check, < 20 s
  python3 bench/e2e/run.py --agree A.json B.json

Every run measures the same way and prints both metric sets: the
end-to-end ones from untraced reps that fill the window, the per-layer
ones from one traced rep after them. Results go to
build/e2e/results.json, one Chrome trace per workload to
build/e2e/trace-<workload>.json. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
its metrics are the end-to-end ones, or with --trace 1 the per-layer
ones. A failed check exits 1.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "e2e"
WORKLOADS = ["train-amazon", "train-reddit", "sim-train-isp",
             "sim-train-mmap", "serve-cached"]
DEFAULT_SEED = 0xBA7C


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_bench():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build():
    """Configure and build build/e2e; False if either step fails."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release", *generator],
             ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


# -------------------------------------------------------------- statistics

def summary(samples):
    """Median, quartiles and count of a sample list."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return {"value": med, "q1": med, "q3": med, "n": len(samples)}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": med, "q1": q1, "q3": q3, "n": len(samples)}


def end_to_end(raw, bench):
    reps = raw["reps"]
    samples = {
        "items_per_s": [r["items"] / r["wall_s"] for r in reps],
        "setup_s": raw["setup_s"],
        "peak_rss_mib": [raw["peak_rss_mib"]],
    }
    out = {}
    for m in bench["end_to_end"]:
        s = samples[m["name"]]
        out[m["name"]] = {**summary(s), "unit": m["unit"], "samples": s}
    return out


def per_layer(raw, bench):
    """Every per-layer metric; the ones this workload does not exercise
    read 0 with "applies": false."""
    traced = raw["traced"]
    found = {name: ("wall", v) for name, v in traced.get("layers", {}).items()}
    found["graph.build_ms"] = ("wall", statistics.median(raw["graph_ms"]))
    found["core.system_build_ms"] = ("wall",
                                     statistics.median(raw["system_ms"]))
    untraced_s = statistics.median(r["wall_s"] / r["items"]
                                   for r in raw["reps"])
    found["trace_overhead_frac"] = (
        "wall", traced["wall_s"] / traced["items"] / untraced_s - 1)
    # Component counters are read from the stats map by their own row name.
    for name, value in {**raw["stats"], **raw["exact"]}.items():
        found[name] = ("exact", value)

    out = {}
    for m in bench["per_layer"]:
        clock, value = found.get(m["name"], (None, 0))
        out[m["name"]] = {"value": value, "unit": m["unit"],
                          "clock": clock or "n/a",
                          "applies": clock is not None}
    return out


# ------------------------------------------------------------------ checks

def checks(raw, e2e):
    """(name, ok, detail) for every correctness check of one run."""
    workload = raw["workload"]
    reps = raw["reps"] + [raw["traced"]]
    result = [("timed reps ran", len(reps) > 1,
               f"{len(reps) - 1} untraced, 1 traced")]

    def same(key, what):
        values = {r[key] for r in reps}
        result.append((f"{what} identical in every rep", len(values) == 1,
                       ", ".join(sorted(values))))

    if workload.startswith("train-"):
        same("state_hash", "model state hash (trainStep and traced step)")
        same("loss_bits", "mean loss bits")
        finite = all(r["loss"] is not None for r in reps)
        result.append(("loss is finite", finite, ""))
    elif workload.startswith("sim-train-"):
        same("digest", "simulated-output digest (plain and decorated)")
    else:
        same("digest", "simulated-output digest")
        bad = [f"{rate['rate']}: {rate['requests']} != "
               f"{rate['completed_ok']} + {rate['shed']}"
               for r in reps for rate in r["rates"]
               if rate["requests"] != rate["completed_ok"] + rate["shed"]]
        result.append(("requests == completed_ok + shed at every rate",
                       not bad, "; ".join(bad)))
    for name, m in e2e.items():
        ok = all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0
                 for v in m["samples"])
        result.append((f"{name} finite and positive", ok, ""))
    return result


# ------------------------------------------------------------------- runs

def run_workload(args, workload, bench):
    raw_path = BUILD / f"raw-{workload}.json"
    cmd = [str(BUILD / "smartsage_bench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(raw_path),
           "--trace-out", str(BUILD / f"trace-{workload}.json")]
    if args.reps:
        cmd += ["--reps", str(args.reps)]
    if args.smoke:
        cmd.append("--smoke")
    raw_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=args.seconds * 4 + 90)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out")
        return None
    if proc.returncode or not raw_path.exists():
        log(f"run.py: {workload} failed (exit {proc.returncode})")
        return None
    with open(raw_path) as f:
        raw = json.load(f)

    e2e = end_to_end(raw, bench)
    reps = raw["reps"] + [raw["traced"]]
    result = {
        "seed": raw["seed"],
        "item": raw["item"],
        "meta": raw["meta"],
        "reps": len(raw["reps"]),
        "attempted": int(sum(r["items"] for r in reps)),
        "failed": int(sum(r["failed"] for r in reps)),
        "end_to_end": e2e,
        "per_layer": per_layer(raw, bench),
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in checks(raw, e2e)],
    }
    result["correct"] = all(c["ok"] for c in result["checks"])
    return result


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def show(workload, r):
    print(f"== {workload}  seed {r['seed']}  {r['reps']} reps + 1 traced"
          f"  (item: {r['item']})")
    print(f"  {'end-to-end metric':34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>4}  unit")
    for name, m in r["end_to_end"].items():
        print(f"  {name:34} {fmt(m['value']):>12} {fmt(m['q1']):>12} "
              f"{fmt(m['q3']):>12} {m['n']:>4}  {m['unit']}")
    print(f"  {'per-layer metric (traced)':34} {'value':>12}  unit")
    for name, m in r["per_layer"].items():
        if m["applies"]:
            print(f"  {name:34} {fmt(m['value']):>12}  {m['unit']}"
                  f"{'  (exact)' if m['clock'] == 'exact' else ''}")
    for c in r["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              f"{': ' + c['detail'] if c['detail'] and not c['ok'] else ''}")


def metrics_line(r, trace, only_applicable=False):
    """The result line's metrics: end-to-end, or with trace per-layer."""
    metrics = r["per_layer"] if trace else r["end_to_end"]
    return {n: {"value": m["value"], "unit": m["unit"]}
            for n, m in metrics.items()
            if m.get("applies", True) or not only_applicable}


def git_sha():
    # The ceiling keeps git from finding an enclosing repository when
    # this tree is not a checkout of its own.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ------------------------------------------------------------------ agree

def agree(path_a, path_b, bench):
    """Compare two results.json files within the benchmark's bounds."""
    with open(path_a) as f:
        a_all = json.load(f)["workloads"]
    with open(path_b) as f:
        b_all = json.load(f)["workloads"]
    rows, bad = [], 0
    for w in [w for w in WORKLOADS if w in a_all and w in b_all]:
        a, b = a_all[w], b_all[w]
        for m in bench["end_to_end"]:
            ma = a["end_to_end"].get(m["name"])
            mb = b["end_to_end"].get(m["name"])
            if not ma or not mb:
                continue
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb["value"] - ma["value"]) / ma["value"]
            spread = max((x["q3"] - x["q1"]) / x["value"] for x in (ma, mb))
            b_always_better = all(sign * x < sign * y for x in mb["samples"]
                                  for y in ma["samples"])
            if b_always_better or (spread <= m["bound"]
                                   and worse <= m["bound"]):
                status = "within"
            elif spread > m["bound"]:
                status = "unresolved"
            else:
                status = "exceeded"
            bad += status == "exceeded"
            rows.append((w, m["name"], f"{worse:+.2%}",
                         f"spread {spread:.3%}", f"bound {m['bound']:.0%}",
                         status))
        if a["seed"] != b["seed"]:
            continue
        for name, la in a["per_layer"].items():
            lb = b["per_layer"].get(name)
            if la["clock"] != "exact" or not lb or not la["applies"]:
                continue
            status = "identical" if la["value"] == lb["value"] else "differs"
            bad += status == "differs"
            rows.append((w, name, fmt(la["value"]), fmt(lb["value"]),
                         "exact", status))
    print("end-to-end rows: how much B's median is worse than A's "
          "(negative: better), the wider quartile spread, the bound; "
          "exact rows: A's value, B's value")
    for row in rows:
        print(f"{row[0]:15} {row[1]:34} {row[2]:>16} {row[3]:>18} "
              f"{row[4]:>10}  {row[5]}")
    print(f"{len(rows)} rows, {bad} exceeded or differing")
    return 1 if bad else 0


# ------------------------------------------------------------------- main

def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running workload before run.py exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = load_bench()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # --seconds and --trace are part of the benchmark's calling
    # convention (<command> --workload W --seed N --seconds S --trace T).
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="untraced window per workload (default: "
                   "BENCHMARK.json run_seconds)")
    p.add_argument("--reps", type=int, default=0,
                   help="fixed untraced rep count instead of the window")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="metrics of the result line: 0 end-to-end, "
                   "1 per-layer; the run itself is the same")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, every workload and check")
    p.add_argument("--agree", nargs=2, metavar=("A", "B"),
                   help="compare two results.json files and exit")
    args = p.parse_args()
    if args.agree:
        return agree(*args.agree, bench)
    if args.seconds <= 0 or args.reps < 0 or args.seed < 0:
        p.error("--seconds must be positive, --reps and --seed non-negative")
    if args.smoke and not args.reps:
        args.reps = 2

    if not build():
        return 1
    workloads = args.workload or WORKLOADS
    results = {}
    for w in workloads:
        r = run_workload(args, w, bench)
        if r is None:
            return 1
        results[w] = r
        show(w, r)

    meta = {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "python": platform.python_version(),
            **next(iter(results.values()))["meta"],
            "args": {k: v for k, v in vars(args).items() if k != "agree"}}
    with open(BUILD / "results.json", "w") as f:
        json.dump({"meta": meta, "workloads": results}, f, indent=1)

    correct = all(r["correct"] for r in results.values())
    line = {"correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values())}
    if len(workloads) == 1:
        line["metrics"] = metrics_line(results[workloads[0]], args.trace)
    else:
        line["metrics"] = {w: metrics_line(r, args.trace, True)
                           for w, r in results.items()}
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
