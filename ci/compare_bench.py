#!/usr/bin/env python3
"""Bench-regression gate: diff fresh BENCH_*.json artifacts against the
previous main-branch run.

The simulator is deterministic, so any value drift between two builds
is a real behavioral change; the gate distinguishes three outcomes per
compared file:

  * schema drift  -> FAIL: bench id or schema_version changed, a family
    or a cell disappeared, or a cell lost a metric the baseline had.
  * smoke-metric regression -> FAIL: a gated metric moved in the bad
    direction by more than --threshold (relative). Which metrics gate,
    and which direction counts as a regression, is declared in ONE
    table below (GATED_METRICS): "higher" metrics (throughput, goodput,
    SLO attainment) must not drop, "lower" metrics (latency
    percentiles, shed fraction) must not rise.
  * informational drift -> reported but not gating (counters,
    occupancy fractions, metrics added by new features).

Cells are matched on their identity axes (dataset, design, fanouts,
batch, mix, workers, knobs, serving axes) so reordering families or
appending new cells never trips the gate. A summary table is appended
to --summary (e.g. $GITHUB_STEP_SUMMARY) and echoed to stdout.

Usage:
  python3 ci/compare_bench.py --baseline <dir> --current <dir> \
      --file <BENCH_*.json> [--file ...] [--threshold 0.20] \
      [--summary path]
"""

import argparse
import json
import os
import sys

# The one declarative table of gated metrics: metric name -> the
# direction that is GOOD ("higher" must not drop, "lower" must not
# rise). Every metric absent from this table is informational:
# counters and occupancy fractions move legitimately whenever a
# feature (e.g. a new cache policy) changes traffic.
#
# queue_wait_us is deliberately absent: it is a diagnostic of the
# admission queue, not a smoke headline, and its definition may be
# corrected (as in the only-queued-requests fix) without the serving
# product itself regressing.
GATED_METRICS = {
    # Throughput-like: the product of the sweep harnesses.
    "batches_per_s": "higher",
    "achieved_qps": "higher",
    # Recovery / multi-tenant headline metrics: goodput and SLO
    # attainment dropping, or the shed fraction rising, means more
    # offered requests went unanswered (or answered late) at the same
    # configuration.
    "goodput_qps": "higher",
    "slo_attainment": "higher",
    "shed_frac": "lower",
    # Checkpoint/restart headlines (recovery-space): modeled restart
    # cost, batches lost to a crash, and the checkpoint write tax on
    # the training makespan must not grow at the same configuration.
    "recovery_time_us": "lower",
    "lost_work_batches": "lower",
    "ckpt_overhead_frac": "lower",
    # Scale-out headline (scaling family): speedup over the one-node
    # cell per added node. Falling efficiency at the same configuration
    # means the partitioned backend got worse at turning nodes into
    # throughput.
    "scaling_efficiency": "higher",
    # Cache effectiveness headlines (cache-policy family): the demand
    # hit fraction and, on hoard-enabled cells, the useful fraction of
    # issued prefetch lines must not drop at the same configuration.
    "cache_hit_frac": "higher",
    "prefetch_hit_frac": "higher",
    # Latency-like: serving-mode percentile headlines.
    "avg_sample_ms": "lower",
    "p50_us": "lower",
    "p95_us": "lower",
    "p99_us": "lower",
    "max_us": "lower",
    "mean_us": "lower",
}

# Baseline values this close to zero are noise-dominated; skip the
# relative comparison rather than divide by nearly nothing.
EPSILON = 1e-9


def cell_key(cell):
    """Identity of a cell: every field except measurements."""
    axes = {
        k: v
        for k, v in cell.items()
        if k not in ("metrics", "notes")
    }
    return json.dumps(axes, sort_keys=True)


def load(path):
    with open(path) as f:
        return json.load(f)


class FileReport:
    def __init__(self, name):
        self.name = name
        self.failures = []  # gating
        self.notes = []     # informational
        self.cells_compared = 0
        self.worst = 0.0    # worst gated relative drift

    @property
    def status(self):
        return "FAIL" if self.failures else "ok"


def compare_file(name, base_doc, cur_doc, threshold, report):
    if base_doc.get("bench") != cur_doc.get("bench"):
        report.failures.append(
            f"bench id changed: {base_doc.get('bench')!r} -> "
            f"{cur_doc.get('bench')!r}")
    if base_doc.get("schema_version") != cur_doc.get("schema_version"):
        report.failures.append(
            f"schema_version changed: {base_doc.get('schema_version')} "
            f"-> {cur_doc.get('schema_version')}")

    base_families = base_doc.get("results", {})
    cur_families = cur_doc.get("results", {})
    for family, base_run in base_families.items():
        cur_run = cur_families.get(family)
        if cur_run is None:
            report.failures.append(f"family '{family}' disappeared")
            continue
        cur_cells = {cell_key(c): c for c in cur_run.get("cells", [])}
        for base_cell in base_run.get("cells", []):
            key = cell_key(base_cell)
            cur_cell = cur_cells.get(key)
            if cur_cell is None:
                label = "{}/{}".format(
                    base_cell.get("dataset", "?"),
                    base_cell.get("design", "?"))
                report.failures.append(
                    f"{family}: cell {label} disappeared "
                    f"(axes: {key})")
                continue
            report.cells_compared += 1
            compare_metrics(family, base_cell, cur_cell, threshold,
                            report)


def compare_metrics(family, base_cell, cur_cell, threshold, report):
    base_metrics = base_cell.get("metrics", {})
    cur_metrics = cur_cell.get("metrics", {})
    label = "{}: {}/{}".format(
        family, base_cell.get("dataset", "?"),
        base_cell.get("design", "?"))
    for extra in ("arrival_qps", "queue_depth"):
        if extra in base_cell:
            label += f"/{extra}={base_cell[extra]}"
    if base_cell.get("knobs"):
        label += "/" + ",".join(
            f"{k}={v}" for k, v in sorted(base_cell["knobs"].items()))

    for metric, base_value in base_metrics.items():
        if metric not in cur_metrics:
            report.failures.append(
                f"{label}: metric '{metric}' disappeared")
            continue
        cur_value = cur_metrics[metric]
        if abs(base_value) < EPSILON:
            continue
        rel = (cur_value - base_value) / abs(base_value)
        direction = GATED_METRICS.get(metric)
        if direction == "higher":
            bad = -rel
        elif direction == "lower":
            bad = rel
        else:
            if abs(rel) > threshold:
                report.notes.append(
                    f"{label}: {metric} moved {rel:+.1%} "
                    f"({base_value:g} -> {cur_value:g}) [not gated]")
            continue
        if bad > report.worst:
            report.worst = bad
        if bad > threshold:
            report.failures.append(
                f"{label}: {metric} regressed {bad:.1%} "
                f"({base_value:g} -> {cur_value:g})")


def render_summary(reports, threshold):
    lines = ["## Bench regression gate", ""]
    lines.append(
        f"Threshold: {threshold:.0%} on smoke metrics "
        f"({', '.join(sorted(GATED_METRICS))})")
    lines.append("")
    lines.append("| artifact | cells | worst drift | status |")
    lines.append("|---|---|---|---|")
    for r in reports:
        lines.append(
            f"| `{r.name}` | {r.cells_compared} | {r.worst:.1%} "
            f"| {r.status} |")
    lines.append("")
    for r in reports:
        for f in r.failures:
            lines.append(f"- **FAIL** `{r.name}`: {f}")
        for n in r.notes[:20]:
            lines.append(f"- note `{r.name}`: {n}")
        if len(r.notes) > 20:
            lines.append(
                f"- note `{r.name}`: ... {len(r.notes) - 20} more "
                "informational drifts")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory with the previous artifacts")
    parser.add_argument("--current", required=True,
                        help="directory with the fresh artifacts")
    parser.add_argument("--file", action="append", required=True,
                        dest="files",
                        help="artifact file name to compare (repeat)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative regression threshold "
                             "(default 0.20)")
    parser.add_argument("--summary", default=os.environ.get(
                            "GITHUB_STEP_SUMMARY"),
                        help="markdown summary sink (appended)")
    args = parser.parse_args()

    reports = []
    failed = False
    for name in args.files:
        report = FileReport(name)
        reports.append(report)
        base_path = os.path.join(args.baseline, name)
        cur_path = os.path.join(args.current, name)
        if not os.path.exists(base_path):
            report.notes.append("no baseline artifact (new file?)")
            continue
        if not os.path.exists(cur_path):
            report.failures.append("fresh artifact missing")
            failed = True
            continue
        compare_file(name, load(base_path), load(cur_path),
                     args.threshold, report)
        failed = failed or bool(report.failures)

    summary = render_summary(reports, args.threshold)
    print(summary)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(summary)

    if failed:
        sys.exit("bench regression gate failed (see summary above)")


if __name__ == "__main__":
    main()
