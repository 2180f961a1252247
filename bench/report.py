"""Per-layer metrics, the self-time table and the trace file of a traced run."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import tracing

# Per-layer metric -> unit.  Times are inclusive span durations per job
# except the two ``*_self_s`` ones; counts are per job.
PER_LAYER_UNITS = {
    "gbdt.split_search_s": "s",
    "gbdt.split_search_calls": "count",
    "gbdt.split_found_ratio": "ratio",
    "gbdt.split_rows_mean": "rows",
    "gbdt.fit_s": "s",
    "gbdt.grow_self_s": "s",
    "gbdt.leaf_weight_calls": "count",
    "gbdt.predict_s": "s",
    "gbdt.predict_tree_rows": "count",
    "gbdt.model_load_s": "s",
    "gbdt.model_save_s": "s",
    "panel.load_csv_s": "s",
    "panel.from_records_s": "s",
    "panel.save_csv_s": "s",
    "scenario.generate_s": "s",
    "objectives.grad_hess_s": "s",
    "objectives.grad_hess_calls": "count",
    "objectives.loss_s": "s",
    "objectives.loss_calls": "count",
    "pipeline.stage1_s": "s",
    "pipeline.stage2_s": "s",
    "pipeline.stage3_s": "s",
    "pipeline.diagnose_s": "s",
    "pipeline.probe_s": "s",
    "pipeline.heldout_s": "s",
    "cli.train_s": "s",
    "cli.predict_s": "s",
    "cli.evaluate_s": "s",
    "cli.self_s": "s",
    "metrics.score_s": "s",
    "bench.job_s_traced": "s",
}


def _job_metrics(tracer: tracing.Tracer, job: str) -> dict[str, float]:
    spans = tracer.job_spans(job)
    table = tracing.self_times(spans)
    counts = tracer.counts[job]

    def calls(name: str) -> int:
        return int(table[name][0]) if name in table else 0

    def dur(*names: str) -> float:
        return sum(table[n][1] for n in names if n in table)

    splits = calls("gbdt.find_best_split")
    return {
        "gbdt.split_search_s": dur("gbdt.find_best_split"),
        "gbdt.split_search_calls": splits,
        "gbdt.split_found_ratio": counts["split_found"] / splits if splits else 0.0,
        "gbdt.split_rows_mean": counts["split_rows"] / splits if splits else 0.0,
        "gbdt.fit_s": dur("gbdt.fit"),
        "gbdt.grow_self_s": tracing.grow_self_time(spans),
        "gbdt.leaf_weight_calls": calls("gbdt.leaf_weight"),
        "gbdt.predict_s": dur("gbdt.predict"),
        "gbdt.predict_tree_rows": int(counts["predict_tree_rows"]),
        "gbdt.model_load_s": dur("gbdt.load_model"),
        "gbdt.model_save_s": dur("gbdt.save_model"),
        "panel.load_csv_s": dur("panel.load_panel_csv"),
        "panel.from_records_s": dur("panel.from_records"),
        "objectives.grad_hess_s": dur("objectives.grad_hess"),
        "objectives.grad_hess_calls": calls("objectives.grad_hess"),
        "objectives.loss_s": dur("objectives.loss"),
        "objectives.loss_calls": calls("objectives.loss"),
        "pipeline.stage1_s": dur("pipeline.run_stage1"),
        "pipeline.stage2_s": dur("pipeline.run_stage2"),
        "pipeline.stage3_s": dur("pipeline.run_stage3"),
        "pipeline.diagnose_s": dur("pipeline.diagnose"),
        "pipeline.probe_s": dur("pipeline.trivial_solution_probe"),
        "pipeline.heldout_s": dur("pipeline.held_out_bias"),
        "cli.train_s": dur("cli.train"),
        "cli.predict_s": dur("cli.predict"),
        "cli.evaluate_s": dur("cli.evaluate"),
        "cli.self_s": sum(row[2] for name, row in table.items() if name.startswith("cli.")),
        "metrics.score_s": dur("metrics.product_metrics", "metrics.category_adherence"),
        "bench.job_s_traced": dur("bench.job"),
    }


def _setup_metrics(tracer: tracing.Tracer, rep: str) -> dict[str, float]:
    table = tracing.self_times(tracer.job_spans(rep))
    return {
        "panel.save_csv_s": table["panel.save_panel_csv"][1],
        "scenario.generate_s": table["scenario.generate"][1],
    }


def per_layer(tracer: tracing.Tracer, jobs: int, setups: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: the median over the run's jobs (set-up
    layers: over its set-up repetitions)."""
    samples = [_job_metrics(tracer, f"job{i}") for i in range(jobs)]
    samples_setup = [_setup_metrics(tracer, f"setup{i}") for i in range(setups)]
    values = {}
    for name, unit in PER_LAYER_UNITS.items():
        source = samples_setup if name in samples_setup[0] else samples
        values[name] = (statistics.median(s[name] for s in source), unit)
    return values


def print_trace(tracer: tracing.Tracer, workload: str, seed: int, jobs: int, out_dir: Path) -> None:
    """Self time per span name, averaged over jobs (the rows add up to the
    mean traced job time), the tracing overhead, and the trace file."""
    job_ids = {f"job{i}" for i in range(jobs)}
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] in job_ids]
    table = tracing.self_times(spans)
    job_mean = table["bench.job"][1] / jobs
    print(f"self time per job, traced ({workload}, {jobs} jobs, mean job {job_mean:.4f} s):")
    print(f"  {'span':34s}{'calls/job':>11s}{'self s/job':>12s}{'share':>8s}")
    for name, (calls, _, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:34s}{calls / jobs:11.0f}{self_s / jobs:12.4f}"
              f"{100 * self_s / jobs / job_mean:7.1f}%")
    total_self = sum(row[2] for row in table.values()) / jobs
    print(f"  {'sum of self times':34s}{'':11s}{total_self:12.4f}{100 * total_self / job_mean:7.1f}%")

    per_span = tracer.span_cost()
    spans_per_job = len(spans) / jobs
    overhead = spans_per_job * per_span
    print(f"tracing overhead: {spans_per_job:.0f} spans/job x {per_span * 1e6:.2f} us/span = "
          f"{overhead:.4f} s/job ({100 * overhead / job_mean:.1f}% of the traced job)")

    path = out_dir / f"trace-{workload}-seed{seed}.jsonl"
    write_trace(tracer, path, {"workload": workload, "seed": seed, "jobs": jobs})
    print(f"trace: {len(tracer.spans)} spans written to {path}")


def write_trace(tracer: tracing.Tracer, path: Path, meta: dict) -> None:
    """One JSON line of metadata and counters, then one line per span:
    [name, start s, end s, parent span index or -1, job id]."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({**meta, "counts": tracer.counts}) + "\n")
        for name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, job]))
            fh.write("\n")
