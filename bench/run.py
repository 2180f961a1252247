"""triboost benchmark: one workload, closed loop, quality-gated.

    python3 bench/run.py --workload default-cli --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from ``src/`` next
to this directory.  Jobs run one after another until the run, set-up
included, is nearer ``--seconds`` than it would be after one more job.
Before each job the set-up is repeated and timed (see SETUP_SLICE_SECONDS)
and the job runs on the inputs of the last repetition.  Each job runs in a
child forked from this process, so the child's peak resident set is the
job's alone (see ``run_job``).  Every job's outputs are checked (see
``check_job``); a job that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps each
module's public functions (see ``tracing.py``) and reports per-layer
metrics instead, prints a self-time table that accounts for the traced
job time, and writes every span to ``.bench_out/``.  The last line of
standard output is the JSON result; the lines before it are the
environment, the output identity (sha256 of models and predictions) and
the quality figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# One set-up sample is the mean of set-ups repeated back to back: at least
# one, and more while the next would end within SETUP_SLICE_SECONDS.  A
# sample is taken before every job, and setup_s is their median.  The host
# runs in slow and fast phases of about a second, so single cheap set-ups
# fall into two clusters and their median jumps between them; means over
# slices spread across the whole run average the phases, as job_s does.
SETUP_SLICE_SECONDS = 0.5
MIN_JOBS = 2  # the cross-job digest check needs two
TARGET_SUM_RTOL = 1e-9


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put ``src/`` first on the path and make sure that is where triboost
    comes from; without the sources the benchmark must not run."""
    src = ROOT / "src"
    if not (src / "triboost" / "__init__.py").is_file():
        sys.exit(f"bench: no triboost sources under {src}")
    sys.path.insert(0, str(src))
    import triboost

    if src.resolve() not in Path(triboost.__file__).resolve().parents:
        sys.exit(f"bench: triboost imported from {triboost.__file__}, not {src}")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, but not
    below the 75th, and that percentile.  Below 40 samples this is the upper
    quartile, interpolated between samples: a run holds a few jobs, and
    their maximum is set by the host's single slow phases, not by the
    program.  At 40 samples the two rules meet."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 40:
        return statistics.quantiles(ordered, n=4, method="inclusive")[2], 75.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_job(output, reference, dataset, keys_digest: str) -> list[str]:
    """Problems with one job's outputs; empty when the job is correct.
    ``keys_digest`` is the digest of the dataset's (product, week) keys."""
    import numpy as np
    from triboost import objectives

    layout = dataset.layout
    if output.row_keys_digest not in (None, keys_digest):
        return ["prediction rows do not follow the dataset order"]
    problems = []
    for stage, preds in output.preds.items():
        if not np.all(np.isfinite(preds)):
            problems.append(f"{stage} predictions are not all finite")
    targets = output.stage3_targets
    if targets is None:  # rebuilt from the stage-1 column as the program builds them
        ratios = objectives.pred_ratio(output.preds["stage1"], layout)
        targets = objectives.stage3_target(ratios, layout).values
    sums = layout.weekly_sums(targets)
    gap = np.abs(sums - layout.totals)
    if not np.all(gap <= TARGET_SUM_RTOL * np.abs(layout.totals)):
        week = int(layout.weeks[int(np.argmax(gap / np.abs(layout.totals)))])
        problems.append(f"stage-3 targets miss the week {week} total")
    if reference is not None:
        if output.model_digests != reference.model_digests:
            problems.append("model bytes differ from the run's first job")
        if output.predictions_digest != reference.predictions_digest:
            problems.append("predictions differ from the run's first job")
    return problems


def quality(output, dataset, truth) -> dict[str, float]:
    from triboost import metrics

    adherence = {
        stage: metrics.category_adherence(output.preds[stage], dataset, future_only=True).mean
        for stage in ("stage1", "stage3")
    }
    wmape = metrics.product_metrics(output.preds["stage3"][dataset.m:], truth.sales)["wmape"]
    return {
        "stage1_adherence": adherence["stage1"],
        "stage3_adherence": adherence["stage3"],
        "stage3_wmape": wmape,
    }


def emit(label: str, payload) -> None:
    print(f"{label}: {json.dumps(payload, sort_keys=True)}", flush=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    cores = nproc()
    emit("env", {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": cores,
        "workload": workload.name,
        "threads": workload.threads,
        "oversubscribed": cores < workload.threads,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    if cores < workload.threads:
        print(f"WARNING: nproc {cores} is below the {workload.threads} threads "
              f"{workload.name} uses; its timings are not comparable", flush=True)

    tracer = tracing.Tracer() if args.trace else None
    work = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    try:
        if tracer is not None:
            tracer.install()
        result = measure(args, workload, tracer, work, workloads)
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


def traced(tracer, job: str, name: str):
    return nullcontext() if tracer is None else tracer.active(job, name)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


@dataclass
class JobRun:
    """What one job measured and produced."""

    elapsed: float
    start_rss_mb: float = 0.0
    peak_rss_mb: float = 0.0
    output_file: Path | None = None  # the pickled workloads.JobOutput; None when the job failed
    error: str | None = None
    spans: list = field(default_factory=list)  # the job's spans when traced
    counts: dict = field(default_factory=dict)


def _job_in_child(workload, inputs, out: Path, kept: Path, tracer, job: str, mark: int) -> JobRun:
    import numpy as np

    # A fork copies numpy's global random state, so output that depends on it
    # would repeat in every job and pass the cross-job digest check; draw it
    # afresh as a new process would.  Python's random module reseeds itself.
    np.random.seed()
    start_rss = _max_rss_mb()  # the high-water mark of a fresh fork is its resident set
    start = time.perf_counter()
    try:
        with traced(tracer, job, "bench.job"):
            raw = workload.run(inputs, out)
        run = JobRun(time.perf_counter() - start, start_rss, _max_rss_mb())
        kept.write_bytes(pickle.dumps(workload.collect(inputs, out, raw)))
        run.output_file = kept
    except Exception:  # a job that raises is a failed job; keep measuring
        run = JobRun(time.perf_counter() - start, start_rss, _max_rss_mb())
        run.error = traceback.format_exc()
    if tracer is not None:
        run.spans = tracer.spans[mark:]
        run.counts = dict(tracer.counts[job])
    return run


def run_job(workload, inputs, out: Path, kept: Path, tracer, job: str) -> JobRun:
    """Run one job in a child forked from this process and wait for it.

    The child's ru_maxrss starts at the resident set it inherits, not at
    this process's high-water mark, so ``peak_rss_mb`` covers the job and
    none of the set-ups or checks.  The child writes the job's outputs to
    ``kept``, so this process holds no earlier job's outputs when it forks
    the next; it sends what it measured back through a pipe and leaves by
    ``os._exit``, so none of this process's clean-up runs twice.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    mark = len(tracer.spans) if tracer is not None else 0
    began = time.perf_counter()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            run = _job_in_child(workload, inputs, out, kept, tracer, job, mark)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(run, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return JobRun(time.perf_counter() - began, error=f"job process ended with status {status}")
    run = pickle.loads(payload)
    if tracer is not None:
        tracer.spans.extend(run.spans)
        tracer.counts[job].update(run.counts)
    return run


def measure(args, workload, tracer, work: Path, workloads) -> dict | None:
    setup_times: list[float] = []
    setup_reps = 0

    def set_up():
        nonlocal setup_reps
        began = time.perf_counter()
        spent, reps = 0.0, 0
        while reps == 0 or time.perf_counter() - began + spent / reps < SETUP_SLICE_SECONDS:
            target = workloads.reset_dir(work / "setup")
            gc.collect()
            start = time.perf_counter()
            with traced(tracer, f"setup{setup_reps}", "bench.setup"):
                inputs = workload.setup(target, random.Random(args.seed))
            spent += time.perf_counter() - start
            reps += 1
            setup_reps += 1
        setup_times.append(spent / reps)
        return inputs

    runs: list[JobRun] = []
    kept = workloads.reset_dir(work / "outputs")
    began = time.perf_counter()
    while True:
        inputs = set_up()
        out = workloads.reset_dir(work / "job")
        gc.collect()
        job = f"job{len(runs)}"
        runs.append(run_job(workload, inputs, out, kept / f"{job}.pickle", tracer, job))
        times = [run.elapsed for run in runs]
        # Stop where the next set-up and job would end further past
        # --seconds than the run is now short of it: runs then last
        # --seconds on average, whatever the step's length.
        step = statistics.median(setup_times) + statistics.median(times)
        if len(runs) >= MIN_JOBS and time.perf_counter() - began + step / 2 > args.seconds:
            break
    del inputs

    dataset, truth = workloads.expected(workload)
    keys_digest = workloads.row_keys_digest((r.product_id, r.week_index) for r in dataset.records)
    failed = 0
    reference = None
    for i, run in enumerate(runs):
        if run.error is not None:
            print(run.error, file=sys.stderr, end="")
            problems = [run.error.strip().splitlines()[-1]]
        else:
            output = pickle.loads(run.output_file.read_bytes())
            problems = check_job(output, reference, dataset, keys_digest)
        if problems:
            failed += 1
            print(f"job{i} FAILED: {'; '.join(problems)}", file=sys.stderr, flush=True)
        elif reference is None:
            reference = output
    if reference is None:
        print("bench: no job succeeded; nothing to report", file=sys.stderr)
        return None

    emit("identity", {
        "workload": workload.name,
        "seed": args.seed,
        "models_sha256": reference.model_digests,
        "predictions_sha256": reference.predictions_digest,
    })
    scores = quality(reference, dataset, truth)
    emit("quality", {**scores, "probe_rel_gap": reference.probe_rel_gap})
    job_s = statistics.median(times)
    tail_s, tail_pct = tail(times)
    emit("jobs", {
        "samples": len(times),
        "failed": failed,
        "error_rate": failed / len(times),
        "job_s": [round(t, 4) for t in times],
        "job_s_tail_percentile": tail_pct,
        "setup_s": [round(t, 5) for t in setup_times],
        "setup_repeats": setup_reps,
        "rss_mb_at_job_start": [round(run.start_rss_mb, 1) for run in runs],
        "peak_rss_mb": [round(run.peak_rss_mb, 1) for run in runs],
    })

    if tracer is None:
        metrics = {
            "job_s": (job_s, "s"),
            "job_s_tail": (tail_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs if r.error is None), "MB"),
            "stage1_adherence": (scores["stage1_adherence"], "ratio"),
            "stage3_adherence": (scores["stage3_adherence"], "ratio"),
            "stage3_wmape": (scores["stage3_wmape"], "ratio"),
        }
    else:
        import report

        metrics = report.per_layer(tracer, len(times), setup_reps)
        report.print_trace(tracer, workload.name, args.seed, len(times), OUT_DIR)
    return {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
