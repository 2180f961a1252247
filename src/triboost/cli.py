"""Batch command line: generate, train, predict, evaluate, diagnose.

Every command echoes its effective configuration into a manifest, so a run
can be reproduced from its outputs alone; ``diagnose`` refits with ``train``'s.
Errors print one ``category: message`` line on stderr and map to distinct
exit codes: 0 success, 2 usage, 3 validation, 4 constraint-data, 5 persistence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .errors import (
    ConstraintDataError,
    PersistenceError,
    TriboostError,
    UsageError,
    ValidationError,
)
from .gbdt import GbdtModel, load_model, save_model
from .metrics import category_adherence, product_metrics
from .panel import (
    GroupLayout, _open_output, _parse_float, _parse_int, _read_csv, _writing, load_panel_csv,
)
from .pipeline import (
    STAGES, PipelineConfig, _in_stage, diagnose, predict_stages, run_pipeline,
)
from .scenario import generate, write_scenario

MODEL_FILES = {stage: f"model_{stage}.json" for stage in STAGES}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # one-line errors, no usage dump
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="triboost", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("generate", help="synthesize a scenario into CSV files")
    p.add_argument("--config", help="scenario key-value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one scenario config key (repeatable)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="run the three-pass fit and save models")
    _add_data_args(p)
    p.add_argument("--config", help="training key-value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one training config key (repeatable)")
    p.add_argument("--out", required=True, help="output directory")
    _add_threads_arg(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="apply saved models to a dataset")
    _add_data_args(p)
    p.add_argument("--models", required=True, help="directory holding the three model files")
    p.add_argument("--out", required=True, help="predictions CSV path")
    _add_threads_arg(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against true sales")
    p.add_argument("--pred", required=True, help="predictions CSV from `predict`")
    p.add_argument("--truth", required=True, help="truth CSV (product_id, week, true_sales)")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("diagnose", help="failure-mode report for saved models")
    _add_data_args(p)
    p.add_argument("--models", required=True, help="train's --out: three models and a manifest")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_diagnose)

    return parser


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, nargs="+", metavar="CSV",
                   help="panel CSV file(s); multiple files are concatenated")


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_threads_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_thread_count, default=1,
                   help="accepted for compatibility (>= 1); changes nothing, "
                   "every command runs on one thread")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except UsageError as exc:
        return _fail("usage", exc, 2)
    except ConstraintDataError as exc:
        return _fail("constraint-data", exc, 4)
    except PersistenceError as exc:
        return _fail("persistence", exc, 5)
    except TriboostError as exc:  # ValidationError and its subclasses
        return _fail("validation", exc, 3)


def _fail(category: str, exc: Exception, code: int) -> int:
    message = str(exc).replace("\n", "; ")
    print(f"{category}: {message}", file=sys.stderr)
    return code


def _mapping_from(args: argparse.Namespace) -> dict[str, str]:
    mapping = cfgmod.read_kv_file(args.config) if args.config else {}
    return cfgmod.apply_overrides(mapping, args.set)


def _write_json(path: str | Path, payload: dict) -> None:
    with _open_output(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_generate(args: argparse.Namespace) -> int:
    config = cfgmod.scenario_config_from_mapping(_mapping_from(args))
    dataset, truth = generate(config)
    out = Path(args.out)
    paths = write_scenario(dataset, truth, out)
    _write_json(out / "manifest.json", {
        "command": "generate",
        "config": cfgmod.scenario_config_echo(config),
        "files": {k: p.name for k, p in paths.items()},
        "rows": {"historical": dataset.m, "future": dataset.n - dataset.m},
    })
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = cfgmod.pipeline_config_from_mapping(_mapping_from(args))
    dataset = load_panel_csv(args.data)  # a bad input leaves no --out behind
    out = Path(args.out)
    with _writing(out):  # an unwritable --out fails before training
        out.mkdir(parents=True, exist_ok=True)
    result = run_pipeline(dataset, config, n_threads=args.threads)
    for name, fname in MODEL_FILES.items():
        save_model(getattr(result, name).model, out / fname)
    _write_json(out / "manifest.json", {
        "command": "train",
        "data": list(args.data),
        "config": {s: cfgmod.train_config_echo(c) for s, c in zip(STAGES, config.resolved())},
        "models": dict(MODEL_FILES),
        "loss_curves": {s: list(getattr(result, s).loss_curve) for s in STAGES},
        "diagnostics": result.diagnostics.to_dict(),
    })
    return 0


def _load_models(models_dir: str) -> list[GbdtModel]:
    return [load_model(Path(models_dir) / fname) for fname in MODEL_FILES.values()]


def _cmd_predict(args: argparse.Namespace) -> int:
    dataset = load_panel_csv(args.data)
    outputs = predict_stages(dataset, _load_models(args.models))
    with _open_output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["product_id", "week", *STAGES])
        writer.writerows(zip(
            dataset.product_ids,
            map(str, dataset.week_of_row.tolist()),
            *(map(repr, getattr(outputs, s).tolist()) for s in STAGES),
        ))
    _write_json(args.out + ".manifest.json", {
        "command": "predict",
        "data": list(args.data),
        "models": args.models,
        "rows": dataset.n,
    })
    return 0


def _read_keyed_csv(
    path: str, columns: tuple[str, ...]
) -> dict[tuple[int, str], list[float]]:
    """Rows of an ``evaluate`` input keyed by (week, product), with the
    numeric ``columns`` parsed.  A malformed cell or a repeated key is a
    validation error naming the file and line."""
    rows = _read_csv(path, ("product_id", "week", *columns))
    col = {name: i for i, name in enumerate(next(rows))}
    keyed: dict[tuple[int, str], list[float]] = {}
    for lineno, row in rows:
        key = (_parse_int(row[col["week"]], path, lineno, "week"), row[col["product_id"]])
        if key in keyed:
            raise ValidationError(f"{path}:{lineno}: duplicate (week, product) row {key}")
        keyed[key] = [_parse_float(row[col[c]], path, lineno, c) for c in columns]
    return keyed


def _cmd_evaluate(args: argparse.Namespace) -> int:
    preds = _read_keyed_csv(args.pred, STAGES)
    truth = _read_keyed_csv(args.truth, ("true_sales",))
    if not truth:
        raise ValidationError("truth file has no rows")
    keys = sorted(truth)
    missing = [k for k in keys if k not in preds]
    if missing:
        raise ValidationError(
            f"prediction rows missing for (week, product) {missing[:3]}"
        )

    true_sales = np.array([truth[k][0] for k in keys])
    layout = GroupLayout.from_week_column([week for week, _ in keys], true_sales)
    report = {"rows": len(keys)}
    for j, stage in enumerate(STAGES):
        stage_preds = np.array([preds[k][j] for k in keys])
        report[stage] = _in_stage(stage, lambda: {
            **product_metrics(stage_preds, true_sales),
            "adherence": category_adherence(stage_preds, layout).to_dict(),
        })
    report["manifest"] = {
        "command": "evaluate", "pred": args.pred, "truth": args.truth,
    }
    _write_json(args.out, report)
    return 0


def _trained_config(models_dir: str) -> PipelineConfig:
    """Stage 1's config as ``train`` echoed it into the models' manifest,
    parsed and checked as ``train --config`` parses a file."""
    path = Path(models_dir) / "manifest.json"
    try:
        stage1 = json.loads(path.read_text(encoding="utf-8"))["config"]["stage1"]
        return cfgmod.pipeline_config_from_mapping({k: str(v) for k, v in stage1.items()})
    except (OSError, RecursionError, ValueError, LookupError, TypeError, AttributeError,
            ValidationError) as exc:  # ValueError covers undecodable and invalid JSON
        raise PersistenceError(f"{path}: no stage-1 config: {type(exc).__name__}: {exc}") from exc


def _cmd_diagnose(args: argparse.Namespace) -> int:
    config = _trained_config(args.models)
    dataset = load_panel_csv(args.data)
    outputs = predict_stages(dataset, _load_models(args.models))
    report = diagnose(dataset, outputs, config)
    _write_json(args.out, {
        **report.to_dict(),
        "manifest": {
            "command": "diagnose",
            "data": list(args.data),
            "models": args.models,
            "config": cfgmod.train_config_echo(config.stage1),
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
