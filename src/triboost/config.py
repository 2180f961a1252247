"""Flat key-value config files with flag overrides.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Overrides are ``key=value`` strings (from repeatable CLI flags) applied on
top of the file, so the effective mapping is reproducible from the manifest
echo alone.

Training keys (apply to every stage unless prefixed): num_rounds,
max_depth, learning_rate, reg_lambda, min_child_weight, min_gain.
A ``stage2.`` / ``stage3.`` / ``stage1.`` prefix overrides one stage, e.g.
``stage3.num_rounds = 500``.

Scenario keys: num_products, num_weeks_hist, num_weeks_future,
launch_schedule (``P4:85,P5:90``), curve (flat | linear-trend | seasonal),
curve_base, curve_slope, curve_amplitude, curve_period,
share_decay_on_launch, noise_sd, stage1_bias_injection, seed.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable

from .errors import ValidationError
from .gbdt import TrainConfig
from .pipeline import PipelineConfig
from .scenario import CategoryCurve, ScenarioConfig


def read_kv_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValidationError(f"{path}:{lineno}: empty key")
        if key in mapping:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def apply_overrides(mapping: dict[str, str], overrides: Iterable[str]) -> dict[str, str]:
    merged = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


def _as_int(mapping: dict[str, str], key: str) -> int:
    try:
        return int(mapping[key])
    except ValueError:
        raise ValidationError(f"config key {key!r}: not an integer: {mapping[key]!r}") from None


def _as_float(mapping: dict[str, str], key: str) -> float:
    try:
        return float(mapping[key])
    except ValueError:
        raise ValidationError(f"config key {key!r}: not a number: {mapping[key]!r}") from None


# Each training key's parser, from its TrainConfig field's annotation (a
# string: the gbdt module postpones the evaluation of annotations).
_TRAIN_PARSERS = {
    f.name: _as_int if f.type == "int" else _as_float for f in fields(TrainConfig)
}
_STAGE_PREFIXES = ("stage1", "stage2", "stage3")


def pipeline_config_from_mapping(mapping: dict[str, str]) -> PipelineConfig:
    base: dict[str, object] = {}
    per_stage: dict[str, dict[str, object]] = {p: {} for p in _STAGE_PREFIXES}
    for key in mapping:
        stage, _, field = key.partition(".")
        target, name = (per_stage[stage], field) if stage in per_stage else (base, key)
        if name not in _TRAIN_PARSERS:
            raise ValidationError(f"unknown training config key {key!r}")
        target[name] = _TRAIN_PARSERS[name](mapping, key)

    stage1 = TrainConfig(**{**base, **per_stage["stage1"]})
    stage2 = TrainConfig(**{**base, **per_stage["stage2"]}) if per_stage["stage2"] else None
    stage3 = TrainConfig(**{**base, **per_stage["stage3"]}) if per_stage["stage3"] else None
    return PipelineConfig(stage1=stage1, stage2=stage2, stage3=stage3)


_SCENARIO_INT_KEYS = {"num_products", "num_weeks_hist", "num_weeks_future", "seed"}
_SCENARIO_FLOAT_KEYS = {
    "share_decay_on_launch",
    "noise_sd",
    "stage1_bias_injection",
    "curve_base",
    "curve_slope",
    "curve_amplitude",
    "curve_period",
}


def scenario_config_from_mapping(mapping: dict[str, str]) -> ScenarioConfig:
    kwargs: dict[str, object] = {}
    curve_kwargs: dict[str, object] = {}
    for key in mapping:
        if key in _SCENARIO_INT_KEYS:
            kwargs[key] = _as_int(mapping, key)
        elif key == "curve":
            curve_kwargs["kind"] = mapping[key]
        elif key.startswith("curve_") and key in _SCENARIO_FLOAT_KEYS:
            curve_kwargs[key.removeprefix("curve_")] = _as_float(mapping, key)
        elif key in _SCENARIO_FLOAT_KEYS:
            kwargs[key] = _as_float(mapping, key)
        elif key == "launch_schedule":
            kwargs[key] = _parse_schedule(mapping[key])
        else:
            raise ValidationError(f"unknown scenario config key {key!r}")
    if curve_kwargs:
        kwargs["curve"] = CategoryCurve(**curve_kwargs)
    return ScenarioConfig(**kwargs)


def _parse_schedule(text: str) -> dict[str, int]:
    schedule: dict[str, int] = {}
    if not text:
        return schedule
    for part in text.split(","):
        pid, sep, week = part.strip().partition(":")
        if not sep or not pid:
            raise ValidationError(
                f"launch_schedule entry {part!r} is not of the form PRODUCT:WEEK"
            )
        try:
            schedule[pid] = int(week)
        except ValueError:
            raise ValidationError(
                f"launch_schedule week {week!r} is not an integer"
            ) from None
    return schedule


def scenario_config_echo(config: ScenarioConfig) -> dict[str, object]:
    """The flat mapping that reproduces this config (manifest echo)."""
    return {
        "num_products": config.num_products,
        "num_weeks_hist": config.num_weeks_hist,
        "num_weeks_future": config.num_weeks_future,
        "launch_schedule": ",".join(
            f"{pid}:{week}" for pid, week in sorted(config.launch_schedule.items())
        ),
        "curve": config.curve.kind,
        "curve_base": config.curve.base,
        "curve_slope": config.curve.slope,
        "curve_amplitude": config.curve.amplitude,
        "curve_period": config.curve.period,
        "share_decay_on_launch": config.share_decay_on_launch,
        "noise_sd": config.noise_sd,
        "stage1_bias_injection": config.stage1_bias_injection,
        "seed": config.seed,
    }


def train_config_echo(config: TrainConfig) -> dict[str, object]:
    """The training keys that reproduce this config (manifest echo)."""
    return asdict(config)
