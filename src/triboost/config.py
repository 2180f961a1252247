"""Flat key-value config files with flag overrides.

Format: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Overrides are ``key=value`` strings (from repeatable CLI flags) applied on
top of the file, so the effective mapping is reproducible from the manifest
echo alone.

Training keys: num_rounds, max_depth, learning_rate, reg_lambda, each
also under a ``stage2.`` and a ``stage3.`` prefix.  The unprefixed keys set
stage 1 over the defaults.  Stages 2 and 3 are stage 1 with their own
prefixed keys applied, key by key: with ``num_rounds = 50`` and
``stage2.max_depth = 3``, stage 2 trains 50 rounds at depth 3, and stage 3
is stage 1.

Scenario keys: num_products, num_weeks_hist, num_weeks_future,
launch_schedule (``P4:85,P5:90``, each product once), curve (flat |
linear-trend | seasonal), curve_base, curve_slope, curve_amplitude,
curve_period, share_decay_on_launch, noise_sd, stage1_bias_injection, seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Iterable

from .errors import ValidationError
from .gbdt import TrainConfig
from .pipeline import STAGES, PipelineConfig
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
        value = float(mapping[key])
    except ValueError:
        raise ValidationError(f"config key {key!r}: not a number: {mapping[key]!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"config key {key!r}: not a finite number: {mapping[key]!r}")
    return value


# A config value's parser, by the annotation of the field it sets (a
# string: the gbdt and scenario modules postpone evaluating annotations).
_PARSERS = {
    "int": _as_int,
    "float": _as_float,
    "str": lambda mapping, key: mapping[key],
    "Mapping[str, int]": lambda mapping, key: _parse_schedule(mapping[key]),
}
_TRAIN_PARSERS = {f.name: _PARSERS[f.type] for f in fields(TrainConfig)}


def pipeline_config_from_mapping(mapping: dict[str, str]) -> PipelineConfig:
    """Stage 1 from the unprefixed keys; a later stage is stage 1 with its
    own keys applied, or ``None`` if it sets none."""
    base: dict[str, object] = {}
    later: dict[str, dict[str, object]] = {s: {} for s in STAGES[1:]}
    for key in mapping:
        stage, _, field = key.partition(".")
        target, name = (later[stage], field) if stage in later else (base, key)
        if name not in _TRAIN_PARSERS:
            raise ValidationError(f"unknown training config key {key!r}")
        target[name] = _TRAIN_PARSERS[name](mapping, key)

    stage1 = TrainConfig(**base)
    return PipelineConfig(
        stage1, *(replace(stage1, **keys) if keys else None for keys in later.values())
    )


# Each scenario key's field: ScenarioConfig's fields and, under a
# ``curve_`` prefix, CategoryCurve's (``curve`` itself is the curve's kind).
_SCENARIO_FIELDS = {f.name: f for f in fields(ScenarioConfig) if f.name != "curve"}
_CURVE_FIELDS = {
    "curve" if f.name == "kind" else f"curve_{f.name}": f for f in fields(CategoryCurve)
}


def scenario_config_from_mapping(mapping: dict[str, str]) -> ScenarioConfig:
    kwargs: dict[str, object] = {}
    curve_kwargs: dict[str, object] = {}
    for key in mapping:
        if key in _SCENARIO_FIELDS:
            target, f = kwargs, _SCENARIO_FIELDS[key]
        elif key in _CURVE_FIELDS:
            target, f = curve_kwargs, _CURVE_FIELDS[key]
        else:
            raise ValidationError(f"unknown scenario config key {key!r}")
        target[f.name] = _PARSERS[f.type](mapping, key)
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
        if pid in schedule:
            raise ValidationError(f"launch_schedule lists product {pid!r} twice")
        try:
            schedule[pid] = int(week)
        except ValueError:
            raise ValidationError(
                f"launch_schedule week {week!r} is not an integer"
            ) from None
    return schedule


def scenario_config_echo(config: ScenarioConfig) -> dict[str, object]:
    """The flat mapping that reproduces this config (manifest echo)."""
    echo = {key: getattr(config, key) for key in _SCENARIO_FIELDS}
    echo["launch_schedule"] = ",".join(
        f"{pid}:{week}" for pid, week in sorted(config.launch_schedule.items())
    )
    echo.update((key, getattr(config.curve, f.name)) for key, f in _CURVE_FIELDS.items())
    return echo


def train_config_echo(config: TrainConfig) -> dict[str, object]:
    """The training keys that reproduce this config (manifest echo)."""
    return asdict(config)
