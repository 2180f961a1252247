import json

import numpy as np
import pytest

from triboost.config import (
    apply_overrides,
    pipeline_config_from_mapping,
    read_kv_file,
    scenario_config_echo,
    scenario_config_from_mapping,
    train_config_echo,
)
from triboost.errors import ValidationError
from triboost.gbdt import TrainConfig
from triboost.scenario import CategoryCurve, ScenarioConfig


def write(tmp_path, text):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return p


class TestReadKvFile:
    def test_basic_parsing(self, tmp_path):
        p = write(tmp_path, "a = 1\nb=two\n  c  =  3 4  \n")
        assert read_kv_file(p) == {"a": "1", "b": "two", "c": "3 4"}

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = write(tmp_path, "# header\n\na = 1  # trailing\n   \n# b = 2\n")
        assert read_kv_file(p) == {"a": "1"}

    def test_duplicate_key_rejected_with_line(self, tmp_path):
        p = write(tmp_path, "a = 1\na = 2\n")
        with pytest.raises(ValidationError, match=":2: duplicate key 'a'"):
            read_kv_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = write(tmp_path, "just some words\n")
        with pytest.raises(ValidationError, match=":1: expected"):
            read_kv_file(p)

    def test_empty_key_rejected(self, tmp_path):
        p = write(tmp_path, "= 5\n")
        with pytest.raises(ValidationError, match="empty key"):
            read_kv_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read config"):
            read_kv_file(tmp_path / "nope.txt")

    def test_value_may_contain_equals(self, tmp_path):
        p = write(tmp_path, "k = a=b\n")
        assert read_kv_file(p) == {"k": "a=b"}


class TestApplyOverrides:
    def test_overrides_win(self):
        merged = apply_overrides({"a": "1", "b": "2"}, ["b=20", "c=3"])
        assert merged == {"a": "1", "b": "20", "c": "3"}

    def test_original_untouched(self):
        base = {"a": "1"}
        apply_overrides(base, ["a=9"])
        assert base == {"a": "1"}

    def test_later_override_wins(self):
        assert apply_overrides({}, ["a=1", "a=2"]) == {"a": "2"}

    def test_malformed_override(self):
        with pytest.raises(ValidationError, match="key=value"):
            apply_overrides({}, ["broken"])

    def test_whitespace_stripped(self):
        assert apply_overrides({}, [" a = 5 "]) == {"a": "5"}


class TestPipelineConfigFromMapping:
    def test_empty_mapping_gives_defaults(self):
        cfg = pipeline_config_from_mapping({})
        assert cfg.stage1 == TrainConfig()
        assert cfg.stage2 is None and cfg.stage3 is None

    def test_base_keys_apply_to_stage1(self):
        cfg = pipeline_config_from_mapping(
            {"num_rounds": "50", "learning_rate": "0.2"}
        )
        assert cfg.stage1.num_rounds == 50
        assert cfg.stage1.learning_rate == 0.2

    def test_stage_prefix_overrides_base(self):
        cfg = pipeline_config_from_mapping(
            {"num_rounds": "50", "stage3.num_rounds": "500"}
        )
        assert cfg.stage1.num_rounds == 50
        assert cfg.stage2 is None  # still inherits stage 1 at run time
        assert cfg.stage3.num_rounds == 500
        assert cfg.stage3.learning_rate == cfg.stage1.learning_rate

    @pytest.mark.parametrize("mapping, expected", [
        ({"num_rounds": "50", "stage2.max_depth": "3"},
         [(50, 4), (50, 3), (50, 4)]),
        ({"num_rounds": "40", "stage2.num_rounds": "50", "stage3.max_depth": "2"},
         [(40, 4), (50, 4), (40, 2)]),
    ])
    def test_later_stage_is_stage1_with_its_own_keys(self, mapping, expected):
        # A later stage is stage 1 with its own keys applied on top; stage 3
        # does not inherit stage 2's.
        resolved = pipeline_config_from_mapping(mapping).resolved()
        assert [(c.num_rounds, c.max_depth) for c in resolved] == expected

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown training config key"):
            pipeline_config_from_mapping({"rounds": "10"})

    def test_unknown_stage_field_rejected(self):
        with pytest.raises(ValidationError, match="'stage2.rounds'"):
            pipeline_config_from_mapping({"stage2.rounds": "10"})

    @pytest.mark.parametrize("key", [
        "min_child_weight", "min_gain", "stage1.min_child_weight", "stage3.min_gain",
        "stage1.num_rounds", "stage1.max_depth", "stage1.learning_rate", "stage1.reg_lambda",
    ])
    def test_removed_knobs_are_unknown_keys(self, key):
        # The minimum child weight and minimum gain are not training keys,
        # and stage 1's keys are the unprefixed ones, with no stage1. alias.
        with pytest.raises(ValidationError, match=f"unknown training config key '{key}'"):
            pipeline_config_from_mapping({key: "0"})

    def test_type_errors_name_the_key(self):
        with pytest.raises(ValidationError, match="'num_rounds'.*integer"):
            pipeline_config_from_mapping({"num_rounds": "ten"})
        with pytest.raises(ValidationError, match="'reg_lambda'.*number"):
            pipeline_config_from_mapping({"reg_lambda": "soft"})

    def test_invalid_values_still_validated(self):
        with pytest.raises(ValidationError):
            pipeline_config_from_mapping({"num_rounds": "0"})

    def test_round_trip_through_echo(self):
        cfg = TrainConfig(num_rounds=77, max_depth=4, learning_rate=0.3,
                          reg_lambda=2.0)
        echo = {k: str(v) for k, v in train_config_echo(cfg).items()}
        assert pipeline_config_from_mapping(echo).stage1 == cfg

    def test_echo_of_numpy_numbers_is_json(self):
        # A config kept numpy scalars as given, and json.dumps of its echo
        # raised TypeError.
        cfg = TrainConfig(num_rounds=np.int64(7), max_depth=np.int32(3),
                          learning_rate=np.float32(0.5), reg_lambda=np.float64(2.0))
        assert json.dumps(train_config_echo(cfg)) == (
            '{"num_rounds": 7, "max_depth": 3, "learning_rate": 0.5, "reg_lambda": 2.0}'
        )


class TestScenarioConfigFromMapping:
    def test_empty_mapping_gives_defaults(self):
        cfg = scenario_config_from_mapping({})
        assert cfg.num_products == 5
        assert cfg.launch_schedule == {"P4": 80}

    def test_full_mapping(self):
        cfg = scenario_config_from_mapping(
            {
                "num_products": "6",
                "num_weeks_hist": "30",
                "num_weeks_future": "10",
                "launch_schedule": "P4:30,P5:35",
                "curve": "linear-trend",
                "curve_base": "500",
                "curve_slope": "1.5",
                "noise_sd": "0",
                "share_decay_on_launch": "0.1",
                "stage1_bias_injection": "0.3",
                "seed": "42",
            }
        )
        assert cfg.num_products == 6
        assert cfg.launch_schedule == {"P4": 30, "P5": 35}
        assert cfg.curve.kind == "linear-trend"
        assert cfg.curve.base == 500.0 and cfg.curve.slope == 1.5
        assert cfg.stage1_bias_injection == 0.3
        assert cfg.seed == 42

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario config key"):
            scenario_config_from_mapping({"products": "3"})

    def test_schedule_syntax_errors(self):
        with pytest.raises(ValidationError, match="PRODUCT:WEEK"):
            scenario_config_from_mapping({"launch_schedule": "P4=80"})
        with pytest.raises(ValidationError, match="not an integer"):
            scenario_config_from_mapping({"launch_schedule": "P4:soon"})

    def test_repeated_schedule_product_rejected(self):
        # Used to keep the last week silently: {"P4": 90}.
        with pytest.raises(ValidationError, match="product 'P4' twice"):
            scenario_config_from_mapping({"launch_schedule": "P4:80,P5:85,P4:90"})

    def test_empty_schedule_rejected_downstream(self):
        # parses to {} but the scenario needs a future launch
        with pytest.raises(ValidationError):
            scenario_config_from_mapping({"launch_schedule": ""})

    def test_curve_validation_applies(self):
        with pytest.raises(ValidationError, match="curve kind"):
            scenario_config_from_mapping({"curve": "bathtub"})

    def test_round_trip_through_echo(self):
        cfg = scenario_config_from_mapping(
            {"num_weeks_hist": "40", "launch_schedule": "P4:40", "seed": "5"}
        )
        echo = {k: str(v) for k, v in scenario_config_echo(cfg).items()}
        assert scenario_config_from_mapping(echo) == cfg

    def test_echo_of_numpy_numbers_is_json(self):
        # A config kept numpy scalars as given, and json.dumps of its echo
        # raised TypeError.
        cfg = ScenarioConfig(
            num_products=np.int64(5),
            seed=np.int64(7),
            launch_schedule={"P4": np.int32(80)},
            noise_sd=np.float32(0.5),
            curve=CategoryCurve(base=np.float32(500.0), period=np.int64(26)),
        )
        want = scenario_config_echo(
            ScenarioConfig(noise_sd=0.5, curve=CategoryCurve(base=500.0, period=26.0))
        )
        assert json.dumps(scenario_config_echo(cfg)) == json.dumps(want)
