from __future__ import annotations

import json

import pytest

from ded.config import ConfigError, validate_config
from ded.pipeline import manifest_snapshot


class TestValidateConfig:
    def test_empty_config_gets_all_defaults(self):
        cfg = validate_config({})
        assert cfg["max_token_len"] == 16384
        assert cfg["pass_threshold"] == 0.5
        assert cfg["samples_per_question"] == 8
        assert cfg["diverse_per_question"] == 4
        assert cfg["runs"] == 16
        assert cfg["unit"] == "char"
        assert cfg["client"]["mode"] == "mock"

    def test_defaults_not_mutated(self):
        cfg = validate_config({"client": {"mode": "http", "base_url": "http://model.test/v1"}})
        assert cfg["client"]["mode"] == "http"
        assert validate_config({})["client"]["mode"] == "mock"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"pass_treshold": 0.5})
        assert "pass_treshold" in str(err.value)

    def test_tau_range(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"pass_threshold": 1.5})
        assert "pass_threshold" in str(err.value)

    def test_all_errors_reported(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"pass_threshold": 1.5, "runs": 0, "bogus": 1})
        message = str(err.value)
        assert "pass_threshold" in message
        assert "runs" in message
        assert "bogus" in message
        assert len(err.value.errors) == 3

    def test_stage_order_enforced(self):
        validate_config({"stages": ["sample", "filter"]})
        validate_config({"stages": ["filter", "stats"]})
        with pytest.raises(ConfigError):
            validate_config({"stages": ["filter", "sample"]})
        with pytest.raises(ConfigError):
            validate_config({"stages": ["sample", "sample"]})
        with pytest.raises(ConfigError):
            validate_config({"stages": ["train"]})

    def test_an_empty_stage_list_is_refused(self):
        with pytest.raises(ConfigError, match="stages: must name at least one stage"):
            validate_config({"stages": []})

    def test_gap_between_corpus_stages_refused(self):
        validate_config({"stages": ["compress", "diversify", "stats"]})
        validate_config({"stages": ["sample", "mix"],
                         "mix_sources": [{"path": "a.jsonl", "take": 1}]})
        for stages in (["sample", "diversify"], ["filter", "diversify", "stats"],
                       ["sample", "filter", "diversify"]):
            with pytest.raises(ConfigError, match="gap"):
                validate_config({"stages": stages})

    def test_type_errors(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"max_token_len": "big", "seed": 1.5,
                             "require_single_think_pair": "yes"})
        assert len(err.value.errors) == 3

    def test_bool_is_not_integer(self):
        with pytest.raises(ConfigError):
            validate_config({"runs": True})

    def test_client_subobject_validated(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"client": {"mode": "grpc", "surprise": 1}})
        message = str(err.value)
        assert "client.mode" in message
        assert "surprise" in message

    def test_mix_sources_shape(self):
        validate_config({"mix_sources": [{"path": "a.jsonl", "take": 3}]})
        with pytest.raises(ConfigError):
            validate_config({"mix_sources": [{"path": "a.jsonl"}]})
        for item in ({"path": "a.jsonl", "take": 0}, {"path": "a.jsonl", "take": True},
                     {"path": 3, "take": 1}, {"path": None, "take": 1}):
            with pytest.raises(ConfigError):
                validate_config({"mix_sources": [item]})

    def test_every_problem_of_a_mix_source_is_reported(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"mix_sources": [{"path": 1, "take": 0, "x": 2}, "b.jsonl",
                                             {"take": 1}]})
        assert err.value.errors == [
            "unknown key 'mix_sources[0].x'", "mix_sources[0].path: expected string, got int",
            "mix_sources[0].take: must be >= 1, got 0", "mix_sources[1]: expected an object",
            "mix_sources[2].path: missing"]

    @pytest.mark.parametrize("sources", [None, []], ids=["null", "empty"])
    def test_mix_without_mix_sources_refused(self, sources):
        # it would run as a stage that writes nothing after removing mix's
        # and stats's old files
        with pytest.raises(ConfigError) as err:
            validate_config({"stages": ["mix"], "mix_sources": sources})
        assert err.value.errors == ["stages: mix needs mix_sources, a list of {path, take}"]
        validate_config({"mix_sources": sources})

    def test_http_stages_that_call_need_base_url(self):
        # their first call would fail: refused before the run writes anything
        with pytest.raises(ConfigError) as err:
            validate_config({"client": {"mode": "http"}, "stages": ["filter", "compress",
                                                                    "diversify"]})
        assert err.value.errors == [
            "client.base_url: missing; http mode sends the model calls of filter, compress there"]
        with pytest.raises(ConfigError, match="client.base_url: missing"):
            validate_config({"client": {"mode": "http", "base_url": ""}})
        sources = [{"path": "a.jsonl", "take": 1}]
        for stages in (["diversify"], ["diversify", "mix", "stats"], ["stats"]):
            validate_config({"client": {"mode": "http"}, "stages": stages,
                             "mix_sources": sources})

    def test_given_stages_replace_the_configs_own(self):
        cfg = validate_config({"client": {"mode": "http"}, "stages": ["sample"]},
                              stages=["diversify"])
        assert cfg["stages"] == ["diversify"]
        with pytest.raises(ConfigError, match="client.base_url"):
            validate_config({"client": {"mode": "http"}, "stages": ["stats"]}, stages=["sample"])

    def test_cap_ratio_range(self):
        validate_config({"cap_ratio": None})
        validate_config({"cap_ratio": 1})
        with pytest.raises(ConfigError):
            validate_config({"cap_ratio": 0})
        with pytest.raises(ConfigError):
            validate_config({"cap_ratio": 1.2})

    def test_file_loading(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"runs": 4}), encoding="utf-8")
        assert validate_config(path)["runs"] == 4
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            validate_config(path)


def test_manifest_snapshot_carries_the_parameter_set():
    snapshot = manifest_snapshot(validate_config({}))
    for key in ("max_token_len", "pass_threshold", "samples_per_question",
                "diverse_per_question", "tokenizer", "seed"):
        assert key in snapshot
    assert snapshot["gate_order"] == ["format", "length", "correctness"]
