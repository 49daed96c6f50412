"""Flat config parsing, defaults, validation, and stage seeding."""

import hashlib
import math

import pytest

from miaudit.cli_runner.config import (
    ALL_STRATEGIES,
    ExperimentConfig,
    load_config,
    parse_config_file,
    stage_seed,
)
from miaudit.errors import ConfigError
from miaudit.scores import ATTACKER_STRATEGIES


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestParseFile:
    def test_basic_lines(self, tmp_path):
        path = write_config(
            tmp_path,
            "# comment\n\nseed = 7\ndataset.dim = 16\nstrategies = loss, adv_dist\n",
        )
        raw = parse_config_file(path)
        assert raw == {"seed": "7", "dataset.dim": "16", "strategies": "loss, adv_dist"}

    def test_unknown_key_reports_location(self, tmp_path):
        path = write_config(tmp_path, "seed = 1\nnot.a.key = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert ":2:" in str(err.value)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path, "seed 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")

    def test_undecodable_bytes_are_a_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\n\xff\n")
        with pytest.raises(ConfigError, match="run.cfg: 'utf-8' codec can't decode byte 0xff"):
            parse_config_file(path)

    def test_value_may_contain_equals(self, tmp_path):
        path = write_config(tmp_path, "output.dir = out=dir\n")
        assert parse_config_file(path) == {"output.dir": "out=dir"}


class TestDefaults:
    def test_fresh_config_is_valid(self):
        cfg = ExperimentConfig()
        assert cfg.seed == 0
        assert cfg["dataset.source"] == "synthetic"
        assert cfg["dataset.n_per_class"] == 50
        assert cfg["dataset.classes"] == 10
        assert cfg.hidden_dims() == [64]
        assert cfg["target.epochs"] == 200
        assert cfg["target.optimizer"] == "adam"
        assert cfg.strategies() == list(
            ("softmax", "mentr", "loss", "grad_w_norm", "grad_x_norm", "adv_dist")
        )
        assert cfg["protocol.repeats"] == 20
        assert cfg["protocol.ratio"] == "1:1"
        assert cfg["output.dir"] == "audit_out"

    def test_attack_defaults(self):
        atk = ExperimentConfig().attack_config(seed=3)
        assert atk.p == math.inf
        assert atk.epsilon == 1.0
        assert atk.n_iter == 50
        assert atk.seed == 3

    def test_train_config_carries_seed(self):
        tc = ExperimentConfig().train_config(seed=11)
        assert tc.seed == 11 and tc.epochs == 200 and tc.batch_size == 32


class TestOverridesAndParsing:
    def test_overrides_win(self, tmp_path):
        path = write_config(tmp_path, "seed = 3\ndataset.dim = 8\n")
        cfg = load_config(path, overrides={"seed": 9})
        assert cfg.seed == 9
        assert cfg["dataset.dim"] == 8

    def test_none_overrides_skipped(self, tmp_path):
        path = write_config(tmp_path, "seed = 3\n")
        cfg = load_config(path, overrides={"seed": None, "output.dir": None})
        assert cfg.seed == 3

    def test_unknown_override(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"bogus.key": 1})

    def test_norm_spellings(self):
        for raw, want in (("inf", math.inf), ("2", 2.0), ("1", 1.0)):
            cfg = ExperimentConfig({"attack.p": raw})
            assert cfg["attack.p"] == want
        with pytest.raises(ConfigError):
            ExperimentConfig({"attack.p": "3"})

    def test_bool_spellings(self):
        for raw in ("1", "true", "yes", "on"):
            assert ExperimentConfig({"debug.dump_traces": raw})["debug.dump_traces"]
        for raw in ("0", "false", "no", "off"):
            assert not ExperimentConfig({"debug.dump_traces": raw})["debug.dump_traces"]
        with pytest.raises(ConfigError):
            ExperimentConfig({"debug.dump_traces": "maybe"})

    def test_typed_values_go_through_their_parser(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig({"seed": 3.7})
        for raw in (1, "1", True):
            cfg = ExperimentConfig({"debug.dump_traces": raw})
            assert cfg["debug.dump_traces"] is True
            assert cfg.echo()["debug.dump_traces"] == "true"
        assert ExperimentConfig({"seed": 3}).echo()["seed"] == "3"

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"dataset.dim": "sixteen"})

    def test_ratio_parsing(self):
        cfg = ExperimentConfig({"protocol.ratios": "5:1, 1:1, 1:5"})
        assert cfg.ratios() == [(5, 1), (1, 1), (1, 5)]
        with pytest.raises(ConfigError):
            ExperimentConfig({"protocol.ratios": "5-1"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"protocol.ratio": "0:1"})


class TestValidation:
    def test_empty_ratios_need_an_empty_sweep(self):
        for ratios in ("", " , "):
            with pytest.raises(ConfigError, match="protocol.ratios lists no ratio"):
                ExperimentConfig({"protocol.ratios": ratios})
        # no sweep, so no ratios needed
        cfg = ExperimentConfig({"protocol.ratios": "", "protocol.ratio_strategies": ""})
        assert cfg.ratios() == [] and cfg.ratio_strategies() == []
        # a bad ratio is still caught with the sweep off
        with pytest.raises(ConfigError, match="ratio must look like"):
            ExperimentConfig({"protocol.ratios": "5-1", "protocol.ratio_strategies": ""})

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"strategies": "loss, telepathy"})

    @pytest.mark.parametrize("key", ["strategies", "protocol.ratio_strategies"])
    def test_repeated_strategy(self, key):
        with pytest.raises(ConfigError, match=rf"{key} names \['loss'\] more than once"):
            ExperimentConfig({key: "loss, adv_dist, loss"})
        with pytest.raises(ConfigError, match=r"\['attacker_ensemble', 'loss'\]"):
            ExperimentConfig({key: "loss,loss,attacker_ensemble,attacker_ensemble"})

    def test_attacker_strategies_accepted(self):
        cfg = ExperimentConfig({"strategies": ", ".join(ALL_STRATEGIES)})
        assert set(ATTACKER_STRATEGIES) <= set(cfg.strategies())

    def test_file_source_needs_path(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"dataset.source": "csv"})
        cfg = ExperimentConfig({"dataset.source": "csv", "dataset.path": "somewhere"})
        assert cfg["dataset.path"] == "somewhere"

    def test_bad_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"dataset.source": "oracle"})

    def test_size_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"dataset.n_per_class": "0"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"dataset.separation": "-1"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"target.hidden_dims": "64,0"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"attacker.train_fraction": "1.0"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"protocol.fpr_grid_points": "1"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"histogram.bins": "0"})

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("protocol.repeats", "0"),
            ("protocol.ratio_repeats", "0"),
            ("protocol.member_subset_size", "-5"),
        ],
    )
    def test_protocol_counts_checked_up_front(self, key, bad):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig({key: bad})

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_separation_must_be_finite(self, bad):
        with pytest.raises(ConfigError, match="dataset.separation"):
            ExperimentConfig({"dataset.separation": bad})

    def test_attack_validation_surfaces_early(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"attack.epsilon": "-1"})
        with pytest.raises(ConfigError):
            ExperimentConfig({"attack.n_iter": "0"})

    @pytest.mark.parametrize("bad", ["0", "1.0", "1.5", "-0.2"])
    def test_holdout_fraction_strictly_inside_unit_interval(self, bad):
        with pytest.raises(ConfigError, match="protocol.holdout_fraction"):
            ExperimentConfig({"protocol.holdout_fraction": bad})

    def test_protocol_config_clamps_subset(self):
        # an explicit protocol.member_subset_size is capped at the member pool
        cfg = ExperimentConfig({"protocol.member_subset_size": "100"})
        assert cfg.member_subset_size(member_pool=40, nonmember_pool=40) == 40
        assert cfg.member_subset_size(member_pool=100, nonmember_pool=40) == 100

    def test_member_subset_size_rule(self):
        # (protocol.member_subset_size, protocol.ratio, member pool,
        # nonmember pool, members per draw)
        table = [
            ("7", "1:1", 30, 10, 7),  # explicit
            ("100", "1:1", 40, 40, 40),  # explicit, capped at the member pool
            ("0", "1:1", 30, 10, 10),  # derived 1:1
            ("0", "2:1", 30, 10, 20),  # derived 2:1
            ("0", "2:1", 12, 10, 12),  # derived, capped at the member pool
        ]
        for subset, ratio, n_m, n_n, want in table:
            cfg = ExperimentConfig({"protocol.member_subset_size": subset, "protocol.ratio": ratio})
            assert cfg.member_subset_size(n_m, n_n) == want, (subset, ratio, n_m, n_n)
        # derived empty: 1:5 of 2 nonmembers rounds to 0 members
        with pytest.raises(ConfigError, match="derived member subset is empty"):
            ExperimentConfig({"protocol.ratio": "1:5"}).member_subset_size(30, 2)


class TestEcho:
    def test_echo_covers_all_keys_as_strings(self):
        cfg = ExperimentConfig({"attack.p": "inf", "debug.dump_traces": "true"})
        echo = cfg.echo()
        assert echo["attack.p"] == "inf"
        assert echo["debug.dump_traces"] == "true"
        assert set(echo) == set(cfg.values)
        assert all(isinstance(v, str) for v in echo.values())

    def test_echo_round_trips_through_parser(self, tmp_path):
        cfg = ExperimentConfig({"seed": "5", "attack.p": "2", "strategies": "loss"})
        text = "\n".join(f"{k} = {v}" for k, v in cfg.echo().items() if v != "")
        path = write_config(tmp_path, text + "\n")
        again = load_config(path)
        assert again.values == cfg.values


class TestStageSeed:
    def test_matches_sha256_construction(self):
        digest = hashlib.sha256(b"17:target_train").digest()
        want = int.from_bytes(digest[:8], "little") & (2**63 - 1)
        assert stage_seed(17, "target_train") == want

    def test_distinct_stages_distinct_seeds(self):
        seeds = {stage_seed(0, s) for s in ("a", "b", "c", "target_train", "scores")}
        assert len(seeds) == 5

    def test_nonnegative_63_bit(self):
        for master in (0, 1, 2**31, 123456789):
            s = stage_seed(master, "x")
            assert 0 <= s < 2**63
