import json

import numpy as np
import pytest

from agglearn.cli import main
from agglearn.models import Classifier


def run(argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture()
def dataset_csv(tmp_path):
    assert run(["synth", "--k", 3, "--d", 2, "--n", 200, "--seed", 7,
                "--out-dir", tmp_path, "--name", "train"]) == 0
    return tmp_path / "train.csv"


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        for name in ("a", "b"):
            assert run(["synth", "--k", 2, "--d", 3, "--n", 50, "--seed", 5,
                        "--out-dir", tmp_path, "--name", name]) == 0
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_labels_stay_in_range(self, dataset_csv):
        labels = {line.rsplit(",", 1)[1] for line in dataset_csv.read_text().splitlines()[1:]}
        assert labels == {"1", "2", "3"}

    def test_empty_request_is_usage_error(self, tmp_path, capsys):
        assert run(["synth", "--k", 2, "--d", 2, "--n", 0, "--out-dir", tmp_path]) == 1
        assert "empty dataset" in capsys.readouterr().err

    def test_metadata_carries_config_hash(self, dataset_csv):
        meta = json.loads((dataset_csv.parent / "train.csv.meta.json").read_text())
        assert len(meta["config_hash"]) == 64

    @pytest.mark.parametrize("key", ["k", "d"])
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_zero_classes_or_features_is_a_usage_error(self, tmp_path, capsys, key, value, via_config):
        options = {"k": 2, "d": 2, "n": 5, key: value}
        argv = ["synth", "--out-dir", tmp_path]
        if via_config:
            config = tmp_path / "synth.json"
            config.write_text(json.dumps({key: value}))
            argv += ["--config", config]
            options.pop(key)
        for name, given in options.items():
            argv += ["--" + name, given]
        assert run(argv) == 1
        assert f"--{key} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()


class TestPipeline:
    def test_full_round(self, tmp_path, dataset_csv):
        assert run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
                    "--n-groups", 150, "--seed", 1, "--out-dir", tmp_path, "--name", "pairs"]) == 0
        obs_path = tmp_path / "pairs.jsonl"
        assert obs_path.exists()

        assert run(["train", "--obs", obs_path, "--k", 3, "--epochs", 3,
                    "--warmup", 1, "--warmup-epochs", 1, "--batch-size", 32,
                    "--seed", 2, "--out-dir", tmp_path, "--name", "run"]) == 0
        ckpt = tmp_path / "run.checkpoint.json"
        metrics = read_jsonl(tmp_path / "run.metrics.jsonl")
        assert len(metrics) == 3
        assert {"epoch", "train_loss", "val_metric", "likelihood"} <= set(metrics[0])
        assert json.loads(ckpt.read_text())["config_hash"]

        assert run(["eval", "--checkpoint", ckpt, "--data", dataset_csv, "--task", "pairwise",
                    "--fit-on-test", "--out-dir", tmp_path, "--name", "report"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= report["modified_accuracy"] <= 1.0
        assert len(report["permutation"]) == 3
        assert report["config_hash"]

    def test_eval_requires_a_matching_split_choice(self, tmp_path, dataset_csv):
        run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
             "--n-groups", 60, "--seed", 1, "--out-dir", tmp_path, "--name", "p"])
        run(["train", "--obs", tmp_path / "p.jsonl", "--k", 3, "--epochs", 1,
             "--out-dir", tmp_path, "--name", "m"])
        code = run(["eval", "--checkpoint", tmp_path / "m.checkpoint.json",
                    "--data", dataset_csv, "--task", "pairwise", "--out-dir", tmp_path])
        assert code == 1  # neither --fit-data nor --fit-on-test

    def test_missing_observation_file(self, tmp_path, capsys):
        code = run(["train", "--obs", tmp_path / "missing.jsonl", "--k", 2, "--out-dir", tmp_path])
        assert code == 1
        assert "missing.jsonl" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, dataset_csv):
        config = tmp_path / "agg.json"
        config.write_text(json.dumps({"task": "llp", "m": 3, "k": 3, "n_groups": 40, "seed": 3,
                                      "data": str(dataset_csv)}))
        assert run(["aggregate", "--config", config, "--n-groups", 25,
                    "--out-dir", tmp_path, "--name", "llp"]) == 0
        assert len(read_jsonl(tmp_path / "llp.jsonl")) == 25  # flag wins over config

    def test_loglik_method_equals_full_warmup(self, tmp_path, dataset_csv):
        run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
             "--n-groups", 80, "--seed", 4, "--out-dir", tmp_path, "--name", "g"])
        common = ["--obs", tmp_path / "g.jsonl", "--k", 3, "--epochs", 3,
                  "--batch-size", 32, "--seed", 6, "--out-dir", tmp_path]
        assert run(["train", *common, "--method", "loglik", "--name", "base"]) == 0
        assert run(["train", *common, "--method", "uum", "--warmup", 1,
                    "--warmup-epochs", 3, "--name", "warm"]) == 0
        base = (tmp_path / "base.metrics.jsonl").read_text()
        warm = (tmp_path / "warm.metrics.jsonl").read_text()
        assert base == warm

    def test_frozen_permutation_survives_scrambled_label_order(self, tmp_path, dataset_csv):
        # eval splits whose first-appearance label order differs from the
        # training file must still score correctly via the persisted names
        run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
             "--n-groups", 1200, "--seed", 16, "--out-dir", tmp_path, "--name", "pg"])
        run(["train", "--obs", tmp_path / "pg.jsonl", "--k", 3, "--epochs", 25,
             "--warmup", 1, "--warmup-epochs", 8, "--batch-size", 64,
             "--seed", 17, "--out-dir", tmp_path, "--name", "pm"])
        # same distribution, rows sorted so first-appearance order flips
        import agglearn.data as dmod
        base = dmod.load_csv(dataset_csv)
        for name, order in (("val2", np.argsort(-base.labels, kind="stable")),
                            ("test2", np.argsort(base.labels, kind="stable"))):
            dmod.save_csv(base.subset(order), tmp_path / f"{name}.csv")
        assert run(["eval", "--checkpoint", tmp_path / "pm.checkpoint.json",
                    "--data", tmp_path / "test2.csv", "--fit-data", tmp_path / "val2.csv",
                    "--task", "pairwise", "--out-dir", tmp_path, "--name", "rep2"]) == 0
        report = json.loads((tmp_path / "rep2.json").read_text())
        # val and test are the same points here, so the frozen matching is optimal
        assert report["modified_accuracy"] > 0.9

    def test_mil_pipeline_reports_group_accuracy(self, tmp_path):
        run(["synth", "--k", 2, "--d", 2, "--n", 150, "--seed", 9,
             "--out-dir", tmp_path, "--name", "bin"])
        run(["aggregate", "--data", tmp_path / "bin.csv", "--task", "mil", "--m", 3,
             "--n-groups", 100, "--seed", 10, "--out-dir", tmp_path, "--name", "bags"])
        run(["train", "--obs", tmp_path / "bags.jsonl", "--epochs", 2,
             "--seed", 11, "--out-dir", tmp_path, "--name", "milrun"])
        assert run(["eval", "--checkpoint", tmp_path / "milrun.checkpoint.json",
                    "--data", tmp_path / "bin.csv", "--task", "mil", "--m", 3,
                    "--obs", tmp_path / "bags.jsonl",
                    "--out-dir", tmp_path, "--name", "milreport"]) == 0
        report = json.loads((tmp_path / "milreport.json").read_text())
        assert "group_accuracy" in report and "accuracy" in report


class TestNonPositiveOptions:
    """A flag set to 0 or below is rejected, never swapped for its default."""

    @pytest.fixture()
    def pairs(self, tmp_path, dataset_csv):
        assert run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
                    "--n-groups", 20, "--seed", 1, "--out-dir", tmp_path, "--name", "pairs"]) == 0
        return tmp_path / "pairs.jsonl"

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", 0], "epochs must be >= 1"),
        (["--epochs", 1, "--batch-size", 0], "batch_size must be >= 1"),
        (["--epochs", 1, "--learning-rate", -1], "learning_rate must be a positive finite number"),
    ])
    def test_train_rejects(self, tmp_path, pairs, capsys, flags, message):
        assert run(["train", "--obs", pairs, "--k", 3, "--arch", "linear", *flags,
                    "--out-dir", tmp_path, "--name", "run"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run.checkpoint.json").exists()

    def test_aggregate_rejects_zero_groups(self, tmp_path, dataset_csv, capsys):
        assert run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
                    "--n-groups", 0, "--out-dir", tmp_path, "--name", "none"]) == 1
        assert "--n-groups must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "none.jsonl").exists()

    def test_bench_rejects_zero_repeats(self, capsys):
        assert run(["bench", "--repeats", 0]) == 1
        captured = capsys.readouterr()
        assert "--repeats must be >= 1" in captured.err
        assert captured.out == ""


class TestCheckpointValidation:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = tmp_path / "model.checkpoint.json"
        Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(path)
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["layers"][0].update(bias=[0.0]), "do not fit"),
        (lambda doc: doc.update(k=4), "do not fit"),
        (lambda doc: doc.pop("layers"), "lacks the key 'layers'"),
    ])
    def test_eval_rejects_a_malformed_checkpoint(self, tmp_path, dataset_csv, checkpoint, capsys,
                                                 edit, message):
        doc = json.loads(checkpoint.read_text())
        edit(doc)
        checkpoint.write_text(json.dumps(doc))
        assert run(["eval", "--checkpoint", checkpoint, "--data", dataset_csv, "--task", "pairwise",
                    "--fit-on-test", "--out-dir", tmp_path, "--name", "report"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestRefusedInputNamesItsFile:
    """Input that does not fit is a usage error that starts with the file's path."""

    PAIRS = '{"xs": [[0.1, 1.2], [-0.4, 0.3]], "z": 1, "task": "pairwise"}\n'

    def refused(self, argv, path, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_observation_file_that_is_not_utf8(self, tmp_path, capsys):
        obs = tmp_path / "bad.jsonl"
        obs.write_bytes(self.PAIRS.encode() + b"\xff\n")
        self.refused(["train", "--obs", obs, "--k", 3, "--out-dir", tmp_path], obs, capsys)

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b'{"k": 2}\xff')
        self.refused(["synth", "--config", config, "--d", 2, "--n", 5, "--out-dir", tmp_path], config, capsys)

    def test_observation_meta_that_is_not_utf8(self, tmp_path, capsys):
        obs = tmp_path / "pairs.jsonl"
        obs.write_text(self.PAIRS * 4)
        meta = tmp_path / "pairs.jsonl.meta.json"
        meta.write_bytes(b'{"label_names": ["\xff"]}')
        self.refused(["train", "--obs", obs, "--k", 3, "--epochs", 1, "--out-dir", tmp_path], meta, capsys)

    @pytest.fixture()
    def checkpoint(self, tmp_path):
        path = tmp_path / "model.checkpoint.json"
        Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(path, extra={"label_names": ["1", "2", "3"]})
        return path

    @pytest.mark.parametrize("flag", ["--data", "--fit-data"])
    def test_csv_of_another_width(self, tmp_path, dataset_csv, checkpoint, capsys, flag):
        wide = tmp_path / "wide.csv"
        wide.write_text("x0,x1,x2,label\n0.1,0.2,0.3,1\n")
        argv = ["eval", "--checkpoint", checkpoint, "--data", dataset_csv, "--fit-data", dataset_csv,
                "--task", "pairwise", "--out-dir", tmp_path]
        argv[argv.index(flag) + 1] = wide
        self.refused(argv, wide, capsys)

    def test_label_missing_from_the_checkpoint(self, tmp_path, checkpoint, capsys):
        zebra = tmp_path / "zebra.csv"
        zebra.write_text("x0,x1,label\n0.1,0.2,1\n0.3,0.4,zebra\n")
        self.refused(["eval", "--checkpoint", checkpoint, "--data", zebra, "--task", "pairwise",
                      "--fit-on-test", "--out-dir", tmp_path], zebra, capsys)

    def test_observations_that_are_not_bags(self, tmp_path, capsys):
        checkpoint = tmp_path / "bags.checkpoint.json"
        Classifier.create("linear", "sigmoid", d=2, k=2, seed=0).save(checkpoint)
        data = tmp_path / "bin.csv"
        data.write_text("x0,x1,label\n0.1,0.2,1\n0.3,0.4,2\n")
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(self.PAIRS)
        self.refused(["eval", "--checkpoint", checkpoint, "--data", data, "--task", "mil", "--m", 3,
                      "--obs", pairs, "--out-dir", tmp_path], pairs, capsys)

    def test_observations_of_another_kind(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(self.PAIRS * 4)
        self.refused(["train", "--obs", pairs, "--task", "rank", "--k", 3, "--out-dir", tmp_path], pairs, capsys)
        assert not list(tmp_path.glob("*.checkpoint.json"))


class TestErrorPaths:
    """Each refusal exits with its code and says why."""

    PAIRS = TestRefusedInputNamesItsFile.PAIRS

    def fails(self, argv, code, message, capsys):
        assert run(argv) == code
        assert message in capsys.readouterr().err

    def test_every_group_degenerate_aborts_the_run(self, tmp_path, capsys):
        bags = tmp_path / "bags.jsonl"  # p(z=0) of 1,100 instances at 0.5 each underflows to 0
        bags.write_text((json.dumps({"xs": [[0.0, 0.0]] * 1100, "z": 0, "task": "mil"}) + "\n") * 4)
        self.fails(["train", "--obs", bags, "--epochs", 1, "--out-dir", tmp_path], 2,
                   "aborted: epoch 1: every group was degenerate", capsys)

    def test_unknown_task_kind(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(self.PAIRS * 4)
        self.fails(["train", "--obs", pairs, "--task", "bogus", "--k", 3, "--out-dir", tmp_path], 1,
                   "unknown task kind 'bogus'", capsys)

    def test_train_without_observations(self, tmp_path, capsys):
        self.fails(["train", "--k", 3, "--out-dir", tmp_path], 1, "missing required option --obs", capsys)

    def test_aggregate_llp_without_k(self, tmp_path, dataset_csv, capsys):
        self.fails(["aggregate", "--data", dataset_csv, "--task", "llp", "--m", 4, "--n-groups", 5,
                    "--out-dir", tmp_path], 1, "missing required option --k", capsys)

    def test_eval_llp_without_m(self, tmp_path, dataset_csv, capsys):
        checkpoint = tmp_path / "model.checkpoint.json"
        Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(checkpoint)
        self.fails(["eval", "--checkpoint", checkpoint, "--data", dataset_csv, "--task", "llp",
                    "--out-dir", tmp_path], 1, "task 'llp' needs an explicit --m", capsys)

    def test_eval_checkpoint_head_that_does_not_fit_the_task(self, tmp_path, dataset_csv, capsys):
        checkpoint = tmp_path / "bags.checkpoint.json"
        Classifier.create("linear", "sigmoid", d=2, k=2, seed=0).save(checkpoint)
        self.fails(["eval", "--checkpoint", checkpoint, "--data", dataset_csv, "--task", "pairwise",
                    "--fit-on-test", "--out-dir", tmp_path], 1,
                   "checkpoint head 'sigmoid' does not fit task 'pairwise'", capsys)


class TestVerifyAndBench:
    def test_verify_grad_suite(self, capsys):
        assert run(["verify", "--suite", "grad", "--seed", 1]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"] is True
        assert all(c["max_deviation"] < c["tolerance"] for c in summary["checks"])

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        import agglearn.cli as cli

        monkeypatch.setattr(cli, "run_suite", lambda name, seed=0: {"suite": name, "checks": [], "passed": False})
        assert run(["verify", "--suite", "oracle"]) == 3

    def test_unknown_suite_is_a_usage_error(self):
        from agglearn.verify import run_suite

        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("spectral")

    def test_bench_smoke(self, capsys):
        assert run(["bench", "--repeats", 1, "--seed", 0]) == 0
        rows = json.loads(capsys.readouterr().out)["bench"]
        assert {r["task"] for r in rows} == {"pairwise", "triplet", "llp", "mil", "rank", "ordinal_triplet"}


class TestEnvironmentAndBudget:
    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AGGLEARN_OUT_DIR", str(tmp_path / "envout"))
        assert run(["synth", "--k", 2, "--d", 2, "--n", 10, "--name", "viaenv"]) == 0
        assert (tmp_path / "envout" / "viaenv.csv").exists()

    def test_small_train_run_fits_the_time_budget(self, tmp_path, dataset_csv):
        import time

        run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
             "--n-groups", 300, "--seed", 14, "--out-dir", tmp_path, "--name", "smoke"])
        t0 = time.perf_counter()
        assert run(["train", "--obs", tmp_path / "smoke.jsonl", "--k", 3, "--epochs", 10,
                    "--warmup", 1, "--warmup-epochs", 3, "--seed", 15,
                    "--out-dir", tmp_path, "--name", "smokerun"]) == 0
        assert time.perf_counter() - t0 < 30.0


class TestConfigFile:
    """Config keys are the flag names with underscores, typed and checked like the flags."""

    @pytest.fixture()
    def pairs(self, tmp_path, dataset_csv):
        assert run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
                    "--n-groups", 40, "--seed", 1, "--out-dir", tmp_path, "--name", "pairs"]) == 0
        return tmp_path / "pairs.jsonl"

    def train(self, tmp_path, pairs, doc, out=None):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        return config, run(["train", "--config", config, "--obs", pairs, "--k", 3, "--arch", "linear",
                            "--epochs", 2, "--seed", 3, "--out-dir", out or tmp_path, "--name", "run"])

    @pytest.mark.parametrize("doc, key", [
        ({"epoch": 1}, "epoch"),
        ({"out_dir": "elsewhere"}, "out_dir"),
        ({"confidence_cache": "false"}, "confidence_cache"),
        ({"epochs": "abc"}, "epochs"),
        ({"epochs": 2.5}, "epochs"),
        ({"arch": "cnn"}, "arch"),
    ])
    def test_bad_key_or_value_is_a_usage_error(self, tmp_path, pairs, capsys, doc, key):
        config, code = self.train(tmp_path, pairs, doc)
        assert code == 1
        err = capsys.readouterr().err
        assert str(config) in err and repr(key) in err
        assert not (tmp_path / "run.checkpoint.json").exists()

    def test_string_values_are_read_like_flags(self, tmp_path, pairs):
        _, code = self.train(tmp_path, pairs, {"warmup": "0", "batch_size": "16"}, out=tmp_path / "config")
        assert code == 0
        assert run(["train", "--obs", pairs, "--k", 3, "--arch", "linear", "--epochs", 2,
                    "--warmup", 0, "--batch-size", 16, "--seed", 3,
                    "--out-dir", tmp_path / "flags", "--name", "run"]) == 0
        for name in ("run.metrics.jsonl", "run.metrics.jsonl.meta.json"):  # the meta file holds the config hash
            assert (tmp_path / "config" / name).read_text() == (tmp_path / "flags" / name).read_text()

    def test_switch_takes_booleans(self, tmp_path, dataset_csv, capsys):
        checkpoint = tmp_path / "model.checkpoint.json"
        Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(checkpoint)
        config = tmp_path / "eval.json"
        for value, code in ((True, 0), (False, 1), ("yes", 1)):
            config.write_text(json.dumps({"fit_on_test": value}))
            assert run(["eval", "--config", config, "--checkpoint", checkpoint, "--data", dataset_csv,
                        "--task", "pairwise", "--out-dir", tmp_path, "--name", "report"]) == code
        assert "'fit_on_test'" in capsys.readouterr().err

    def test_config_that_is_not_json_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{bad")
        assert run(["synth", "--config", config, "--k", 2, "--d", 2, "--n", 5, "--out-dir", tmp_path]) == 1
        assert str(config) in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"prior": 5}, "prior"),
        ({"spreads": [1]}, "spreads"),
        ({"means": [[1, 2], [3]]}, "means"),
        ({"means": [[1, 2], ["a", 4]]}, "means"),
    ])
    def test_synth_array_of_the_wrong_shape_names_the_key(self, tmp_path, capsys, doc, key):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(doc))
        assert run(["synth", "--config", config, "--k", 2, "--d", 2, "--n", 5, "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and repr(key) in err
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("flag", ["--warmup", "--confidence-cache"])
    @pytest.mark.parametrize("value", [7, -1])
    def test_switch_flag_takes_only_0_or_1(self, tmp_path, pairs, capsys, flag, value):
        with pytest.raises(SystemExit):
            run(["train", "--obs", pairs, "--k", 3, "--arch", "linear", "--epochs", 2,
                 flag, value, "--out-dir", tmp_path, "--name", "run"])
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "run.checkpoint.json").exists()

    @pytest.mark.parametrize("key", ["warmup", "confidence_cache"])
    @pytest.mark.parametrize("value", [7, -1, "2"])
    def test_switch_config_key_takes_only_0_or_1(self, tmp_path, pairs, capsys, key, value):
        config, code = self.train(tmp_path, pairs, {key: value})
        assert code == 1
        err = capsys.readouterr().err
        assert str(config) in err and repr(key) in err
        assert not (tmp_path / "run.checkpoint.json").exists()

    def test_0_1_config_keys_read_booleans_as_1_and_0(self, tmp_path, pairs):
        for name, doc in (("bools", {"warmup": True, "confidence_cache": False}),
                          ("ints", {"warmup": 1, "confidence_cache": 0})):
            _, code = self.train(tmp_path, pairs, doc, out=tmp_path / name)
            assert code == 0
        for name in ("run.metrics.jsonl", "run.metrics.jsonl.meta.json"):  # the meta file holds the config hash
            assert (tmp_path / "bools" / name).read_text() == (tmp_path / "ints" / name).read_text()

    @pytest.mark.parametrize("doc, key", [
        ({"warmup": 2.5}, "warmup"),
        ({"warmup": "false"}, "warmup"),
        ({"confidence_cache": "true"}, "confidence_cache"),
        ({"epochs": True}, "epochs"),
        ({"batch_size": False}, "batch_size"),
    ])
    def test_booleans_stay_refused_elsewhere(self, tmp_path, pairs, capsys, doc, key):
        config, code = self.train(tmp_path, pairs, doc)
        assert code == 1
        err = capsys.readouterr().err
        assert str(config) in err and repr(key) in err
        assert not (tmp_path / "run.checkpoint.json").exists()


class TestTrainInputs:
    @pytest.fixture()
    def mixed_llp(self, tmp_path):
        """Label-proportion bags of 2, 3 and 5 instances over 2 classes."""
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"xs": [[0.1, 1.2], [-0.4, 0.3]], "z": [1, 1], "task": "llp"}\n'
            '{"xs": [[1.5, -0.2], [0.0, 0.7], [-1.1, 0.4]], "z": [2, 1], "task": "llp"}\n'
            '{"xs": [[0.3, 0.3], [-0.9, 1.0], [1.2, -1.4], [0.6, 0.1], [-0.2, -0.8]], "z": [3, 2], "task": "llp"}\n'
            '{"xs": [[-1.3, 0.2], [0.8, 0.9]], "z": [0, 2], "task": "llp"}\n'
            '{"xs": [[0.4, -0.6], [1.1, 1.3], [-0.7, -0.1]], "z": [1, 2], "task": "llp"}\n'
            '{"xs": [[0.9, 0.0], [-0.5, 0.5], [0.2, -1.0], [1.4, 0.6], [-1.2, 1.1]], "z": [2, 3], "task": "llp"}\n'
        )
        return path

    def test_mixed_group_sizes_train_with_default_flags(self, tmp_path, mixed_llp):
        assert run(["train", "--obs", mixed_llp, "--k", 2, "--out-dir", tmp_path, "--name", "run"]) == 0
        assert len(read_jsonl(tmp_path / "run.metrics.jsonl")) == 200

    @pytest.mark.parametrize("meta", [
        "[1, 2]",
        "{not json",
        '{"label_names": 5}',
        '{"label_names": ["a", 2]}',
    ])
    def test_bad_observation_meta_is_refused_before_training(self, tmp_path, mixed_llp, capsys, meta):
        meta_path = tmp_path / "mixed.jsonl.meta.json"
        meta_path.write_text(meta)
        assert run(["train", "--obs", mixed_llp, "--k", 2, "--epochs", 1,
                    "--out-dir", tmp_path / "out", "--name", "run"]) == 1
        assert str(meta_path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
