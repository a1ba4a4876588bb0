"""One precedence rule in the CLI: a flag beats the config file, a given value beats a
default, and a default only fills a gap. A given value reaches the library's own check
or is refused with a usage error naming the flag; it is never dropped or replaced.

Each refusal exits 1 and leaves no output file behind.
"""

import json

import pytest

import agglearn.cli as cli
from agglearn.cli import main
from agglearn.models import Classifier


def run(argv):
    return main([str(a) for a in argv])


def refused(argv, message, capsys, out_dir):
    assert run([*argv, "--out-dir", out_dir]) == 1
    assert message in capsys.readouterr().err
    assert not list(out_dir.iterdir())


@pytest.fixture()
def dataset_csv(tmp_path):
    assert run(["synth", "--k", 3, "--d", 2, "--n", 120, "--seed", 7, "--out-dir", tmp_path, "--name", "train"]) == 0
    return tmp_path / "train.csv"


@pytest.fixture()
def out(tmp_path):
    path = tmp_path / "out"
    path.mkdir()
    return path


@pytest.fixture()
def pairs(tmp_path, dataset_csv):
    assert run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3, "--n-groups", 30,
                "--seed", 1, "--out-dir", tmp_path, "--name", "pairs"]) == 0
    return tmp_path / "pairs.jsonl"


class TestGivenValuesReachTheLibrary:
    def test_aggregate_refuses_a_k_the_kind_fixes(self, dataset_csv, out, capsys):
        refused(["aggregate", "--data", dataset_csv, "--task", "mil", "--m", 4, "--k", 3, "--n-groups", 5],
                "task 'mil' requires k=2, got k=3", capsys, out)

    def test_train_refuses_a_k_the_kind_fixes(self, tmp_path, dataset_csv, out, capsys):
        assert run(["aggregate", "--data", dataset_csv, "--task", "mil", "--m", 4, "--n-groups", 5,
                    "--out-dir", tmp_path, "--name", "bags"]) == 0
        refused(["train", "--obs", tmp_path / "bags.jsonl", "--k", 3, "--epochs", 1],
                "task 'mil' requires k=2, got k=3", capsys, out)

    @pytest.mark.parametrize("kind", ["pairwise", "llp"])
    def test_positive_label_is_refused_for_a_kind_without_bags(self, dataset_csv, out, capsys, kind):
        refused(["aggregate", "--data", dataset_csv, "--task", kind, "--m", 2, "--k", 3, "--n-groups", 5,
                 "--positive-label", 2], "--positive-label", capsys, out)

    def test_eval_refuses_positive_label_for_a_kind_without_bags(self, tmp_path, dataset_csv, out, capsys):
        checkpoint = tmp_path / "model.checkpoint.json"
        Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(checkpoint)
        refused(["eval", "--checkpoint", checkpoint, "--data", dataset_csv, "--task", "pairwise",
                 "--fit-on-test", "--positive-label", 2], "--positive-label", capsys, out)


class TestWarmUp:
    @pytest.mark.parametrize("flag, value", [("--warmup", 0), ("--warmup", 1), ("--warmup-epochs", 0)])
    def test_loglik_refuses_a_given_warm_up(self, pairs, out, capsys, flag, value):
        refused(["train", "--obs", pairs, "--k", 3, "--epochs", 2, "--method", "loglik", flag, value],
                flag, capsys, out)

    def test_loglik_refuses_a_warm_up_from_the_config_file(self, tmp_path, pairs, out, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"method": "loglik", "warmup_epochs": 1}))
        refused(["train", "--config", config, "--obs", pairs, "--k", 3, "--epochs", 2], "--warmup-epochs", capsys, out)

    def test_a_given_warm_up_longer_than_the_run_is_refused(self, pairs, out, capsys):
        refused(["train", "--obs", pairs, "--k", 3, "--epochs", 2, "--warmup-epochs", 5],
                "warmup_epochs must lie in [0, epochs]", capsys, out)


class TestEvalFitFlags:
    @pytest.fixture()
    def pairwise_checkpoint(self, tmp_path):
        path = tmp_path / "pairs.checkpoint.json"
        Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(path)
        return path

    @pytest.fixture()
    def bag_checkpoint(self, tmp_path):
        path = tmp_path / "bags.checkpoint.json"
        Classifier.create("linear", "sigmoid", d=2, k=2, seed=0).save(path)
        return path

    def test_a_matched_kind_refuses_both_fit_flags(self, dataset_csv, pairwise_checkpoint, out, capsys):
        refused(["eval", "--checkpoint", pairwise_checkpoint, "--data", dataset_csv, "--task", "pairwise",
                 "--fit-data", dataset_csv, "--fit-on-test"],
                "takes one fit flag (--fit-data or --fit-on-test), got ['--fit-data', '--fit-on-test']", capsys, out)

    @pytest.mark.parametrize("flags", [["--fit-data", "missing.csv"], ["--fit-on-test"]])
    def test_an_identity_kind_refuses_a_fit_flag_before_reading_it(self, tmp_path, dataset_csv, bag_checkpoint,
                                                                    out, capsys, flags):
        flags = [tmp_path / flag if flag.endswith(".csv") else flag for flag in flags]
        refused(["eval", "--checkpoint", bag_checkpoint, "--data", dataset_csv, "--task", "mil", "--m", 3, *flags],
                "task 'mil' (symmetry group 'identity') takes no fit flag (--fit-data or --fit-on-test), "
                f"got ['{flags[0]}']", capsys, out)

    def test_every_kind_scores_through_fit_matching(self, monkeypatch, dataset_csv, bag_checkpoint, out):
        groups, fit_matching = [], cli.fit_matching
        monkeypatch.setattr(cli, "fit_matching", lambda *args: groups.append(args[-1]) or fit_matching(*args))
        assert run(["eval", "--checkpoint", bag_checkpoint, "--data", dataset_csv, "--task", "mil", "--m", 3,
                    "--out-dir", out, "--name", "report"]) == 0
        assert groups == ["identity"]
        assert json.loads((out / "report.json").read_text())["permutation"] == [0, 1]
