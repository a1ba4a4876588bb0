"""One warm-up form: ``TrainConfig`` stores a run without a warm-up as ``warmup=False,
warmup_epochs=0``, whichever way it was written, and its switches as bools. Runs that
train alike therefore compare equal, serialize alike and, through the CLI, write
byte-identical files, ``config_hash`` included.
"""

import numpy as np
import pytest

import harness
from agglearn.cli import main
from agglearn.data import sample_groups
from agglearn.models import Classifier
from agglearn.tasks import Task
from agglearn.training import TrainConfig, train

# three ways to write a run with no warm-up: a switch on with no length, both off, a length with the switch off
NO_WARM_UP = [(True, 0), (False, 0), (False, 2)]


def run(argv):
    return main([str(a) for a in argv])


def contents(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestTrainConfig:
    def test_every_way_to_write_no_warm_up_is_one_config(self):
        configs = [TrainConfig(epochs=3, warmup=warmup, warmup_epochs=length) for warmup, length in NO_WARM_UP]
        assert configs[0] == configs[1] == configs[2]
        assert configs[0].to_json() == configs[1].to_json() == configs[2].to_json()
        assert (configs[0].warmup, configs[0].warmup_epochs) == (False, 0)

    def test_a_warm_up_is_kept_as_given(self):
        config = TrainConfig(epochs=3, warmup=True, warmup_epochs=2)
        assert (config.warmup, config.warmup_epochs) == (True, 2)

    @pytest.mark.parametrize("on, off", [(1, 0), (np.True_, np.False_)])
    def test_the_switches_are_stored_as_bools(self, on, off):
        for warmup, cache in ((on, off), (off, on)):
            config = TrainConfig(epochs=3, warmup=warmup, warmup_epochs=2, confidence_cache=cache)
            assert type(config.warmup) is bool and type(config.confidence_cache) is bool
            assert (config.warmup, config.confidence_cache) == (bool(warmup), bool(cache))
        assert TrainConfig(epochs=3, warmup=on, warmup_epochs=2).to_json() == \
            TrainConfig(epochs=3, warmup=True, warmup_epochs=2).to_json()

    def test_the_range_check_still_reads_the_given_length(self):
        with pytest.raises(ValueError, match=r"warmup_epochs must lie in \[0, epochs\]"):
            TrainConfig(epochs=2, warmup=False, warmup_epochs=5)


def test_train_runs_every_form_bit_for_bit_alike():
    ds = harness.mixture_3class(120, seed=7)
    task = Task("pairwise", 2, 3)
    obs = sample_groups(ds, task, m=2, n_groups=60, seed=8)
    runs = []
    for warmup, length in NO_WARM_UP:
        model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=4)
        result = train(obs, task, model, TrainConfig(epochs=3, warmup=warmup, warmup_epochs=length,
                                                     batch_size=16, seed=5))
        runs.append(([r.to_json() for r in result.metrics], result.best_epoch, model.copy_parameters()))
    for records, best_epoch, params in runs[1:]:
        assert records == runs[0][0] and best_epoch == runs[0][1]
        assert all(np.array_equal(a, b) for a, b in zip(params, runs[0][2]))


class TestCli:
    @pytest.fixture()
    def pairs(self, tmp_path):
        assert run(["synth", "--k", 3, "--d", 2, "--n", 120, "--seed", 7, "--out-dir", tmp_path,
                    "--name", "train"]) == 0
        assert run(["aggregate", "--data", tmp_path / "train.csv", "--task", "pairwise", "--k", 3,
                    "--n-groups", 30, "--seed", 1, "--out-dir", tmp_path, "--name", "pairs"]) == 0
        return tmp_path / "pairs.jsonl"

    def test_switching_the_warm_up_off_either_way_writes_the_same_files(self, tmp_path, pairs):
        for out, flag in (("w0", "--warmup"), ("w1", "--warmup-epochs")):
            assert run(["train", "--obs", pairs, "--k", 3, "--epochs", 2, flag, 0, "--name", "w",
                        "--out-dir", tmp_path / out]) == 0
        files = contents(tmp_path / "w0")
        assert sorted(files) == ["w.checkpoint.json", "w.metrics.jsonl", "w.metrics.jsonl.meta.json"]
        assert files == contents(tmp_path / "w1")

    def test_loglik_refuses_a_warm_up_flag_before_reading_the_observations(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["train", "--obs", tmp_path / "missing.jsonl", "--k", 3, "--method", "loglik", "--warmup", 0,
                    "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert "--method loglik warms up for every epoch" in err and "missing.jsonl" not in err
        assert not out.exists()
