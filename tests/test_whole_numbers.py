"""The whole-number rule and the one seeded stream.

Group sizes, class counts, epochs, batch sizes, counts and seeds are whole
numbers. Each enters through ``posteriors.parse_int`` (numpy integers pass,
floats, strings and None do not) and every seeded stream through
``posteriors.seeded_rng``, so a bad value fails at the boundary naming the
field, or the flag at the command line, instead of failing inside numpy or
being truncated.
"""

import json
import re

import numpy as np
import pytest

from agglearn import posteriors
from agglearn.cli import main
from agglearn.data import SyntheticSpec, generate_synthetic, sample_groups
from agglearn.models import Classifier, load_checkpoint
from agglearn.posteriors import brute_force_posterior, parse_int, seeded_rng
from agglearn.tasks import TASKS, Task
from agglearn.training import TrainConfig
from agglearn.verify import random_etas, random_z


def run(argv):
    return main([str(a) for a in argv])


def mixture(n=40, seed=0):
    spec = SyntheticSpec(k=2, d=2, means=[[-2.0, 0.0], [2.0, 0.0]], spreads=[1.0, 1.0],
                         prior=[0.5, 0.5], seed=seed)
    return generate_synthetic(spec, n)


class TestRule:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
    def test_integers_pass_as_python_ints(self, value):
        got = parse_int(value, "size", 1)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3", None, [3]])
    def test_non_integers_fail_naming_the_value(self, value):
        with pytest.raises(ValueError, match=r"^size must be an integer, got "):
            parse_int(value, "size")

    def test_minimum(self):
        assert parse_int(-5, "size") == -5
        assert parse_int(0, "size", 0) == 0
        with pytest.raises(ValueError, match=r"^size must be >= 1$"):
            parse_int(0, "size", 1)


class TestSeededStream:
    def test_numpy_integer_seed_gives_the_int_seed_stream(self):
        assert seeded_rng(np.int64(7)).integers(0, 2**62, 4).tolist() == seeded_rng(7).integers(0, 2**62, 4).tolist()

    def test_is_the_philox_stream_of_the_seed_sequence(self):
        expected = np.random.Generator(np.random.Philox(np.random.SeedSequence(11))).random(5)
        assert seeded_rng(11).random(5).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0"), (3.0, "seed must be an integer"),
                                               (1.5, "seed must be an integer"), (None, "seed must be an integer")])
    def test_bad_seed_is_refused(self, seed, message):
        with pytest.raises(ValueError, match=message):
            seeded_rng(seed)

    def test_generate_synthetic_refuses_a_float_seed(self):
        spec = SyntheticSpec(k=2, d=2, means=[[0.0, 0.0], [1.0, 1.0]], spreads=[1.0, 1.0], prior=[0.5, 0.5],
                             seed=3.0)
        with pytest.raises(ValueError, match="seed must be an integer, got 3.0"):
            generate_synthetic(spec, 10)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
        ("warmup_epochs", 1.5, "warmup_epochs must be an integer, got 1.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be >= 0"),
        ("epochs", "3", "epochs must be an integer, got '3'"),
    ])
    def test_refused_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{"epochs": 3, field: value})

    def test_numpy_integers_are_stored_as_ints(self):
        config = TrainConfig(epochs=np.int64(2), warmup_epochs=np.int32(1), batch_size=np.int64(8),
                             seed=np.uint16(4))
        for name in ("epochs", "warmup_epochs", "batch_size", "seed"):
            assert type(getattr(config, name)) is int
        assert json.loads(json.dumps(config.to_json())) == TrainConfig(epochs=2, warmup_epochs=1, batch_size=8,
                                                                       seed=4).to_json()


class TestTask:
    @pytest.mark.parametrize("kind, m, k, message", [
        ("llp", 3.5, 3, "m must be an integer, got 3.5"),
        ("mil", 4, 2.0, "k must be an integer, got 2.0"),
        ("pairwise", 2, 2.5, "k must be an integer, got 2.5"),
        ("pairwise", 2.0, 3, "m must be an integer, got 2.0"),
    ])
    def test_refused_at_construction(self, kind, m, k, message):
        with pytest.raises(ValueError, match=message):
            Task(kind, m, k)

    def test_numpy_sizes_pass(self):
        assert Task("llp", np.int64(3), np.int64(3)).label_values == (1, 2, 3)

    def test_group_size_is_not_truncated(self):
        with pytest.raises(ValueError, match="m must be an integer, got 3.7"):
            Task("llp", 3, 2).consistency_mask((2, 1), m=3.7)

    @pytest.mark.parametrize("kind", list(TASKS))
    def test_check_group_size_returns_an_int(self, kind):
        m = TASKS[kind].m or 4
        got = TASKS[kind].check_group_size(np.int64(m), kind)
        assert got == m and type(got) is int


class TestClassifier:
    @pytest.mark.parametrize("d, k, message", [(2.5, 3, "d must be an integer"), (2, 2.6, "k must be an integer"),
                                               (0, 3, "d must be >= 1"), (2, 0, "k must be >= 1")])
    def test_create_refuses(self, d, k, message):
        with pytest.raises(ValueError, match=message):
            Classifier.create("linear", "softmax", d=d, k=k)

    def test_create_refuses_a_bad_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            Classifier.create("linear", "softmax", d=2, k=3, seed=-1)

    @pytest.mark.parametrize("key, value", [("k", 2.6), ("d", 2.9), ("k", "3")])
    def test_checkpoint_with_a_fractional_size_is_refused(self, tmp_path, key, value):
        path = tmp_path / "model.checkpoint.json"
        Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: {key} must be an integer, got {value!r}")):
            load_checkpoint(path)


class TestSampling:
    @pytest.mark.parametrize("n_groups, message", [(-1, "n_groups must be >= 1"), (0, "n_groups must be >= 1"),
                                                   (2.0, "n_groups must be an integer, got 2.0")])
    def test_group_count_is_refused(self, n_groups, message):
        with pytest.raises(ValueError, match=message):
            sample_groups(mixture(), Task("mil", 3, 2), m=3, n_groups=n_groups, seed=0)

    def test_group_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match="m must be an integer, got 3.0"):
            sample_groups(mixture(), Task("mil", 3, 2), m=3.0, n_groups=2, seed=0)

    def test_numpy_counts_sample_as_ints(self):
        a = sample_groups(mixture(), Task("mil", 3, 2), m=np.int64(3), n_groups=np.int64(4), seed=np.int64(2))
        b = sample_groups(mixture(), Task("mil", 3, 2), m=3, n_groups=4, seed=2)
        assert [o.xs.tobytes() for o in a] == [o.xs.tobytes() for o in b]

    @pytest.mark.parametrize("n, message", [(2.5, "n must be an integer, got 2.5"), (0, "empty dataset")])
    def test_point_count_is_refused(self, n, message):
        with pytest.raises(ValueError, match=message):
            mixture(n=n)


class TestOracleSharesNoKernelHelper:
    @pytest.mark.parametrize("kind", list(TASKS))
    def test_brute_force_runs_without_the_kernel_helpers(self, monkeypatch, kind):
        rng = seeded_rng(3)
        task = Task(kind, TASKS[kind].m or 3, TASKS[kind].k or 3)
        etas, z = random_etas(task, rng), random_z(task, rng)
        expected = brute_force_posterior(task, etas, z)

        def kernel_helper(*args):
            raise AssertionError("the oracle called a kernel helper")

        monkeypatch.setattr(posteriors, "_clamp_probs", kernel_helper)
        monkeypatch.setattr(posteriors, "one_group", kernel_helper)
        got = brute_force_posterior(task, etas, z)
        assert got.pz == expected.pz and got.joint.tobytes() == expected.joint.tobytes()

    def test_joint_is_the_per_instance_sum_of_the_masked_product(self):
        task = Task("triplet", 3, 3)
        etas = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [1e-15, 0.5, 0.5]])
        got = brute_force_posterior(task, etas, 1)
        clipped = np.clip(etas, posteriors.PROB_EPS, 1.0 - posteriors.PROB_EPS)
        joint = np.zeros((3, 3))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    if a == b and a != c:
                        mass = clipped[0, a] * clipped[1, b] * clipped[2, c]
                        joint[0, a] += mass
                        joint[1, b] += mass
                        joint[2, c] += mass
        np.testing.assert_allclose(got.joint, joint, rtol=1e-15, atol=0.0)
        assert got.pz == pytest.approx(joint[0].sum(), rel=1e-15)


class TestCommandLine:
    @pytest.fixture()
    def dataset_csv(self, tmp_path):
        assert run(["synth", "--k", 3, "--d", 2, "--n", 100, "--seed", 7, "--out-dir", tmp_path,
                    "--name", "train"]) == 0
        return tmp_path / "train.csv"

    @pytest.fixture()
    def pairs(self, tmp_path, dataset_csv):
        assert run(["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3, "--n-groups", 20,
                    "--seed", 1, "--out-dir", tmp_path, "--name", "pairs"]) == 0
        return tmp_path / "pairs.jsonl"

    def test_negative_seed_names_the_flag(self, tmp_path, dataset_csv, pairs, capsys):
        capsys.readouterr()
        for argv in (["synth", "--k", 2, "--d", 2, "--n", 5, "--out-dir", tmp_path, "--name", "s"],
                     ["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3, "--n-groups", 4,
                      "--out-dir", tmp_path, "--name", "a"],
                     ["train", "--obs", pairs, "--k", 3, "--arch", "linear", "--epochs", 1,
                      "--out-dir", tmp_path, "--name", "t"],
                     ["verify", "--suite", "oracle"],
                     ["bench", "--repeats", 1]):
            assert run([*argv, "--seed", -1]) == 1, argv[0]
            captured = capsys.readouterr()
            assert "--seed must be >= 0" in captured.err, argv[0]
            assert captured.out == "", argv[0]
        assert {p.name for p in tmp_path.iterdir()} == {"train.csv", "train.csv.meta.json", "pairs.jsonl",
                                                        "pairs.jsonl.meta.json"}

    def test_negative_seed_in_a_config_names_the_flag(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"seed": -3}))
        assert run(["synth", "--config", config, "--k", 2, "--d", 2, "--n", 5, "--out-dir", tmp_path]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["train", "--epochs", "abc"], ["train", "--warmup", "7"],
                                      ["train", "--no-such-flag"], ["verify", "--suite", "nope"], ["nope"], []])
    def test_argparse_errors_exit_with_the_usage_code(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "--epochs" in capsys.readouterr().out
