"""One default rule in the CLI: a static default (``--seed`` 0, ``--label-column`` label,
``--profile`` small, ``--method`` uum) and each default train derives fill only a gap that
both the flag and the config file leave, before the configuration is hashed. A run given no
value therefore hashes like one given the default explicitly, in a flag or a config file.

A given value the run would not use is refused before anything is written: a warm-up
length with the warm-up off, a warm-up with no length, and a --name holding a path
separator (a directory belongs in --out-dir).
"""

import json

import pytest

from agglearn.cli import main


def run(argv):
    return main([str(a) for a in argv])


def contents(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture()
def dataset_csv(tmp_path):
    assert run(["synth", "--k", 3, "--d", 2, "--n", 150, "--seed", 7, "--out-dir", tmp_path, "--name", "train"]) == 0
    return tmp_path / "train.csv"


@pytest.fixture()
def groups(tmp_path, dataset_csv):
    """One observation file per kind: pairwise, llp and mil."""
    paths = {}
    for kind, extra in (("pairwise", ["--k", 3]), ("llp", ["--m", 3, "--k", 3]), ("mil", ["--m", 3])):
        assert run(["aggregate", "--data", dataset_csv, "--task", kind, *extra, "--n-groups", 30, "--seed", 1,
                    "--out-dir", tmp_path, "--name", kind]) == 0
        paths[kind] = tmp_path / f"{kind}.jsonl"
    return paths


@pytest.fixture()
def out(tmp_path):
    path = tmp_path / "out"
    path.mkdir()
    return path


class TestDefaultsAreHashed:
    """Each pair runs into two out-dirs; the files, config_hash included, are byte-identical."""

    def same_files(self, tmp_path, argv, defaults):
        assert run([*argv, "--out-dir", tmp_path / "left_out", "--name", "x"]) == 0
        assert run([*argv, *defaults, "--out-dir", tmp_path / "given", "--name", "x"]) == 0
        left_out, given = contents(tmp_path / "left_out"), contents(tmp_path / "given")
        assert left_out == given
        return left_out

    def test_synth(self, tmp_path):
        files = self.same_files(tmp_path, ["synth", "--k", 3, "--d", 2, "--n", 50], ["--seed", 0])
        assert len(json.loads(files["x.csv.meta.json"])["config_hash"]) == 64

    def test_aggregate(self, tmp_path, dataset_csv):
        self.same_files(tmp_path, ["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3,
                                   "--n-groups", 20], ["--seed", 0, "--label-column", "label"])

    def test_train(self, tmp_path, groups):
        files = self.same_files(tmp_path, ["train", "--obs", groups["pairwise"], "--k", 3, "--epochs", 2],
                                ["--seed", 0, "--profile", "small", "--method", "uum", "--learning-rate", 0.001])
        assert json.loads(files["x.checkpoint.json"])["arch"] == "mlp-300"

    def test_eval(self, tmp_path, dataset_csv, groups):
        assert run(["train", "--obs", groups["pairwise"], "--k", 3, "--epochs", 1, "--out-dir", tmp_path,
                    "--name", "model"]) == 0
        self.same_files(tmp_path, ["eval", "--checkpoint", tmp_path / "model.checkpoint.json", "--data", dataset_csv,
                                   "--task", "pairwise", "--fit-on-test"], ["--label-column", "label"])

    def test_a_config_value_and_a_flag_hash_like_the_default(self, tmp_path, dataset_csv):
        config = tmp_path / "aggregate.json"
        config.write_text(json.dumps({"seed": 0, "label_column": "label"}))
        argv = ["aggregate", "--data", dataset_csv, "--task", "pairwise", "--k", 3, "--n-groups", 20, "--name", "x"]
        for out_dir, extra in (("left_out", []), ("config", ["--config", config]),
                               ("flags", ["--seed", 0, "--label-column", "label"])):
            assert run([*argv, *extra, "--out-dir", tmp_path / out_dir]) == 0
        hashes = {json.loads((tmp_path / d / "x.jsonl.meta.json").read_text())["config_hash"]
                  for d in ("left_out", "config", "flags")}
        assert len(hashes) == 1


class TestUnusedWarmUp:
    @pytest.mark.parametrize("kind, flags", [
        ("pairwise", ["--warmup", 0, "--warmup-epochs", 2]),
        ("llp", ["--warmup", 1]),
        ("mil", ["--warmup", 1]),
    ])
    def test_a_flag_the_run_would_not_use_is_refused(self, groups, out, capsys, kind, flags):
        k = [] if kind == "mil" else ["--k", 3]
        assert run(["train", "--obs", groups[kind], *k, "--epochs", 3, *flags, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert "--warmup " in err and "--warmup-epochs " in err and "unused" in err
        assert not list(out.iterdir())

    def test_a_config_warm_up_length_is_refused_with_the_warm_up_off(self, tmp_path, groups, out, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"warmup_epochs": 3}))
        assert run(["train", "--config", config, "--obs", groups["llp"], "--k", 3, "--epochs", 3,
                    "--out-dir", out]) == 1
        assert "--warmup 0 with --warmup-epochs 3 leaves a given value unused" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("flags", [["--warmup", 0], ["--warmup-epochs", 0]])
    def test_switching_the_warm_up_off_one_way_still_runs(self, groups, out, flags):
        assert run(["train", "--obs", groups["pairwise"], "--k", 3, "--epochs", 2, *flags,
                    "--out-dir", out, "--name", "x"]) == 0
        assert (out / "x.checkpoint.json").exists()


class TestNameWithADirectory:
    @pytest.mark.parametrize("name", ["sub/x", "../x", "/abs/x"])
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_a_name_with_a_path_separator_is_refused(self, tmp_path, groups, out, capsys, command, name):
        name = str(tmp_path / "abs" / "x") if name == "/abs/x" else name
        before = sorted(tmp_path.iterdir())
        argv = (["synth", "--k", 3, "--d", 2, "--n", 20] if command == "synth"
                else ["train", "--obs", groups["pairwise"], "--k", 3, "--epochs", 1])
        assert run([*argv, "--name", name, "--out-dir", out]) == 1
        assert f"--name {name!r} holds a path separator" in capsys.readouterr().err
        assert not list(out.iterdir())
        assert sorted(tmp_path.iterdir()) == before

    def test_a_config_name_is_refused_the_same_way(self, tmp_path, out, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"name": "../x"}))
        assert run(["synth", "--config", config, "--k", 3, "--d", 2, "--n", 20, "--out-dir", out]) == 1
        assert "--name '../x' holds a path separator" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "synth.json"]
        assert not list(out.iterdir())

    def test_the_name_is_refused_before_any_input_is_read(self, tmp_path, out, capsys):
        assert run(["train", "--obs", tmp_path / "missing.jsonl", "--k", 3, "--name", "sub/x", "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert "holds a path separator" in err and "missing.jsonl" not in err
