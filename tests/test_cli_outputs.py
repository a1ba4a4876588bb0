"""One output rule in the CLI: each command writes to one path stem, --name (else the
command's default name) in --out-dir, else $AGGLEARN_OUT_DIR, else the working directory,
and every ``<file>.meta.json`` sidecar holds ``config_hash`` first, then the command's
own fields.

An empty string is refused, as a flag or as a config value, naming it, before any input
file is read and with no file left behind.
"""

import json

import pytest

from agglearn.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def cwd(tmp_path, monkeypatch):
    """An empty working directory, with $AGGLEARN_OUT_DIR unset."""
    path = tmp_path / "cwd"
    path.mkdir()
    monkeypatch.chdir(path)
    monkeypatch.delenv("AGGLEARN_OUT_DIR", raising=False)
    return path


SYNTH = ["synth", "--k", 3, "--d", 2, "--n", 120, "--seed", 7]


class TestOutputDirectory:
    def test_the_environment_variable_stands_in_for_out_dir(self, tmp_path, cwd, monkeypatch):
        monkeypatch.setenv("AGGLEARN_OUT_DIR", str(tmp_path / "env"))
        assert run(SYNTH) == 0
        assert sorted(p.name for p in (tmp_path / "env").iterdir()) == ["dataset.csv", "dataset.csv.meta.json"]
        assert not list(cwd.iterdir())

    def test_out_dir_beats_the_environment_variable(self, tmp_path, cwd, monkeypatch):
        monkeypatch.setenv("AGGLEARN_OUT_DIR", str(tmp_path / "env"))
        assert run([*SYNTH, "--out-dir", tmp_path / "given"]) == 0
        assert (tmp_path / "given" / "dataset.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_the_working_directory_takes_the_rest(self, cwd, capsys):
        assert run(SYNTH) == 0
        assert capsys.readouterr().out.strip() == "./dataset.csv"
        assert sorted(p.name for p in cwd.iterdir()) == ["dataset.csv", "dataset.csv.meta.json"]


class TestDefaultNames:
    @pytest.fixture()
    def pipeline(self, cwd):
        """synth, aggregate, train (both methods) and eval, none given a --name."""
        assert run(SYNTH) == 0
        assert run(["aggregate", "--data", "dataset.csv", "--task", "pairwise", "--k", 3,
                    "--n-groups", 30, "--seed", 1]) == 0
        for method in ("uum", "loglik"):
            assert run(["train", "--obs", "pairwise_groups.jsonl", "--k", 3, "--arch", "linear",
                        "--epochs", 2, "--seed", 3, "--method", method]) == 0
        assert run(["eval", "--checkpoint", "pairwise_uum.checkpoint.json", "--data", "dataset.csv",
                    "--task", "pairwise", "--fit-on-test"]) == 0
        return cwd

    def test_each_command_writes_under_its_default_name(self, pipeline):
        written = {
            "dataset.csv", "dataset.csv.meta.json",
            "pairwise_groups.jsonl", "pairwise_groups.jsonl.meta.json",
            "pairwise_report.json",
        }
        for method in ("uum", "loglik"):
            written |= {f"pairwise_{method}.checkpoint.json", f"pairwise_{method}.metrics.jsonl",
                        f"pairwise_{method}.metrics.jsonl.meta.json"}
        assert {p.name for p in pipeline.iterdir()} == written

    @pytest.mark.parametrize("sidecar, fields", [
        ("dataset.csv.meta.json", ["spec", "n", "columns"]),
        ("pairwise_groups.jsonl.meta.json", ["task", "m", "k", "n_groups", "label_names"]),
        ("pairwise_uum.metrics.jsonl.meta.json", ["best_epoch"]),
    ])
    def test_each_sidecar_holds_the_config_hash_then_its_own_fields(self, pipeline, sidecar, fields):
        meta = json.loads((pipeline / sidecar).read_text())
        assert list(meta) == ["config_hash", *fields]
        assert len(meta["config_hash"]) == 64

    def test_the_checkpoint_and_its_metrics_carry_one_hash(self, pipeline):
        checkpoint = json.loads((pipeline / "pairwise_uum.checkpoint.json").read_text())
        meta = json.loads((pipeline / "pairwise_uum.metrics.jsonl.meta.json").read_text())
        assert checkpoint["config_hash"] == meta["config_hash"]


# command line, flag; every other input file named here does not exist, so an error
# that names the flag shows the refusal came before any file was read
EMPTY_FLAGS = [
    ([*SYNTH, "--name", ""], "--name"),
    ([*SYNTH, "--out-dir", ""], "--out-dir"),
    ([*SYNTH, "--config", ""], "--config"),
    (["aggregate", "--data", "missing.csv", "--task", "pairwise", "--k", 3, "--n-groups", 5,
      "--label-column", ""], "--label-column"),
    (["train", "--obs", ""], "--obs"),
    (["train", "--obs", "missing.jsonl", "--name", ""], "--name"),
    (["eval", "--checkpoint", "missing.json", "--data", "missing.csv", "--task", "mil", "--m", 3,
      "--obs", ""], "--obs"),
    (["eval", "--checkpoint", "missing.json", "--data", "missing.csv", "--task", "pairwise",
      "--fit-data", ""], "--fit-data"),
    (["eval", "--checkpoint", "missing.json", "--data", "missing.csv", "--task", "pairwise",
      "--fit-on-test", "--label-column", ""], "--label-column"),
]


@pytest.mark.parametrize("argv, flag", EMPTY_FLAGS, ids=[f"{argv[0]} {flag}" for argv, flag in EMPTY_FLAGS])
def test_an_empty_flag_is_refused_before_any_file_is_read(cwd, capsys, argv, flag):
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: empty value for {flag}\n"
    assert not list(cwd.iterdir())


# command line without --config, config key
EMPTY_KEYS = [
    (SYNTH, "name"),
    (["aggregate", "--data", "missing.csv", "--task", "pairwise", "--k", 3, "--n-groups", 5], "label_column"),
    (["aggregate", "--task", "pairwise", "--k", 3, "--n-groups", 5], "data"),
    (["train"], "obs"),
    (["eval", "--checkpoint", "missing.json", "--data", "missing.csv", "--task", "mil", "--m", 3], "obs"),
    (["eval", "--checkpoint", "missing.json", "--data", "missing.csv", "--task", "pairwise"], "fit_data"),
]


@pytest.mark.parametrize("argv, key", EMPTY_KEYS, ids=[f"{argv[0]} {key}" for argv, key in EMPTY_KEYS])
def test_an_empty_config_value_is_refused_naming_the_file_and_key(tmp_path, cwd, capsys, argv, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: ""}))
    assert run([*argv, "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {config}: empty value for config key {key!r}\n"
    assert not list(cwd.iterdir())
