"""Malformed checkpoints fail at the boundary with an error naming the file.

``Classifier.load`` must turn any document it cannot build a model from
into a ValueError that names the path, and ``eval`` must exit 1 on it
instead of printing a traceback.
"""

import json

import pytest

from agglearn.cli import main
from agglearn.models import Classifier

MALFORMED = {
    "layer_not_an_object": lambda doc: doc.update(layers=[[1, 2]]),
    "document_not_an_object": lambda doc: [1, 2],
    "bias_not_numeric": lambda doc: doc["layers"][0].update(bias="abc"),
    "label_names_not_a_list": lambda doc: doc.update(label_names=5),
}


@pytest.fixture(params=sorted(MALFORMED))
def checkpoint(request, tmp_path):
    path = tmp_path / "model.checkpoint.json"
    Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(path)
    doc = json.loads(path.read_text())
    edited = MALFORMED[request.param](doc)
    path.write_text(json.dumps(doc if edited is None else edited))
    return path


def test_load_raises_a_value_error_naming_the_path(checkpoint):
    with pytest.raises(ValueError, match=f"checkpoint {checkpoint}"):
        Classifier.load(checkpoint)


def test_eval_exits_1_naming_the_checkpoint(checkpoint, tmp_path, capsys):
    assert main(["synth", "--k", "3", "--d", "2", "--n", "50", "--seed", "7",
                 "--out-dir", str(tmp_path), "--name", "data"]) == 0
    code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(tmp_path / "data.csv"),
                 "--task", "pairwise", "--fit-on-test", "--out-dir", str(tmp_path), "--name", "report"])
    assert code == 1
    assert str(checkpoint) in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
