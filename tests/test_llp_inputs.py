"""Label-proportion inputs: count-vector lengths and the count-box bound."""

import time

import numpy as np
import pytest

from agglearn.cli import main
from agglearn.posteriors import MAX_LLP_BOX, posterior_llp

XS = "[[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]"


def write_llp(path, counts):
    path.write_text("".join(f'{{"xs": {XS}, "z": {list(z)}, "task": "llp"}}\n' for z in counts))


def train(path, k):
    return main(["train", "--obs", str(path), "--k", str(k), "--epochs", "1",
                 "--out-dir", str(path.parent)])


def test_mixed_count_lengths_fail_at_the_line(tmp_path, capsys):
    path = tmp_path / "obs.jsonl"
    write_llp(path, [(2, 1, 0, 0), (1, 1, 1)])
    assert train(path, 3) == 1
    assert f"{path}:2:" in capsys.readouterr().err


def test_count_length_other_than_k_names_the_file(tmp_path, capsys):
    path = tmp_path / "obs.jsonl"
    write_llp(path, [(2, 1, 0, 0), (1, 1, 1, 0)])
    assert train(path, 3) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "k=3" in err


def test_count_box_above_the_bound_is_refused_before_the_dp():
    counts = (7, 7, 7, 7, 6, 6, 6, 6, 6, 6)  # box volume 8**4 * 7**6, about 4.8e8
    etas = np.full((sum(counts), len(counts)), 0.1)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"volume {8**4 * 7**6}.*{MAX_LLP_BOX}"):
        posterior_llp(etas, counts)
    assert time.perf_counter() - start < 1.0
