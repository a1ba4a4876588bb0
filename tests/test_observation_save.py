"""``save_observations`` writes each z as its kind's rule parses it, and checks every group first.

A label the loader and ``check_observations`` take (a count vector held as a numpy array, a
numpy integer bit) is written as plain JSON and reads back equal; a group the loader would
refuse (an unregistered kind, a group size or label its kind does not allow) is refused by
name before the file is opened, so no file is left behind.
"""

import json

import numpy as np
import pytest

from agglearn.data import GroupObservation, check_observations, load_observations, save_observations
from agglearn.tasks import Task


def group(m, z, kind):
    return GroupObservation(np.arange(2.0 * m).reshape(m, 2), z, kind)


def test_a_count_vector_held_as_an_array_round_trips(tmp_path):
    observations = [group(3, np.array([2, 1]), "llp"), group(3, (0, 3), "llp")]
    assert check_observations(observations, Task("llp", 3, 2), 2) == [(2, 1), (0, 3)]
    path = tmp_path / "bags.jsonl"
    save_observations(observations, path)
    assert [json.loads(line)["z"] for line in path.read_text().splitlines()] == [[2, 1], [0, 3]]
    back = load_observations(path)
    assert [obs.z for obs in back] == [(2, 1), (0, 3)]
    np.testing.assert_array_equal(back[0].xs, observations[0].xs)


def test_a_numpy_integer_bit_round_trips(tmp_path):
    path = tmp_path / "pairs.jsonl"
    save_observations([group(2, np.int64(1), "pairwise"), group(2, np.bool_(False), "pairwise")], path)
    back = load_observations(path)
    assert [obs.z for obs in back] == [1, 0] and all(type(obs.z) is int for obs in back)


@pytest.mark.parametrize("bad, message", [
    (group(2, 1, "bogus"), "unknown task kind 'bogus'"),
    (group(3, 1, "pairwise"), "task 'pairwise' requires m=2, got m=3"),
    (group(2, 3, "pairwise"), "aggregate label 3 must be 0 or 1"),
    (group(1, 0, "mil"), "task 'mil' requires m >= 2, got m=1"),
    (group(3, (2, 2), "llp"), "counts sum to 4"),
])
def test_a_group_its_kind_refuses_is_named_and_nothing_is_written(tmp_path, bad, message):
    path = tmp_path / "groups.jsonl"
    with pytest.raises(ValueError, match=f"^observation 1: .*{message}"):
        save_observations([group(2, 0, "pairwise"), bad], path)
    assert not path.exists()
