"""Every file the library writes reads back: each writer runs its loader's rule first.

Observation files go through ``data.check_observation_file``, datasets through the
``Dataset`` checks and the CSV header rule, checkpoints through the label-names rule
and their own field names. A writer refuses what its loader would refuse, names the
group, row or key, and leaves a file already at the path as it was. Valid inputs of
every kind go through save and load with the same bits.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglearn.data import (
    Dataset,
    GroupObservation,
    load_csv,
    load_observations,
    save_csv,
    save_observations,
)
from agglearn.models import Classifier, load_checkpoint
from agglearn.tasks import TASKS, Task, aggregate_label

BEFORE = b"left as it was\n"


def group(xs, z, kind="pairwise"):
    return GroupObservation(np.asarray(xs, dtype=np.float64), z, kind)


def refused(write, path, message):
    """``write(path)`` raises a ValueError matching ``message`` and leaves ``path`` byte-identical."""
    path.write_bytes(BEFORE)
    with pytest.raises(ValueError, match=message):
        write(path)
    assert path.read_bytes() == BEFORE


# -- observation files ------------------------------------------------------

@pytest.mark.parametrize("observations, message", [
    ([group([[0.0, 1.0], [2.0, 3.0]], 1), group([[0.0, np.nan], [2.0, 3.0]], 0)],
     "^observation 1: non-finite feature value$"),
    ([group(np.zeros((2, 2)), 1), group(np.zeros((2, 2)), 0), group(np.zeros((2, 3)), 1)],
     "^observation 2: mixed feature widths in one file: 2 and 3$"),
    ([group(np.zeros((2, 2)), 1), group(np.zeros((2, 2)), 1, "rank")],
     "^observation 1: mixed task kinds in one file: 'pairwise' and 'rank'$"),
    ([group(np.zeros((3, 1)), (2, 1), "llp"), group(np.zeros((3, 1)), (1, 1, 1), "llp")],
     r"^observation 1: mixed count-vector lengths in one file: 2 and 3$"),
    ([], "^no observations in the list to save$"),
], ids=["nan_feature", "mixed_widths", "mixed_kinds", "mixed_count_lengths", "empty"])
def test_save_observations_refuses_a_file_the_loader_refuses(tmp_path, observations, message):
    refused(lambda path: save_observations(observations, path), tmp_path / "obs.jsonl", message)


PAIR = '{"xs": [[0.5, 1.5], [2.5, 3.5]], "z": 1, "task": "pairwise"}'


@pytest.mark.parametrize("lines, message", [
    ([PAIR, "", '{"xs": [[0.5, 1.5], [2.5, NaN]], "z": 1, "task": "pairwise"}'],
     ":3: non-finite feature value"),
    ([PAIR, '{"xs": [[0.5], [2.5]], "z": 1, "task": "pairwise"}'],
     ":2: mixed feature widths in one file: 2 and 1"),
    ([PAIR, '{"xs": [[0.5, 1.5], [2.5, 3.5]], "z": 1, "task": "rank"}'],
     ":2: mixed task kinds in one file: 'pairwise' and 'rank'"),
    (['{"xs": [[0.5], [1.5]], "z": [1, 1], "task": "llp"}', '{"xs": [[0.5], [1.5]], "z": [2], "task": "llp"}'],
     ":2: mixed count-vector lengths in one file: 2 and 1"),
    ([PAIR, '{"xs": [[0.5, 1.5], [2.5, 3.5]], "z": 2, "task": "pairwise"}'],
     ":2: aggregate label 2 must be 0 or 1"),
    ([PAIR, '{"xs": [[0.5, 1.5]], "z": 1, "task": "pairwise"}'],
     ":2: task 'pairwise' requires m=2, got m=1"),
    ([PAIR, '{"xs": [[0.5, 1.5], [2.5, 3.5]], "z": 1, "task": "bogus"}'],
     ":2: unknown task kind 'bogus'"),
])
def test_load_messages_name_path_and_line(tmp_path, lines, message):
    path = tmp_path / "obs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as excinfo:
        load_observations(path)
    assert str(excinfo.value) == f"{path}{message}"


def test_an_empty_observation_file_names_the_file(tmp_path):
    path = tmp_path / "obs.jsonl"
    path.write_text("\n  \n")
    with pytest.raises(ValueError) as excinfo:
        load_observations(path)
    assert str(excinfo.value) == f"no observations in {path}"


def test_a_line_that_does_not_parse_is_named_before_a_later_rule_failure(tmp_path):
    path = tmp_path / "obs.jsonl"
    path.write_text("\n".join([PAIR, '{"xs": [[0.5, 1.5], [2.5, 3.5]], "z": 2, "task": "pairwise"}', "{"]) + "\n")
    with pytest.raises(ValueError, match=":2: aggregate label 2"):
        load_observations(path)
    path.write_text("\n".join([PAIR, "{", '{"xs": [[0.5, 1.5], [2.5, 3.5]], "z": 2, "task": "pairwise"}']) + "\n")
    with pytest.raises(ValueError, match=":2: "):
        load_observations(path)


def test_save_leaves_the_callers_labels_as_they_were(tmp_path):
    counts = np.array([2, 1])
    observations = [group(np.zeros((3, 1)), counts, "llp")]
    save_observations(observations, tmp_path / "obs.jsonl")
    assert observations[0].z is counts


FEATURE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def observation_lists(draw):
    """A valid list of groups of one kind: one k and one width d, sizes the kind allows
    (ragged where it leaves m free), labels drawn from the kind's alphabet."""
    kind = draw(st.sampled_from(sorted(TASKS)))
    spec = TASKS[kind]
    k = spec.k or draw(st.integers(max(spec.min_k, 1), 4))
    d = draw(st.integers(1, 3))
    observations = []
    for _ in range(draw(st.integers(1, 5))):
        m = spec.m or draw(st.integers(2, 6))
        labels = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
        z = aggregate_label(Task(kind, m, k), [spec.first_label + y for y in labels])
        xs = draw(st.lists(st.lists(FEATURE, min_size=d, max_size=d), min_size=m, max_size=m))
        observations.append(GroupObservation(np.array(xs, dtype=np.float64), z, kind))
    return observations


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(observations=observation_lists())
def test_valid_observations_load_back_with_the_same_bits(tmp_path_factory, observations):
    path = tmp_path_factory.mktemp("obs") / "obs.jsonl"
    save_observations(observations, path)
    back = load_observations(path)
    assert len(back) == len(observations)
    for saved, loaded in zip(observations, back):
        assert loaded.xs.tobytes() == saved.xs.tobytes() and loaded.xs.shape == saved.xs.shape
        assert loaded.z == saved.z and loaded.task_kind == saved.task_kind


# -- datasets ---------------------------------------------------------------

@pytest.mark.parametrize("features, labels, k, names, message", [
    ([[0.0], [np.nan]], [1, 2], 2, None, "^feature row 1 has a non-finite value$"),
    ([[0.0], [1.0], [np.inf]], [1, 1, 2], 2, ["a", "b"], "^feature row 2 has a non-finite value$"),
    ([[0.0], [1.0], [2.0]], [1, 2, 3], 3, ["a", "a", "b"], r"^label_names must be None or 3 distinct strings"),
    ([[0.0], [1.0], [2.0]], [1, 2, 3], 3, ["a", "b"], r"^label_names must be None or 3 distinct strings"),
    ([[0.0], [1.0]], [1, 2], 2, ["a", 2], r"^label_names must be None or 2 distinct strings"),
    ([[0.0], [1.0]], [1, 2], 2, ("a", "b"), r"^label_names must be None or 2 distinct strings"),
], ids=["nan_feature", "inf_feature", "repeated_names", "names_short_of_k", "a_name_not_a_string", "names_not_a_list"])
def test_a_dataset_save_csv_could_not_write_back_is_refused(features, labels, k, names, message):
    with pytest.raises(ValueError, match=message):
        Dataset(np.array(features), np.array(labels), k, names)


def test_save_csv_refuses_a_label_column_named_like_a_feature(tmp_path):
    ds = Dataset(np.arange(6.0).reshape(3, 2), [1, 2, 3], 3)
    refused(lambda path: save_csv(ds, path, label_column="x0"), tmp_path / "ds.csv",
            r"^label column 'x0' occurs 2 times in header \['x0', 'x1', 'x0'\]$")


def test_save_csv_refuses_a_label_name_utf8_cannot_encode_before_the_file_opens(tmp_path):
    ds = Dataset(np.arange(4.0).reshape(4, 1), [1, 1, 2, 2], 2, ["a", "\ud800"])
    message = r"^label name '\\ud800' cannot be written as UTF-8$"
    with pytest.raises(ValueError, match=message):
        save_csv(ds, tmp_path / "new.csv")
    assert not (tmp_path / "new.csv").exists()
    refused(lambda path: save_csv(ds, path), tmp_path / "ds.csv", message)


def test_save_csv_refuses_a_dataset_without_features(tmp_path):
    ds = Dataset(np.zeros((2, 0)), [1, 2], 2)
    refused(lambda path: save_csv(ds, path), tmp_path / "ds.csv", r"^header \['label'\] has no feature column$")


def test_load_csv_refuses_a_repeated_label_column(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("x0,label,label\n1.0,a,b\n")
    with pytest.raises(ValueError) as excinfo:
        load_csv(path)
    assert str(excinfo.value) == f"{path}: label column 'label' occurs 2 times in header ['x0', 'label', 'label']"


@pytest.mark.parametrize("text, message", [
    ("x0,label\n1.0,a\n\n2.0,b\ninf,a\n", ":5: non-numeric feature: non-finite value"),
    ('x0,label\n1.0,"a\nb"\nnan,c\n', ":4: non-numeric feature: non-finite value"),
    ("x0,label\n1.0,a\n-1e400,b\n3.0,c\n", ":3: non-numeric feature: non-finite value"),
    ("x0,x1\n1.0,2.0\n", ": label column 'label' not in header ['x0', 'x1']"),
])
def test_load_csv_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "ds.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        load_csv(path)
    assert str(excinfo.value) == f"{path}{message}"


@st.composite
def datasets(draw):
    """A valid dataset with k distinct names and every class present."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    names = draw(st.lists(st.text(max_size=5), min_size=k, max_size=k, unique=True))
    labels = list(range(1, k + 1)) + draw(st.lists(st.integers(1, k), max_size=6))
    labels = draw(st.permutations(labels))
    features = draw(st.lists(st.lists(FEATURE, min_size=d, max_size=d), min_size=len(labels), max_size=len(labels)))
    return Dataset(np.array(features, dtype=np.float64).reshape(len(labels), d), np.array(labels), k, names)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(ds=datasets())
def test_valid_datasets_load_back_with_the_same_bits(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path).relabel_to(ds.label_names)
    assert back.features.tobytes() == ds.features.tobytes() and back.features.shape == ds.features.shape
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.k == ds.k and back.label_names == ds.label_names


# -- checkpoints ------------------------------------------------------------

@pytest.mark.parametrize("extra, message", [
    ({"k": 2}, "^extra key 'k' names a checkpoint field$"),
    ({"schema_version": 2}, "^extra key 'schema_version' names a checkpoint field$"),
    ({"task": "llp", "layers": []}, "^extra key 'layers' names a checkpoint field$"),
    ({"label_names": [1, 2, 3]}, "^label_names must be null or a list of distinct strings$"),
    ({"label_names": ["a", "b", "a"]}, "^label_names must be null or a list of distinct strings$"),
])
def test_save_refuses_an_extra_that_load_checkpoint_refuses(tmp_path, extra, message):
    model = Classifier.create("linear", "softmax", d=2, k=3, seed=0)
    refused(lambda path: model.save(path, extra=extra), tmp_path / "model.checkpoint.json", message)


def test_an_extra_json_cannot_encode_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "model.checkpoint.json"
    path.write_bytes(BEFORE)
    with pytest.raises(TypeError, match="int64"):
        Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(path, extra={"config_hash": np.int64(1)})
    assert path.read_bytes() == BEFORE


def test_load_checkpoint_refuses_repeated_label_names(tmp_path):
    path = tmp_path / "model.checkpoint.json"
    Classifier.create("linear", "softmax", d=2, k=3, seed=0).save(path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "label_names": ["a", "a"]}))
    with pytest.raises(ValueError, match="label_names must be null or a list of distinct strings"):
        load_checkpoint(path)


def test_the_cli_extras_round_trip(tmp_path):
    model = Classifier.create("mlp-300", "softmax", d=2, k=3, seed=0)
    extra = {"config_hash": "abc", "task": "pairwise", "label_names": ["c", "a", "b"]}
    path = tmp_path / "model.checkpoint.json"
    model.save(path, extra=extra)
    back, doc = load_checkpoint(path)
    assert {key: doc[key] for key in extra} == extra
    assert all(np.array_equal(a, b) for a, b in zip(back.parameters(), model.parameters()))
