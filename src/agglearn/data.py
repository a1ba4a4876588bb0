"""Datasets, synthetic generation, CSV ingestion, and group sampling.

Randomness policy: every stochastic operation takes an explicit seed and
draws from ``posteriors.seeded_rng``, the one constructor of the Philox
counter-based 64-bit generator (via numpy's ``Generator``) over a whole-number
seed >= 0, so identical seeds give bit-identical output on any platform.
Independent streams are derived with ``SeedSequence.spawn``.

On-disk formats:

* datasets -- CSV with a header row; feature columns are numeric, the
  label column (named, default "label") is categorical. Labels are
  re-indexed to 1..k in first-appearance order and the original names kept
  on the Dataset so class identities survive round trips. Floats are
  written with ``repr`` so values round-trip to the last bit.
* aggregate observations -- JSON lines, one object per group:
  ``{"xs": [[...], ...], "z": <0|1|[counts...]>, "task": "<kind>"}``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .posteriors import parse_int, parse_labels, seeded_rng
from .tasks import TASKS, Task, aggregate_label


@dataclass
class Dataset:
    """Feature matrix (n, d) with integer labels in 1..k."""

    features: np.ndarray
    labels: np.ndarray
    k: int
    label_names: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = parse_labels(self.labels, self.k)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be one per feature row")
        if self.n == 0:
            raise ValueError("empty dataset")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.features[indices], self.labels[indices], self.k, self.label_names)

    def relabel_to(self, names: list[str]) -> "Dataset":
        """Re-index labels so index i means names[i].

        First-appearance indexing is per file, so two CSVs of the same data
        can disagree on which integer means which class; aligning both to
        one name order restores stable class identities before comparing
        predictions across files.
        """
        if self.label_names is None:
            raise ValueError("dataset carries no label names to align by")
        unknown = set(self.label_names) - set(names)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} missing from the reference order {names}")
        position = {name: i + 1 for i, name in enumerate(names)}
        mapping = np.array([position[name] for name in self.label_names])
        return Dataset(self.features, mapping[self.labels - 1], k=len(names), label_names=list(names))

    def task_labels(self, task: Task, positive_label: int | None = None) -> np.ndarray:
        """The labels in the task's alphabet: 1..k as stored, or for the {0,1}
        bag alphabet the indicator of ``positive_label`` (default: the highest
        class)."""
        if task.spec.first_label == 1:
            if self.k > task.k:
                raise ValueError(f"dataset has {self.k} classes but task expects at most {task.k}")
            return self.labels
        positive = self.k if positive_label is None else parse_labels(positive_label, self.k, name="positive label")
        if np.ndim(positive):
            raise ValueError(f"positive label {positive.tolist()!r} must be a single class in 1..{self.k}")
        return (self.labels == positive).astype(np.int64)


@dataclass
class SyntheticSpec:
    """Gaussian mixture: one isotropic component per class."""

    k: int
    d: int
    means: np.ndarray
    spreads: np.ndarray
    prior: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.k, self.d = parse_int(self.k, "k", 1), parse_int(self.d, "d", 1)
        self.means = np.asarray(self.means, dtype=np.float64).reshape(self.k, self.d)
        self.spreads = np.asarray(self.spreads, dtype=np.float64).reshape(self.k)
        self.prior = np.asarray(self.prior, dtype=np.float64).reshape(self.k)
        if np.any(self.spreads <= 0.0):
            raise ValueError("spreads must be positive")
        if np.any(self.prior < 0.0) or abs(self.prior.sum() - 1.0) > 1e-9:
            raise ValueError("prior must be a distribution over the k classes")

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "means": self.means.tolist(),
            "spreads": self.spreads.tolist(),
            "prior": self.prior.tolist(),
            "seed": self.seed,
        }


def generate_synthetic(spec: SyntheticSpec, n: int) -> Dataset:
    """Draw n labeled points i.i.d. from the mixture; deterministic in the seed."""
    if parse_int(n, "n") < 1:
        raise ValueError("empty dataset requested")
    rng = seeded_rng(spec.seed)
    labels = rng.choice(spec.k, size=n, p=spec.prior) + 1
    noise = rng.standard_normal((n, spec.d))
    features = spec.means[labels - 1] + noise * spec.spreads[labels - 1][:, None]
    return Dataset(features, labels, spec.k)


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write the dataset as CSV; float features use repr for exact round trips."""
    names = dataset.label_names
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.d)] + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            name = names[label - 1] if names else str(int(label))
            writer.writerow([repr(float(v)) for v in row] + [name])


def load_csv(path, label_column: str = "label") -> Dataset:
    """Load a CSV dataset, re-indexing labels to 1..k in first-appearance order. A bad
    file raises ValueError naming ``path``, and ``path:line`` for a bad row."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty dataset")
            try:
                label_idx = header.index(label_column)
            except ValueError:
                raise ValueError(f"{path}: label column {label_column!r} not in header {header}") from None
            feature_idx = [i for i in range(len(header)) if i != label_idx]
            if not feature_idx:
                raise ValueError(f"{path}: header {header} has no feature column")
            features = []
            raw_labels = []
            for row in reader:
                line_no = reader.line_num  # the physical line, also after a quoted line break
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}:{line_no}: row has {len(row)} fields, header has {len(header)}")
                try:
                    values = [float(row[i]) for i in feature_idx]
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: non-numeric feature: {exc}") from None
                if any(not np.isfinite(v) for v in values):
                    raise ValueError(f"{path}:{line_no}: non-numeric feature: non-finite value")
                features.append(values)
                raw_labels.append(row[label_idx])
    except UnicodeDecodeError as exc:  # a ValueError that would not name the file
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not features:
        raise ValueError(f"{path}: empty dataset")
    index = {name: i for i, name in enumerate(dict.fromkeys(raw_labels), start=1)}  # first-appearance order
    labels = [index[name] for name in raw_labels]
    return Dataset(np.array(features), np.array(labels), k=len(index), label_names=list(index))


@dataclass
class GroupObservation:
    """A group of m feature vectors with its aggregate label."""

    xs: np.ndarray
    z: object
    task_kind: str
    indices: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        if self.xs.ndim != 2 or self.xs.size == 0:
            raise ValueError("group features must be a non-empty (m, d) array")

    @property
    def m(self) -> int:
        return self.xs.shape[0]


def sample_groups(
    dataset: Dataset,
    task: Task,
    m: int,
    n_groups: int,
    seed: int,
    positive_label: int | None = None,
) -> list[GroupObservation]:
    """Sample groups uniformly with replacement and label them with g.

    Group members are independent draws from the dataset; z is computed
    from the members' true labels, so observed labels are always
    consistent with the hidden ones. ``m`` must match the task's group
    size. Labels map into the task's alphabet with ``Dataset.task_labels``.
    """
    if parse_int(m, "m") != task.m:
        raise ValueError(f"group size {m} does not match task {task.kind!r} (m={task.m})")
    labels = dataset.task_labels(task, positive_label)
    rng = seeded_rng(seed)
    draws = rng.integers(0, dataset.n, size=(parse_int(n_groups, "n_groups", 1), m))
    observations = []
    for row in draws:
        z = aggregate_label(task, labels[row])
        observations.append(
            GroupObservation(xs=dataset.features[row], z=z, task_kind=task.kind, indices=row.copy())
        )
    return observations


def save_observations(observations: list[GroupObservation], path) -> None:
    """Write groups as JSON lines ({"xs", "z", "task"} per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for obs in observations:
            z = list(obs.z) if isinstance(obs.z, (tuple, list)) else int(obs.z)
            doc = {"xs": obs.xs.tolist(), "z": z, "task": obs.task_kind}
            fh.write(json.dumps(doc) + "\n")


# raw_decode on stripped lines skips the two whitespace scans of json.loads,
# which pays for the validation below on files of small groups
_JSON = json.JSONDecoder()


def _parse_observation(line: str) -> GroupObservation:
    doc, end = _JSON.raw_decode(line)  # a JSONDecodeError is a ValueError
    if end != len(line):
        raise ValueError("extra data after the JSON object")
    try:
        xs, z, kind = doc["xs"], doc["z"], doc["task"]
    except (KeyError, TypeError):
        raise ValueError('expected a JSON object with keys "xs", "z" and "task"') from None
    if not isinstance(kind, str) or kind not in TASKS:
        raise ValueError(f"unknown task kind {kind!r}")
    try:
        obs = GroupObservation(xs=xs, z=z, task_kind=kind)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("xs must be a non-empty (m, d) array of numbers") from None
    TASKS[kind].check_group_size(obs.m, kind)
    obs.z = TASKS[kind].parse_z(z, obs.m)
    return obs


def load_observations(path) -> list[GroupObservation]:
    """Read a JSON-lines observation file; every group must have a size its kind allows, and
    all lines must share one task kind, one feature width and, for count labels, one
    count-vector length. A bad line raises ValueError naming ``path:line``."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"observation file not found: {path}")
    observations = []
    line_nos = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obs = _parse_observation(line)
                    z_len = len(obs.z) if isinstance(obs.z, tuple) else 0
                    if not observations:
                        kind, width, counts = obs.task_kind, obs.xs.shape[1], z_len
                    if obs.task_kind != kind:
                        raise ValueError(f"mixed task kinds in one file: {kind!r} and {obs.task_kind!r}")
                    if obs.xs.shape[1] != width:
                        raise ValueError(f"mixed feature widths in one file: {width} and {obs.xs.shape[1]}")
                    if z_len != counts:
                        raise ValueError(f"mixed count-vector lengths in one file: {counts} and {z_len}")
                except (ValueError, RecursionError) as exc:  # the decoder recurses once per nesting level
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
                observations.append(obs)
                line_nos.append(line_no)
    except UnicodeDecodeError as exc:  # raised by the file iterator, which decodes ahead of the line
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not observations:
        raise ValueError(f"no observations in {path}")
    if (bad := first_nonfinite(observations)) is not None:
        raise ValueError(f"{path}:{line_nos[bad]}: non-finite feature value")
    return observations


def first_nonfinite(observations: list[GroupObservation]) -> int | None:
    """Index of the first group with a non-finite feature, or None; the groups share one width.
    One vectorized pass: a numpy call per group adds a fifth to the load time of small groups."""
    finite = np.isfinite(np.concatenate([obs.xs for obs in observations]))
    if finite.all():  # else the first flat index maps to its group through the cumulative cell counts
        return None
    return int(np.searchsorted(np.cumsum([obs.xs.size for obs in observations]), np.argmin(finite), side="right"))


def check_observations(observations: list[GroupObservation], task: Task, d: int) -> list:
    """Each group's aggregate label parsed by the task's rule. Raises ValueError naming the
    first observation whose kind, feature width d, size, label or features do not fit."""
    spec = task.spec
    zs = []
    for i, obs in enumerate(observations):
        if obs.task_kind != task.kind:
            raise ValueError(f"observation {i} is for task {obs.task_kind!r}, not {task.kind!r}")
        if obs.xs.shape[1] != d:
            raise ValueError(f"observation {i} has {obs.xs.shape[1]} features, the model takes {d}")
        try:
            spec.check_group_size(obs.m, task.kind)
            zs.append(spec.parse_z(obs.z, obs.m, task.k))
        except ValueError as exc:
            raise ValueError(f"observation {i}: {exc}") from None
    if observations and (bad := first_nonfinite(observations)) is not None:
        raise ValueError(f"observation {bad} has a non-finite feature value")
    return zs
