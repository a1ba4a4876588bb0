"""Command-line pipeline: synth -> aggregate -> train -> eval, plus verify/bench.

synth, aggregate, train and eval take ``--config FILE`` (JSON) and flags: a flag
beats the config file, and a given value is used or refused, never replaced. A
config key is its flag's name with underscores, typed and checked by ``OPTIONS``
like the flag; an unknown key or a bad value is a usage error naming the file.
An empty string, as a flag or a config value, is refused naming it. Each command
writes to one path stem: --name, else its default (dataset, <kind>_groups,
<kind>_<method>, <kind>_report), in --out-dir, else $AGGLEARN_OUT_DIR, else the
working directory. Artifacts carry the sha256 of the resolved configuration that
produced them (embedded in JSON artifacts, else in a sidecar ``<file>.meta.json``).

Exit codes: 0 success, 1 usage or configuration error (argparse's own errors
included), 2 runtime abort, 3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import data as data_mod
from .data import SyntheticSpec
from .evaluation import accuracy, fit_matching, group_accuracy_mil, matched_accuracy
from .models import ARCHITECTURES, Classifier, load_checkpoint, valid_label_names
from .posteriors import brute_force_posterior, group_posterior, parse_int, seeded_rng
from .tasks import TASKS, Task
from .training import TrainConfig, TrainingAbortError, default_flags, train
from .verify import SUITES, random_etas, random_z, registered_tasks, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _stem(args: argparse.Namespace, resolved: dict, default: str) -> str:
    """A command's output path before its suffix: --name, else ``default``, in --out-dir, else
    $AGGLEARN_OUT_DIR, else the working directory, made if missing."""
    out = args.out_dir or os.environ.get("AGGLEARN_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, default if resolved["name"] is None else resolved["name"])


# Each option of synth, aggregate, train and eval, declared once: its flag's
# argparse keywords (key n_groups is flag --n-groups), or None if only --config sets it.
OPTIONS: dict[str, dict[str, dict | None]] = {
    "synth": {
        "k": {"type": int}, "d": {"type": int}, "n": {"type": int}, "seed": {"type": int},
        "means": None, "spreads": None, "prior": None, "name": {},
    },
    "aggregate": {
        "data": {}, "task": {"choices": list(TASKS)}, "m": {"type": int}, "k": {"type": int},
        "n_groups": {"type": int}, "seed": {"type": int}, "positive_label": {"type": int},
        "label_column": {}, "name": {},
    },
    "train": {
        "obs": {}, "task": {}, "m": {"type": int}, "k": {"type": int},
        "arch": {"choices": list(ARCHITECTURES)}, "method": {"choices": ["uum", "loglik"]},
        "epochs": {"type": int},
        "warmup": {"type": int, "choices": [0, 1], "help": "log-likelihood warm-up phase"},
        "warmup_epochs": {"type": int},
        "confidence_cache": {"type": int, "choices": [0, 1]},
        "batch_size": {"type": int}, "learning_rate": {"type": float}, "seed": {"type": int},
        "val_fraction": {"type": float}, "profile": {"choices": ["small", "large"]}, "name": {},
    },
    "eval": {
        "checkpoint": {}, "data": {},
        "fit_data": {"help": "labeled split for fitting the class matching"},
        "fit_on_test": {"action": "store_const", "const": 1,
                        "help": "fit the class matching on the test split itself"},
        "task": {}, "m": {"type": int}, "k": {"type": int}, "label_column": {},
        "obs": {"help": "bag observations for group-level accuracy"},
        "positive_label": {"type": int}, "name": {},
    },
}


def _read_object(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must hold a JSON object")
    return doc


def _config_value(path: str, name: str, value, flag: dict | None):
    """A config value read as its flag reads the command line: a non-string as its JSON text, through
    the flag's type and choices. A 0/1 option takes true/false or 1/0; an empty string is refused."""
    if value == "":
        raise ValueError(f"{path}: empty value for config key {name!r}")
    if value is None or flag is None:
        return value
    if isinstance(value, bool) and flag.get("choices") == [0, 1]:
        value = int(value)
    invalid = ValueError(f"{path}: invalid value {json.dumps(value)} for config key {name!r}")
    switch = "const" in flag
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        typed = value if switch else flag.get("type", str)(text)
    except ValueError:
        raise invalid from None
    if typed not in flag.get("choices", [0, 1] if switch else [typed]):
        raise invalid
    return typed


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config-file values and CLI flags; flags win when given. An empty flag is refused."""
    options = OPTIONS[args.command]
    for name in ("config", "out_dir", *options):
        if getattr(args, name, None) == "":
            raise ValueError(f"empty value for --{name.replace('_', '-')}")
    config = _read_object(args.config, "config file") if args.config else {}
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys {unknown} for {args.command}; "
                         f"known: {list(options)}")
    resolved = {}
    for name, flag in options.items():
        value = _config_value(args.config, name, config.get(name), flag)
        given = getattr(args, name, None)
        resolved[name] = value if given is None else given
    return resolved


def _require(resolved: dict, *names: str) -> None:
    for name in names:
        if resolved.get(name) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_meta(path: str, resolved: dict, **fields) -> None:
    """The sidecar ``<path>.meta.json``: the configuration's hash, then the command's own fields."""
    _write_json(path + ".meta.json", {"config_hash": _config_hash(resolved), **fields})


def _build_task(resolved: dict) -> Task:
    _require(resolved, "task")
    kind = resolved["task"]
    if kind not in TASKS:
        raise ValueError(f"unknown task kind {kind!r}; expected one of {list(TASKS)}")
    spec = TASKS[kind]
    if resolved.get("positive_label") is not None and spec.first_label != 0:
        raise ValueError(f"--positive-label names the class a bag reads as 1; task {kind!r} has no bags")
    # a given m or k goes to Task, which refuses one the kind fixes at another value; the kind's fills a gap
    m = spec.m if resolved.get("m") is None else resolved["m"]
    if m is None:
        raise ValueError(f"task {kind!r} needs an explicit --m")
    k = spec.k if resolved.get("k") is None else resolved["k"]
    if k is None:
        raise ValueError("missing required option --k")
    return Task(kind, m=m, k=k)


def cmd_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "k", "d", "n")
    k, d, n = parse_int(resolved["k"], "--k", 1), parse_int(resolved["d"], "--d", 1), resolved["n"]
    seed = parse_int(resolved["seed"] or 0, "--seed", 0)
    means = resolved["means"]
    if means is None:
        # Evenly spaced directions at radius 3: separable but overlapping tails.
        angles = 2.0 * np.pi * np.arange(k) / k
        means = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        means = np.concatenate([means, np.zeros((k, d - 2))], axis=1) if d > 2 else means[:, :d]
    spreads = resolved["spreads"] if resolved["spreads"] is not None else [1.0] * k
    prior = resolved["prior"] if resolved["prior"] is not None else [1.0 / k] * k
    try:  # means, spreads and prior come only from the config file
        spec = SyntheticSpec(k=k, d=d, means=means, spreads=spreads, prior=prior, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    dataset = data_mod.generate_synthetic(spec, n)

    resolved["means"] = spec.means.tolist()
    resolved["spreads"] = spec.spreads.tolist()
    resolved["prior"] = spec.prior.tolist()
    csv_path = _stem(args, resolved, "dataset") + ".csv"
    data_mod.save_csv(dataset, csv_path)
    _write_meta(csv_path, resolved, spec=spec.to_json(), n=n, columns={"label": "label"})
    print(csv_path)
    return EXIT_OK


def cmd_aggregate(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "data", "n_groups")
    task = _build_task(resolved)
    n_groups = parse_int(resolved["n_groups"], "--n-groups", 1)
    dataset = data_mod.load_csv(resolved["data"], label_column=resolved["label_column"] or "label")
    observations = data_mod.sample_groups(
        dataset,
        task,
        m=task.m,
        n_groups=n_groups,
        seed=parse_int(resolved["seed"] or 0, "--seed", 0),
        positive_label=resolved["positive_label"],
    )
    obs_path = _stem(args, resolved, f"{task.kind}_groups") + ".jsonl"
    data_mod.save_observations(observations, obs_path)
    resolved["m"], resolved["k"] = task.m, task.k
    _write_meta(obs_path, resolved, task=task.kind, m=task.m, k=task.k,
                n_groups=len(observations), label_names=dataset.label_names)
    print(obs_path)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "obs")
    observations = data_mod.load_observations(resolved["obs"])
    if resolved.get("task") is None:
        resolved["task"] = observations[0].task_kind
    if resolved.get("m") is None:
        resolved["m"] = observations[0].m
    task = _build_task(resolved)
    d = observations[0].xs.shape[1]

    # class identities travel with the pipeline: the sampling step records
    # the source CSV's label-name order, and the checkpoint carries it on
    # to evaluation
    label_names = None
    obs_meta = str(resolved["obs"]) + ".meta.json"
    if os.path.exists(obs_meta):
        label_names = _read_object(obs_meta, "observation meta file").get("label_names")
        if not valid_label_names(label_names):
            raise ValueError(f"{obs_meta}: label_names must be null or a list of distinct strings")

    arch = resolved["arch"] or task.spec.arch
    head = task.spec.head
    seed = parse_int(resolved["seed"] or 0, "--seed", 0)

    profile = resolved["profile"] or "small"
    warmup, warmup_epochs, confidence_cache = default_flags(task, profile)
    # profile epoch budgets pair with the warm-up lengths above
    epochs = resolved["epochs"] if resolved["epochs"] is not None else (200 if profile == "small" else 100)
    method = resolved["method"] or "uum"
    if method == "loglik":  # the likelihood baseline is the warm-up branch run for every epoch
        if resolved["warmup"] is not None or resolved["warmup_epochs"] is not None:
            raise ValueError("--method loglik warms up for every epoch; drop --warmup and --warmup-epochs")
        warmup, warmup_epochs = True, epochs
    warmup_epochs = min(warmup_epochs, epochs)  # a default fits --epochs; a given value meets TrainConfig's rule
    if resolved["warmup"] is not None:
        warmup = bool(resolved["warmup"])
    if resolved["warmup_epochs"] is not None:
        warmup_epochs = resolved["warmup_epochs"]
    if resolved["confidence_cache"] is not None:
        confidence_cache = bool(resolved["confidence_cache"])

    # options not given keep TrainConfig's defaults
    given = {f: resolved[f] for f in ("batch_size", "val_fraction") if resolved[f] is not None}
    train_config = TrainConfig(
        epochs=epochs,
        warmup=warmup,
        warmup_epochs=warmup_epochs,
        confidence_cache=confidence_cache,
        learning_rate=resolved["learning_rate"],
        seed=seed,
        **given,
    )
    resolved.update(train_config.to_json())
    resolved.update({"arch": arch, "head": head, "method": method, "m": task.m, "k": task.k})

    model = Classifier.create(arch, head, d=d, k=task.k, seed=seed)
    try:  # train() checks the observations against the task first
        result = train(observations, task, model, train_config)
    except ValueError as exc:
        raise ValueError(f"{resolved['obs']}: {exc}") from None

    stem = _stem(args, resolved, f"{task.kind}_{method}")
    ckpt_path = stem + ".checkpoint.json"
    result.model.save(
        ckpt_path,
        extra={"config_hash": _config_hash(resolved), "task": task.kind, "label_names": label_names},
    )
    with open(stem + ".metrics.jsonl", "w", encoding="utf-8") as fh:
        for record in result.metrics:
            fh.write(json.dumps(record.to_json()) + "\n")
    _write_meta(stem + ".metrics.jsonl", resolved, best_epoch=result.best_epoch)
    print(ckpt_path)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "checkpoint", "data", "task")
    model, checkpoint = load_checkpoint(resolved["checkpoint"])
    checkpoint_names = checkpoint.get("label_names")
    if resolved.get("k") is None:
        resolved["k"] = model.k
    task = _build_task(resolved)
    fits = [f"--{key.replace('_', '-')}" for key in ("fit_data", "fit_on_test") if resolved[key]]
    if len(fits) != (matched := task.spec.symmetry != "identity"):  # refused before any CSV is read
        raise ValueError(f"task {task.kind!r} (symmetry group {task.spec.symmetry!r}) takes "
                         f"{('no', 'one')[matched]} fit flag (--fit-data or --fit-on-test), got {fits}")
    if model.head != task.spec.head:
        raise ValueError(
            f"checkpoint head {model.head!r} does not fit task {task.kind!r} "
            f"(expects {task.spec.head!r})"
        )
    label_column = resolved["label_column"] or "label"
    splits = {key: data_mod.load_csv(resolved[key], label_column=label_column)
              for key in ("data", "fit_data") if resolved[key]}

    # per-file first-appearance indexing is arbitrary; align every split to
    # one name order (training-time order when the checkpoint carries it)
    canonical = checkpoint_names or splits.get("fit_data", splits["data"]).label_names
    for key, split in splits.items():
        if split.d != model.d:
            raise ValueError(f"{resolved[key]}: {split.d} feature columns, the checkpoint takes {model.d}")
        try:
            splits[key] = split.relabel_to(canonical)
        except ValueError as exc:
            raise ValueError(f"{resolved[key]}: {exc}") from None
    test, fit = splits["data"], splits.get("fit_data")

    positive = resolved["positive_label"]
    labels = test.task_labels(task, positive)
    preds = model.predict(test.features)
    report: dict = {"task": task.kind, "label_names": canonical, "accuracy": accuracy(preds, labels)}
    if task.spec.first_label == 0:  # the bag alphabet {0, 1}: name the class read as 1
        report["positive_class"] = canonical[(test.k if positive is None else positive) - 1]
    if resolved["obs"]:
        bags = data_mod.load_observations(resolved["obs"])
        try:
            report["group_accuracy"] = group_accuracy_mil(model, bags)
        except ValueError as exc:
            raise ValueError(f"{resolved['obs']}: {exc}") from None

    # class matching counts classes 1..k, so the bag alphabet {0, 1} shifts up by one
    shift = 1 - task.label_values[0]
    fit_preds, fit_labels = (preds, labels) if fit is None else (  # fit on --fit-data, else on the test split
        model.predict(fit.features), fit.task_labels(task, positive))
    perm = fit_matching(fit_preds + shift, fit_labels + shift, task.k, task.spec.symmetry)
    frac, perm = matched_accuracy(preds + shift, labels + shift, task.k, perm=perm)
    report["modified_accuracy"] = frac
    report["permutation"] = [int(p) for p in perm]

    report["config_hash"] = _config_hash(resolved)
    report_path = _stem(args, resolved, f"{task.kind}_report") + ".json"
    _write_json(report_path, report)
    print(report_path)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    summary = run_suite(args.suite, seed=parse_int(args.seed, "--seed", 0))
    print(json.dumps(summary, indent=2))
    return EXIT_OK if summary["passed"] else EXIT_VERIFY


def cmd_bench(args: argparse.Namespace) -> int:
    """Time each closed-form posterior against brute-force enumeration."""
    repeats = parse_int(args.repeats, "--repeats", 1)
    rng = seeded_rng(parse_int(args.seed, "--seed", 0))
    rows = []
    for task in registered_tasks(m=6, k=10):
        etas = random_etas(task, rng)
        z = random_z(task, rng)
        t0 = time.perf_counter()
        for _ in range(repeats):
            group_posterior(task, etas, z)
        closed_s = (time.perf_counter() - t0) / repeats
        brute_repeats = max(1, repeats // 5)
        t0 = time.perf_counter()
        for _ in range(brute_repeats):
            brute_force_posterior(task, etas, z)
        brute_s = (time.perf_counter() - t0) / brute_repeats
        rows.append(
            {
                "task": task.kind,
                "m": task.m,
                "k": task.k,
                "closed_ms": closed_s * 1e3,
                "brute_ms": brute_s * 1e3,
                "speedup": brute_s / closed_s if closed_s > 0 else float("inf"),
            }
        )
    print(json.dumps({"bench": rows}, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agglearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, summary in (
        ("synth", cmd_synth, "generate a synthetic mixture dataset"),
        ("aggregate", cmd_aggregate, "sample aggregate observations from a dataset"),
        ("train", cmd_train, "train a classifier on aggregate observations"),
        ("eval", cmd_eval, "evaluate a checkpoint on labeled data"),
    ):
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out-dir", dest="out_dir", help="output directory (or $AGGLEARN_OUT_DIR)")
        for name, flag in OPTIONS[command].items():
            if flag is not None:
                p.add_argument("--" + name.replace("_", "-"), dest=name, **flag)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time closed-form posteriors vs enumeration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=20)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on its own usage errors (0 after --help)
        raise SystemExit(EXIT_USAGE if exc.code == 2 else exc.code) from None
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingAbortError, FloatingPointError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
