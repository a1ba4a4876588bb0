"""Command-line pipeline: synth -> aggregate -> train -> eval, plus verify/bench.

Every subcommand accepts ``--config FILE`` (JSON) and individual flags;
flags win over config values. Outputs land in --out-dir, defaulting to the
AGGLEARN_OUT_DIR environment variable or the working directory. Artifacts
carry the sha256 hash of the resolved configuration that produced them
(embedded for JSON artifacts, sidecar ``<name>.meta.json`` for CSV/JSONL
files whose schema is fixed).

Exit codes: 0 success, 1 usage or configuration error, 2 runtime abort,
3 verification failure.
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
from .evaluation import accuracy, group_accuracy_mil, matched_accuracy
from .models import Classifier
from .posteriors import brute_force_posterior, group_posterior
from .tasks import TASKS, Task
from .training import TrainConfig, TrainingAbortError, default_flags, train
from .verify import SUITES, random_etas, random_z, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


class UsageError(ValueError):
    pass


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _out_dir(value: str | None) -> str:
    out = value or os.environ.get("AGGLEARN_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    return doc


def _resolve(args: argparse.Namespace, config: dict, fields: list[str]) -> dict:
    """Merge config-file values and CLI flags; flags win when given."""
    resolved = {}
    for name in fields:
        flag = getattr(args, name, None)
        resolved[name] = flag if flag is not None else config.get(name)
    return resolved


def _require(resolved: dict, *names: str) -> None:
    for name in names:
        if resolved.get(name) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _build_task(resolved: dict) -> Task:
    _require(resolved, "task")
    kind = resolved["task"]
    if kind not in TASKS:
        raise UsageError(f"unknown task kind {kind!r}; expected one of {list(TASKS)}")
    spec = TASKS[kind]
    m = resolved.get("m")
    if m is None:
        m = spec.m
    if m is None:
        raise UsageError(f"task {kind!r} needs an explicit --m")
    k = spec.k or resolved.get("k")
    if k is None:
        raise UsageError("missing required option --k")
    return Task(kind, m=int(m), k=int(k))


def cmd_synth(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    fields = ["k", "d", "n", "seed", "means", "spreads", "prior", "name"]
    resolved = _resolve(args, config, fields)
    _require(resolved, "k", "d", "n")
    k, d, n = int(resolved["k"]), int(resolved["d"]), int(resolved["n"])
    if n < 1:
        raise UsageError("empty dataset requested")
    seed = int(resolved["seed"] or 0)
    means = resolved["means"]
    if means is None:
        # Evenly spaced directions at radius 3: separable but overlapping tails.
        angles = 2.0 * np.pi * np.arange(k) / k
        means = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        means = np.concatenate([means, np.zeros((k, d - 2))], axis=1) if d > 2 else means[:, :d]
    spreads = resolved["spreads"] if resolved["spreads"] is not None else [1.0] * k
    prior = resolved["prior"] if resolved["prior"] is not None else [1.0 / k] * k
    spec = SyntheticSpec(k=k, d=d, means=means, spreads=spreads, prior=prior, seed=seed)
    dataset = data_mod.generate_synthetic(spec, n)

    resolved["means"] = spec.means.tolist()
    resolved["spreads"] = spec.spreads.tolist()
    resolved["prior"] = spec.prior.tolist()
    out = _out_dir(args.out_dir)
    name = resolved["name"] or "dataset"
    csv_path = os.path.join(out, f"{name}.csv")
    data_mod.save_csv(dataset, csv_path)
    meta = {
        "config_hash": _config_hash(resolved),
        "spec": spec.to_json(),
        "n": n,
        "columns": {"label": "label"},
    }
    _write_json(csv_path + ".meta.json", meta)
    print(csv_path)
    return EXIT_OK


def cmd_aggregate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    fields = ["data", "task", "m", "k", "n_groups", "seed", "positive_label", "label_column", "name"]
    resolved = _resolve(args, config, fields)
    _require(resolved, "data", "n_groups")
    task = _build_task(resolved)
    dataset = data_mod.load_csv(resolved["data"], label_column=resolved["label_column"] or "label")
    observations = data_mod.sample_groups(
        dataset,
        task,
        m=task.m,
        n_groups=int(resolved["n_groups"]),
        seed=int(resolved["seed"] or 0),
        positive_label=resolved["positive_label"],
    )
    out = _out_dir(args.out_dir)
    name = resolved["name"] or f"{task.kind}_groups"
    obs_path = os.path.join(out, f"{name}.jsonl")
    data_mod.save_observations(observations, obs_path)
    resolved["m"], resolved["k"] = task.m, task.k
    _write_json(
        obs_path + ".meta.json",
        {"config_hash": _config_hash(resolved), "task": task.kind, "m": task.m, "k": task.k,
         "n_groups": len(observations), "label_names": dataset.label_names},
    )
    print(obs_path)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    fields = [
        "obs", "task", "m", "k", "arch", "method", "epochs", "warmup", "warmup_epochs",
        "confidence_cache", "batch_size", "learning_rate", "seed", "val_fraction", "profile", "name",
    ]
    resolved = _resolve(args, config, fields)
    _require(resolved, "obs")
    observations = data_mod.load_observations(resolved["obs"])
    if resolved.get("task") is None:
        resolved["task"] = observations[0].task_kind
    if resolved.get("m") is None:
        resolved["m"] = observations[0].m
    task = _build_task(resolved)
    if task.kind != observations[0].task_kind:
        raise UsageError(
            f"observations are for task {observations[0].task_kind!r}, not {task.kind!r}"
        )

    arch = resolved["arch"] or task.spec.arch
    head = task.spec.head
    d = observations[0].xs.shape[1]
    seed = int(resolved["seed"] or 0)

    profile = resolved["profile"] or "small"
    warmup, warmup_epochs, confidence_cache = default_flags(task, profile)
    # profile epoch budgets pair with the warm-up lengths above
    epochs = int(resolved["epochs"] or (200 if profile == "small" else 100))
    method = resolved["method"] or "uum"
    if method not in ("uum", "loglik"):
        raise UsageError("method must be 'uum' or 'loglik'")
    if resolved["warmup"] is not None:
        warmup = bool(resolved["warmup"])
    if resolved["warmup_epochs"] is not None:
        warmup_epochs = int(resolved["warmup_epochs"])
    if resolved["confidence_cache"] is not None:
        confidence_cache = bool(resolved["confidence_cache"])
    if method == "loglik":
        # The likelihood baseline is the warm-up branch run for every epoch.
        warmup, warmup_epochs = True, epochs
    warmup_epochs = min(warmup_epochs, epochs)

    train_config = TrainConfig(
        epochs=epochs,
        warmup=warmup,
        warmup_epochs=warmup_epochs,
        confidence_cache=confidence_cache,
        batch_size=int(resolved["batch_size"] or 128),
        learning_rate=resolved["learning_rate"],
        seed=seed,
        val_fraction=float(resolved["val_fraction"] if resolved["val_fraction"] is not None else 0.1),
    )
    resolved.update(train_config.to_json())
    resolved.update({"arch": arch, "head": head, "method": method, "m": task.m, "k": task.k})
    config_hash = _config_hash(resolved)

    model = Classifier.create(arch, head, d=d, k=task.k, seed=seed)
    result = train(observations, task, model, train_config)

    # class identities travel with the pipeline: the sampling step records
    # the source CSV's label-name order, and the checkpoint carries it on
    # to evaluation
    label_names = None
    obs_meta = str(resolved["obs"]) + ".meta.json"
    if os.path.exists(obs_meta):
        with open(obs_meta, "r", encoding="utf-8") as fh:
            label_names = json.load(fh).get("label_names")

    out = _out_dir(args.out_dir)
    name = resolved["name"] or f"{task.kind}_{method}"
    ckpt_path = os.path.join(out, f"{name}.checkpoint.json")
    result.model.save(
        ckpt_path,
        extra={"config_hash": config_hash, "task": task.kind, "label_names": label_names},
    )
    metrics_path = os.path.join(out, f"{name}.metrics.jsonl")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        for record in result.metrics:
            fh.write(json.dumps(record.to_json()) + "\n")
    _write_json(
        metrics_path + ".meta.json",
        {"config_hash": config_hash, "best_epoch": result.best_epoch},
    )
    print(ckpt_path)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    fields = ["checkpoint", "data", "fit_data", "fit_on_test", "task", "m", "k",
              "label_column", "obs", "positive_label", "name"]
    resolved = _resolve(args, config, fields)
    _require(resolved, "checkpoint", "data", "task")
    model = Classifier.load(resolved["checkpoint"])
    with open(resolved["checkpoint"], "r", encoding="utf-8") as fh:
        checkpoint_names = json.load(fh).get("label_names")
    if resolved.get("k") is None:
        resolved["k"] = model.k
    task = _build_task(resolved)
    if model.head != task.spec.head:
        raise UsageError(
            f"checkpoint head {model.head!r} does not fit task {task.kind!r} "
            f"(expects {task.spec.head!r})"
        )
    label_column = resolved["label_column"] or "label"
    test = data_mod.load_csv(resolved["data"], label_column=label_column)
    fit = data_mod.load_csv(resolved["fit_data"], label_column=label_column) if resolved["fit_data"] else None

    # per-file first-appearance indexing is arbitrary; align every split to
    # one name order (training-time order when the checkpoint carries it)
    canonical = checkpoint_names or (fit.label_names if fit is not None else test.label_names)
    test = test.relabel_to(canonical)
    if fit is not None:
        fit = fit.relabel_to(canonical)

    positive = resolved["positive_label"]
    labels = test.task_labels(task, positive)
    preds = model.predict(test.features)
    report: dict = {"task": task.kind, "label_names": canonical, "accuracy": accuracy(preds, labels)}
    if resolved["obs"]:
        report["group_accuracy"] = group_accuracy_mil(model, data_mod.load_observations(resolved["obs"]))

    # class matching counts classes 1..k, so the bag alphabet {0, 1} shifts up by one
    shift = 1 - task.label_values[0]
    perm = None  # fit the matching on the test split itself
    if not task.spec.identifiable:
        if fit is not None:
            fit_labels = fit.task_labels(task, positive) + shift
            _, perm = matched_accuracy(model.predict(fit.features) + shift, fit_labels, task.k)
        elif not resolved["fit_on_test"]:
            raise UsageError("matched accuracy needs --fit-data (validation split) or --fit-on-test")
    frac, perm = matched_accuracy(preds + shift, labels + shift, task.k, perm=perm)
    report["modified_accuracy"] = frac
    report["permutation"] = [int(p) for p in perm]

    report["config_hash"] = _config_hash(resolved)
    out = _out_dir(args.out_dir)
    name = resolved["name"] or f"{task.kind}_report"
    report_path = os.path.join(out, f"{name}.json")
    _write_json(report_path, report)
    print(report_path)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    summary = run_suite(args.suite, seed=args.seed or 0)
    print(json.dumps(summary, indent=2))
    return EXIT_OK if summary["passed"] else EXIT_VERIFY


def cmd_bench(args: argparse.Namespace) -> int:
    """Time each closed-form posterior against brute-force enumeration."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed or 0)))
    rows = []
    specs = [
        Task("pairwise", 2, 10),
        Task("triplet", 3, 10),
        Task("llp", 6, 10),
        Task("mil", 6, 2),
        Task("rank", 2, 10),
        Task("ordinal_triplet", 3, 10),
    ]
    repeats = int(args.repeats or 20)
    for task in specs:
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (or $AGGLEARN_OUT_DIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agglearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic mixture dataset")
    _add_common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--name")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("aggregate", help="sample aggregate observations from a dataset")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--task", choices=list(TASKS))
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n-groups", dest="n_groups", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--positive-label", dest="positive_label", type=int)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--name")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("train", help="train a classifier on aggregate observations")
    _add_common(p)
    p.add_argument("--obs")
    p.add_argument("--task")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--arch", choices=["linear", "mlp-300"])
    p.add_argument("--method", choices=["uum", "loglik"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup", type=int, help="1/0: log-likelihood warm-up phase")
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    p.add_argument("--confidence-cache", dest="confidence_cache", type=int, help="1/0")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--profile", choices=["small", "large"])
    p.add_argument("--name")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled data")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--fit-data", dest="fit_data", help="labeled split for fitting the class matching")
    p.add_argument("--fit-on-test", dest="fit_on_test", action="store_const", const=1,
                   help="fit the class matching on the test split itself")
    p.add_argument("--task")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--obs", help="bag observations for group-level accuracy")
    p.add_argument("--positive-label", dest="positive_label", type=int)
    p.add_argument("--name")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time closed-form posteriors vs enumeration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=20)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingAbortError, FloatingPointError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
