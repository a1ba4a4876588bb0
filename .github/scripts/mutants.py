#!/usr/bin/env python3
"""Mutation runner: one-line faults of ``src/`` that the test suite must catch.

    python3 .github/scripts/mutants.py

Each entry of ``MUTANTS`` names a file, an exact old string, the new string that
replaces it, and a verdict: "killed" (some test must fail) or "equivalent: <reason>"
(no test can tell, for the reason given). Every old string must occur exactly once
in its file, checked for all entries before any run, so the list fails loudly when
the code moves. For each mutant the repository is copied to a temporary directory,
the one replacement applied there, and

    python -m pytest -x -q --deselect tests/test_mutant_list.py \
        --deselect tests/test_acceptance.py::TestCriterion7DeskScaleLearning

run in the copy (criterion 7, desk-scale learning, takes a minute and no mutant here
needs it; the list's own test would fail on any mutated copy). One line is printed per mutant: killed or survived, its verdict, the
seconds taken and the first failing test. The exit status is 1 when a mutant listed
as "killed" survives, 2 when an entry does not match exactly once. Standard library
only; the runs are sequential.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
# tests/test_mutant_list.py checks this list against the unmutated tree, so a mutated copy always fails it
COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "--deselect", "tests/test_mutant_list.py",
           "--deselect", "tests/test_acceptance.py::TestCriterion7DeskScaleLearning"]
TIMEOUT_S = 1800  # a run still going after this long hangs, and counts as killed
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_tmp", "*.egg-info")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    verdict: str  # "killed" or "equivalent: <reason>"


MUTANTS = [
    # the rules tests/test_rule_pins.py pins, one test each
    Mutant("src/agglearn/training.py",
           "    if n_val >= len(observations):\n        n_val = len(observations) - 1\n", "",
           "killed"),
    Mutant("src/agglearn/losses.py",
           "if np.any(omega < -1e-12) or abs(omega.sum() - 1.0) > 1e-9:",
           "if abs(omega.sum() - 1.0) > 1e-9:",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "if np.any(np.diff(cum) < -1e-9):", "if np.any(np.diff(cum) < -1e-3):",
           "killed"),
    # the row-sum tolerance, pinned for group_posterior, is the probability-row rule's own
    Mutant("src/agglearn/posteriors.py",
           "np.abs(etas.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-6",
           "np.abs(etas.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-2",
           "killed"),
    Mutant("src/agglearn/tasks.py",
           "MAX_COMPOSITIONS = 10**6", "MAX_COMPOSITIONS = 10**9",
           "killed"),
    # the probability-row rule, posteriors.parse_probs
    Mutant("src/agglearn/posteriors.py",
           '    if k is not None and etas.shape[1] != k:\n'
           '        raise ValueError(f"got {etas.shape[1]} classes for a task with {k}")\n', "",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           '    if etas.ndim != 2:\n        raise ValueError("etas must be (m, k)")\n', "",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "    etas = parse_probs(etas, task.k)  # checked, never changed: the oracle's arithmetic is its own\n", "",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           '    if not etas.min(initial=0.0) >= 0.0:\n        raise ValueError("probability entries must be nonnegative")\n',
           "",
           "killed"),  # test_every_entry_point_refuses_malformed_rows_with_one_message[...-rows of (2, -1)]
    # written as the label the caller holds: a numpy integer or array is not JSON
    Mutant("src/agglearn/data.py",
           '"z": z, "task": obs.task_kind', '"z": obs.z, "task": obs.task_kind',
           "killed"),
    # the observation-file rule, data.check_observation_file, run by save and by load
    Mutant("src/agglearn/data.py",
           "            if obs.task_kind != kind:\n"
           '                raise ValueError(f"mixed task kinds in one file: {kind!r} and {obs.task_kind!r}")\n', "",
           "killed"),
    Mutant("src/agglearn/data.py",
           "            if obs.xs.shape[1] != width:\n"
           '                raise ValueError(f"mixed feature widths in one file: {width} and {obs.xs.shape[1]}")\n', "",
           "killed"),
    Mutant("src/agglearn/data.py",
           "            if z_len != counts:\n"
           '                raise ValueError(f"mixed count-vector lengths in one file: {counts} and {z_len}")\n', "",
           "killed"),
    Mutant("src/agglearn/data.py",
           '    if not zs:\n        raise ValueError(f"no observations in {source}")\n', "",
           "killed"),
    Mutant("src/agglearn/data.py",
           "    if (bad := first_nonfinite([obs.xs for obs in checked])) is not None:\n"
           '        raise ValueError(f"{prefix}{keys[bad]}: non-finite feature value")\n', "",
           "killed"),
    Mutant("src/agglearn/data.py",
           '    _, zs = check_observation_file(enumerate(observations), "observation ", "the list to save")\n',
           "    zs = [obs.z for obs in observations]\n",
           "killed"),
    # datasets: the Dataset checks, the CSV header rule and load_csv's non-finite row
    Mutant("src/agglearn/data.py",
           "        if (bad := first_nonfinite(self.features)) is not None:\n"
           '            raise ValueError(f"feature row {bad} has a non-finite value")\n', "",
           "killed"),
    Mutant("src/agglearn/data.py",
           "if not valid_label_names(self.label_names, self.k):", "if not valid_label_names(self.label_names):",
           "killed"),
    Mutant("src/agglearn/models.py",
           "and len(set(names)) == len(names) == (k or len(names))", "and len(names) == (k or len(names))",
           "killed"),
    Mutant("src/agglearn/data.py",
           "if (count := header.count(label_column)) != 1:", "if (count := header.count(label_column)) == 0:",
           "killed"),
    Mutant("src/agglearn/data.py",
           '    if len(header) < 2:\n        raise ValueError(f"{where}header {header} has no feature column")\n', "",
           "killed"),
    Mutant("src/agglearn/data.py",
           "    if (bad := first_nonfinite(features)) is not None:\n"
           '        raise ValueError(f"{path}:{line_nos[bad]}: non-numeric feature: non-finite value")\n', "",
           "killed"),
    # checkpoints: Classifier.save refuses what load_checkpoint refuses
    Mutant("src/agglearn/models.py",
           "        if own := sorted(doc.keys() & (extra or {}).keys()):\n"
           '            raise ValueError(f"extra key {own[0]!r} names a checkpoint field")\n', "",
           "killed"),
    Mutant("src/agglearn/models.py",
           "        doc.update(extra or {})\n"
           '        if not valid_label_names(doc.get("label_names")):\n'
           '            raise ValueError("label_names must be null or a list of distinct strings")\n',
           "        doc.update(extra or {})\n",
           "killed"),
    # the CLI's config and usage checks
    Mutant("src/agglearn/cli.py",
           "unknown = sorted(set(config) - set(options))", "unknown = []",
           "killed"),
    Mutant("src/agglearn/cli.py",
           'if typed not in flag.get("choices", [0, 1] if switch else [typed]):',
           "if switch and typed not in [0, 1]:",
           "killed"),
    Mutant("src/agglearn/cli.py",
           "        value = int(value)\n", "        pass\n",
           "killed"),
    Mutant("src/agglearn/cli.py",
           '    if m is None:\n        raise ValueError(f"task {kind!r} needs an explicit --m")\n', "",
           "killed"),
    Mutant("src/agglearn/cli.py",
           "        if not valid_label_names(label_names):\n"
           '            raise ValueError(f"{obs_meta}: label_names must be null or a list of distinct strings")\n', "",
           "killed"),
    # one precedence rule: a given value reaches the library's check or is refused, never replaced
    # (tests/test_cli_precedence.py)
    Mutant("src/agglearn/cli.py",
           "    if resolved.get(\"positive_label\") is not None and spec.first_label != 0:\n"
           '        raise ValueError(f"--positive-label names the class a bag reads as 1; task {kind!r} has no bags")\n',
           "",
           "killed"),  # test_positive_label_is_refused_for_a_kind_without_bags
    Mutant("src/agglearn/cli.py",
           'k = spec.k if resolved.get("k") is None else resolved["k"]', 'k = spec.k or resolved.get("k")',
           "killed"),  # test_aggregate_refuses_a_k_the_kind_fixes
    Mutant("src/agglearn/cli.py",
           '    if resolved["method"] == "loglik" and (resolved["warmup"] is not None'
           ' or resolved["warmup_epochs"] is not None):\n'
           '        raise ValueError("--method loglik warms up for every epoch; drop --warmup and --warmup-epochs")\n',
           "",
           "killed"),  # test_loglik_refuses_a_given_warm_up
    Mutant("src/agglearn/cli.py",
           "TrainConfig(**config)", 'TrainConfig(**config | {"warmup_epochs": min(config["warmup_epochs"], config["epochs"])})',
           "killed"),  # test_a_given_warm_up_longer_than_the_run_is_refused
    Mutant("src/agglearn/cli.py",
           'if len(fits) != (matched := task.spec.symmetry != "identity"):',
           'if len(fits) < (matched := task.spec.symmetry != "identity"):',
           "killed"),  # test_a_matched_kind_refuses_both_fit_flags
    Mutant("src/agglearn/cli.py",
           'for key in ("fit_data", "fit_on_test") if resolved[key]]',
           'for key in ("fit_data", "fit_on_test") if resolved[key] and task.spec.symmetry != "identity"]',
           "killed"),  # test_an_identity_kind_refuses_a_fit_flag_before_reading_it
    # one output rule and one empty-value rule (tests/test_cli_outputs.py)
    Mutant("src/agglearn/cli.py",
           'out = args.out_dir or os.environ.get("AGGLEARN_OUT_DIR") or "."', 'out = args.out_dir or "."',
           "killed"),  # test_out_dir_env_var
    Mutant("src/agglearn/cli.py",
           '{"config_hash": _config_hash(resolved), **fields}', "fields",
           "killed"),  # test_metadata_carries_config_hash
    Mutant("src/agglearn/cli.py",
           'for name in ("config", "out_dir", *options):', "for name in options:",
           "killed"),  # test_an_empty_flag_is_refused_before_any_file_is_read[synth --out-dir]
    Mutant("src/agglearn/cli.py",
           'for name in ("config", "out_dir", *options):', 'for name in ("config", "out_dir"):',
           "killed"),  # test_an_empty_flag_is_refused_before_any_file_is_read[synth --name]
    Mutant("src/agglearn/cli.py",
           '    if value == "":\n        raise ValueError(f"{path}: empty value for config key {name!r}")\n', "",
           "killed"),  # test_an_empty_config_value_is_refused_naming_the_file_and_key
    Mutant("src/agglearn/cli.py",
           'default if resolved["name"] is None else resolved["name"]', 'resolved["name"] or default',
           "equivalent: _resolve refuses an empty --name or config name first, so only None reaches the fallback"),
    # one default rule: defaults fill the gaps before the hash, train's config is one overlay, and a
    # given value the run would not use is refused (tests/test_cli_defaults.py unless named)
    Mutant("src/agglearn/cli.py",
           '(given, value, (flag or {}).get("default"))', "(given, value)",
           "killed"),  # TestDefaultsAreHashed::test_synth
    Mutant("src/agglearn/cli.py",
           '**flag | {"default": None})', "**flag)",
           "killed"),  # test_cli_precedence.py::TestWarmUp::test_loglik_refuses_a_warm_up_from_the_config_file
    Mutant("src/agglearn/cli.py",
           "    config.update({f.name: resolved[f.name] for f in fields(TrainConfig) if resolved[f.name] is not None})\n",
           "",
           "killed"),  # TestUnusedWarmUp::test_a_flag_the_run_would_not_use_is_refused[pairwise-flags0]
    Mutant("src/agglearn/cli.py",
           'if (resolved["warmup"] or resolved["warmup_epochs"]) and', 'if resolved["warmup"] and',
           "killed"),  # TestUnusedWarmUp::test_a_flag_the_run_would_not_use_is_refused[pairwise-flags0]
    Mutant("src/agglearn/cli.py",
           'if (resolved["warmup"] or resolved["warmup_epochs"]) and', 'if resolved["warmup_epochs"] and',
           "killed"),  # TestUnusedWarmUp::test_a_flag_the_run_would_not_use_is_refused[llp-flags1]
    Mutant("src/agglearn/cli.py",
           "os.path.basename(resolved[\"name\"]) != resolved[\"name\"]", "False",
           "killed"),  # TestNameWithADirectory::test_a_name_with_a_path_separator_is_refused
    Mutant("src/agglearn/data.py",
           "if value is None or value.shape != shape:", "if value is None:",
           "killed"),
    # the assignment solve behind matched accuracy
    Mutant("src/agglearn/evaluation.py",
           "                    u[owner[j]] += delta\n", "                    u[owner[j]] -= delta\n",
           "killed"),
    Mutant("src/agglearn/evaluation.py",
           "    return [j for _, j in sorted(zip(owner[1:], range(n)))]",
           "    return [owner[j] - 1 for j in range(1, n + 1)]",
           "killed"),
    # the LLP count box over the classes a bag holds: a zero-count class gets an all-sentinel row
    # (tests/test_llp_many_classes.py::test_the_plan_over_held_classes_equals_the_plan_over_every_class)
    Mutant("src/agglearn/posteriors.py",
           "down = np.full((len(z), volume), volume, dtype=np.int32)",
           "down = np.zeros((len(z), volume), dtype=np.int32)",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "held = [j for j, c in enumerate(z) if c] or [0]", "held = [j for j, c in enumerate(z) if c]",
           "killed"),
    # the LLP box bound, checked where a plan is built (tests/test_llp_plan_bound.py); the mutant lets
    # a box pass up to 100 cells over the bound, since with no check at all tests/test_llp_inputs.py
    # would build its 4.8e8-cell box and run out of memory
    Mutant("src/agglearn/posteriors.py",
           "    if (len(z) + 2) * volume > MAX_LLP_BOX:\n", "    if (len(z) + 2) * volume > MAX_LLP_BOX + 100:\n",
           "killed"),  # test_the_plan_builder_refuses_a_box_over_the_bound
    # the LLP plan cache: least recently used first, bounded in bytes
    Mutant("src/agglearn/posteriors.py",
           "            _LLP_PLANS[z] = _LLP_PLANS.pop(z)\n", "",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "if plan[1].nbytes <= LLP_PLAN_CACHE_BYTES:", "if True:",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "del _LLP_PLANS[next(iter(_LLP_PLANS))]", "del _LLP_PLANS[next(reversed(_LLP_PLANS))]",
           "killed"),
    # the stacked kernels: the complement rule, the clamp, joint=False and the stack-of-one view
    Mutant("src/agglearn/posteriors.py",
           "np.where(flip, 1.0 - p, p)", "np.where(flip, p, 1.0 - p)",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "np.where(np.reshape(flip, (-1, 1, 1)), marginals - own, own)",
           "np.where(np.reshape(flip, (-1, 1, 1)), own, marginals - own)",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "own = marginals - own if every else", "own = own if every else",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "np.maximum(own, 0.0) if joint else None", "own if joint else None",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "np.empty(np.shape(etas)) if joint else None", "np.empty(np.shape(etas))",
           "killed"),
    Mutant("src/agglearn/posteriors.py",
           "return GroupPosterior(pz=float(pz[0]), joint=joint[0])", "return GroupPosterior(pz=float(pz[0]), joint=joint)",
           "killed"),
    # the likelihood pass: checked once per run, p(z) alone, logs added left to right
    # (tests/test_likelihood_pass.py, one test each)
    Mutant("src/agglearn/training.py",
           "    if zs is None:\n        zs = check_observations(observations, task, model.d)\n",
           "    if zs is None:\n        zs = [obs.z for obs in observations]\n",
           "killed"),  # test_a_direct_call_is_still_checked
    Mutant("src/agglearn/training.py",
           "    if zs is None:\n", "    if True:\n",
           "killed"),  # test_train_checks_its_observations_once
    Mutant("src/agglearn/training.py",
           "float(np.cumsum(np.log(np.maximum(pz, PZ_FLOOR)))[-1])", "float(np.sum(np.log(np.maximum(pz, PZ_FLOOR))))",
           "killed"),  # test_the_pass_adds_its_logs_left_to_right
    Mutant("src/agglearn/training.py",
           "observed_likelihood(task, val_obs, model, val_zs)", "observed_likelihood(task, val_obs, model, train_zs)",
           "killed"),  # test_the_epoch_records_score_each_split_with_its_own_labels
    Mutant("src/agglearn/posteriors.py",
           "np.stack([agree, agree], axis=-2) if joint else None", "np.stack([agree, agree], axis=-2)",
           "killed"),  # test_p_alone_builds_no_joint_and_keeps_its_bits
    # the update path: warm-up length, batch mean, gradient forms, the EM refusal
    Mutant("src/agglearn/training.py",
           "warm = epoch <= config.warmup_epochs", "warm = epoch < config.warmup_epochs",
           "killed"),  # test_acceptance.py::TestCriterion9AlgorithmFidelity::test_full_warmup_is_bit_identical_to_likelihood_baseline
    Mutant("src/agglearn/training.py",
           "adam_step(model, [g / contributed for g in grads], opt)", "adam_step(model, grads, opt)",
           "killed"),  # test_acceptance.py::TestCriterion9AlgorithmFidelity::test_full_warmup_is_bit_identical_to_likelihood_baseline
    Mutant("src/agglearn/losses.py",
           'return grad[:, 1:2] if model.head == "sigmoid" else grad', 'return grad[:, 0:1] if model.head == "sigmoid" else grad',
           "killed"),  # test_acceptance.py::TestCriterion5Gradients::test_finite_difference_agreement
    Mutant("src/agglearn/losses.py",
           'dlogits = np.einsum("ij,ijc->ic", weights, np.asarray(dvalues)) / m',
           'dlogits = np.einsum("ij,ijc->ic", weights, np.asarray(dvalues))',
           "killed"),  # test_losses.py::TestAggregateLoss::test_custom_instance_loss_plugs_in
    Mutant("src/agglearn/losses.py",
           '    if not total > 0.0:\n        raise DegenerateGroupError("no consistent labeling has usable probability")\n', "",
           "killed"),  # test_refusals_reached.py::test_refusal_is_reached[empty S(z)]
    # the 0/1 kinds' events (triplet, mil, rank) against the enumeration oracle
    Mutant("src/agglearn/posteriors.py",
           "hit = pair12 * (1.0 - etas[..., 2, :])", "hit = pair12 * etas[..., 2, :]",
           "killed"),  # test_acceptance.py::TestCriterion1And2Oracle::test_oracle_equivalence_marginalization_normalization
    Mutant("src/agglearn/posteriors.py",
           "out[..., 0] = pz[..., None]", "out[..., 1] = pz[..., None]",
           "killed"),  # test_acceptance.py::TestCriterion1And2Oracle::test_oracle_equivalence_marginalization_normalization
    Mutant("src/agglearn/posteriors.py",
           "below1 = cum[..., 0, :-1] * probs[..., 1, :]", "below1 = cum[..., 0, 1:] * probs[..., 1, :]",
           "killed"),  # test_acceptance.py::TestCriterion1And2Oracle::test_oracle_equivalence_marginalization_normalization
    # the two floors that survive (tests/test_floor_pins.py, one test each)
    Mutant("src/agglearn/losses.py",
           "pz = max(post.pz, PZ_FLOOR)", "pz = max(post.pz, 1e-300)",
           "killed"),  # test_the_likelihood_loss_floors_p_z
    Mutant("src/agglearn/losses.py",
           "values = -np.log(np.maximum(probs, PROB_EPS))", "values = -np.log(np.maximum(probs, 1e-300))",
           "killed"),  # test_the_cross_entropy_value_floors_the_probability
    # one warm-up form (tests/test_warmup_form.py) and the "all" summary of verify (tests/test_verify_all.py)
    Mutant("src/agglearn/training.py",
           "        self.warmup_epochs = self.warmup_epochs if self.warmup else 0\n", "",
           "killed"),  # TestTrainConfig::test_every_way_to_write_no_warm_up_is_one_config
    Mutant("src/agglearn/verify.py",
           '"passed": all(r["passed"] for r in results)', '"passed": any(r["passed"] for r in results)',
           "killed"),  # test_the_all_summary_lists_every_suite_in_order_and_fails_with_one
    # equivalent, or nearly so
    Mutant("src/agglearn/training.py",
           "            val_metric = likelihood / n_train\n",
           "            val_metric = likelihood / len(observations)\n",
           "equivalent: the branch runs only with no validation split, where n_train == len(observations)"),
    Mutant("src/agglearn/losses.py",
           "if not (sums > 0.0).all():", "if not (sums > 0.0).any():",
           "equivalent: every joint row sums to the same p(z), so one positive row means all are"),
    Mutant("src/agglearn/posteriors.py",
           "return np.maximum(p, 0.0), np.maximum(own, 0.0) if joint else None",
           "return p, np.maximum(own, 0.0) if joint else None",
           "equivalent: only a p(z) cancelled below zero differs, and the likelihood floors p(z) at PZ_FLOOR"),
]


def entry_error() -> str | None:
    """What is wrong with the first entry whose old string does not occur exactly once or whose verdict is malformed."""
    for number, mutant in enumerate(MUTANTS, start=1):
        count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            return f"mutant {number} ({mutant.file}): the old string occurs {count} times, not once:\n{mutant.old}"
        if mutant.verdict != "killed" and not mutant.verdict.startswith("equivalent: "):
            return f"mutant {number}: verdict {mutant.verdict!r} is neither 'killed' nor 'equivalent: <reason>'"
    return None


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, first failing test) of the suite run in a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / mutant.file
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        try:
            done = subprocess.run(COMMAND, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode != 0, failed[0] if failed else f"exit status {done.returncode}"


def main() -> int:
    if error := entry_error():
        print(error, file=sys.stderr)
        return 2
    start = time.perf_counter()
    escaped = 0
    for number, mutant in enumerate(MUTANTS, start=1):
        began = time.perf_counter()
        killed, by = run(mutant)
        expected = mutant.verdict.split(":")[0]
        escaped += not killed and expected == "killed"
        outcome = "killed" if killed else "SURVIVED" if expected == "killed" else "survived"
        where = f" by {by}" if killed else ""
        print(f"mutant {number:2d} {mutant.file}: {outcome} ({expected}) in {time.perf_counter() - began:.0f} s{where}",
              flush=True)
    print(f"{len(MUTANTS)} mutants, {escaped} listed as killed survived, {time.perf_counter() - start:.0f} s in all")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
