"""Randomized verification suites.

Four suites, each returning a machine-readable summary:

* ``oracle``   -- closed-form posteriors against brute-force enumeration,
                  plus row marginalization and normalization over the
                  aggregate label space;
* ``unbiased`` -- on a finite feature domain with known distributions, the
                  exact expectation of the weighted group loss equals the
                  fully supervised risk, for any fixed classifier;
* ``em``       -- the Jensen lower bound is tight at the posterior
                  responsibilities and never beaten by perturbed ones;
* ``grad``     -- analytic gradients of both training losses against
                  central finite differences, both architectures, all
                  heads.

``SUITES`` maps each name to its function. Every suite checks every kind
registered in ``TASKS``, so a new kind is verified without edits here.
Every suite is deterministic given its seed. Summaries carry the observed
maximum deviation next to the tolerance so regressions show up as numbers,
not just booleans.
"""

from __future__ import annotations

import numpy as np

from .losses import aggregate_loss, compute_weights, em_lower_bound, estep_omega, loglik_loss
from .models import Classifier
from .posteriors import brute_force_posterior, group_posterior
from .tasks import TASKS, Task, aggregate_label, enumerate_z

ORACLE_TOL = 1e-9
MARGINAL_TOL = 1e-9
NORMALIZATION_TOL = 1e-9
UNBIASED_TOL = 1e-9
EM_EQUALITY_TOL = 1e-9
EM_JENSEN_SLACK = 1e-12
GRAD_REL_TOL = 1e-5
FD_STEP = 1e-5

def _check(name: str, deviation: float, tolerance: float) -> dict:
    return {
        "name": name,
        "max_deviation": float(deviation),
        "tolerance": tolerance,
        "passed": bool(deviation <= tolerance),
    }


def _summarize(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "checks": checks, "passed": all(c["passed"] for c in checks)}


def registered_tasks(m: int, k: int) -> list[Task]:
    """One task per registered kind, with group size m and k classes
    wherever the kind leaves them free."""
    return [Task(kind, m=spec.m or m, k=spec.k or k) for kind, spec in TASKS.items()]


def _random_task(kind: str, rng: np.random.Generator) -> Task:
    spec = TASKS[kind]
    k = int(rng.integers(2, 6))
    m = spec.m or int(rng.integers(2, 7))
    return Task(kind, m=m, k=spec.k or k)


def random_etas(task: Task, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(task.k), size=task.m)


def random_z(task: Task, rng: np.random.Generator):
    """A uniform 0/1 bit, or the counts of uniformly drawn labels."""
    if not task.spec.counts:
        return int(rng.integers(0, 2))
    return aggregate_label(task, rng.integers(1, task.k + 1, size=task.m))


def oracle_suite(trials: int = 200, seed: int = 0) -> dict:
    """Closed forms vs enumeration, marginalization, and Z-normalization."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    checks = []
    for kind in TASKS:
        dev_oracle = 0.0
        dev_marginal = 0.0
        dev_normal = 0.0
        for _ in range(trials):
            task = _random_task(kind, rng)
            etas = random_etas(task, rng)
            z = random_z(task, rng)
            closed = group_posterior(task, etas, z)
            brute = brute_force_posterior(task, etas, z)
            dev_oracle = max(
                dev_oracle,
                abs(closed.pz - brute.pz),
                float(np.max(np.abs(closed.joint - brute.joint))),
            )
            dev_marginal = max(
                dev_marginal, float(np.max(np.abs(closed.joint.sum(axis=1) - closed.pz)))
            )
            total = sum(group_posterior(task, etas, zz).pz for zz in enumerate_z(task))
            dev_normal = max(dev_normal, abs(total - 1.0))
        checks.append(_check(f"oracle/{kind}", dev_oracle, ORACLE_TOL))
        checks.append(_check(f"marginalization/{kind}", dev_marginal, MARGINAL_TOL))
        checks.append(_check(f"normalization/{kind}", dev_normal, NORMALIZATION_TOL))
    return _summarize("oracle", checks)


def _finite_domain(rng: np.random.Generator, k: int, n_points: int = 5):
    """Random finite feature domain: points, p(x), and true p(y | x)."""
    points = rng.normal(size=(n_points, 2))
    px = rng.dirichlet(np.ones(n_points))
    cond = rng.dirichlet(np.ones(k), size=n_points)
    return points, px, cond


def _exact_estimator_expectation(task, points, px, cond, losses) -> float:
    """E[L_agg] by exhausting all feature tuples and aggregate labels.

    ``losses[x][j]`` is the classifier's per-class loss at domain point x;
    weights come from the true conditionals.
    """
    n_points = points.shape[0]
    m = task.m
    z_space = enumerate_z(task)
    expectation = 0.0
    for flat in range(n_points**m):
        idx = [(flat // n_points**i) % n_points for i in range(m)]
        p_tuple = float(np.prod(px[idx]))
        etas = cond[idx]
        for z in z_space:
            post = group_posterior(task, etas, z)
            weights = compute_weights(post)
            l_agg = float((weights * losses[idx]).sum()) / m
            expectation += p_tuple * post.pz * l_agg
    return expectation


def unbiased_suite(classifiers: int = 20, seed: int = 0) -> dict:
    """Exact E[L_agg] equals the supervised risk on finite domains."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    checks = []
    for task in registered_tasks(m=3, k=3):
        deviation = 0.0
        for trial in range(classifiers):
            points, px, cond = _finite_domain(rng, task.k)
            model = Classifier.create(
                "linear", task.spec.head, d=2, k=task.k, seed=int(rng.integers(0, 2**31))
            )
            losses = -np.log(np.atleast_2d(model.predict_proba(points)))
            risk = float((px[:, None] * cond * losses).sum())
            estimate = _exact_estimator_expectation(task, points, px, cond, losses)
            deviation = max(deviation, abs(estimate - risk))
        checks.append(_check(f"unbiased/{task.kind}", deviation, UNBIASED_TOL))
    return _summarize("unbiased", checks)


def em_suite(cases: int = 10, perturbations: int = 100, seed: int = 0) -> dict:
    """Jensen bound equality at the posterior responsibilities, and dominance."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    checks = []
    for task in registered_tasks(m=3, k=4):
        dev_equal = 0.0
        dev_jensen = 0.0
        for _ in range(cases):
            model = Classifier.create("linear", task.spec.head, d=3, k=task.k, seed=int(rng.integers(0, 2**31)))
            xs = rng.normal(size=(task.m, 3))
            z = random_z(task, rng)
            etas = np.atleast_2d(model.predict_proba(xs))
            post = group_posterior(task, etas, z)
            log_pz = float(np.log(post.pz))
            omega_star = estep_omega(task, etas, z)
            tight = em_lower_bound(task, xs, z, omega_star, model)
            dev_equal = max(dev_equal, abs(tight - log_pz))
            for _ in range(perturbations):
                omega = rng.dirichlet(np.ones(omega_star.shape[0]))
                bound = em_lower_bound(task, xs, z, omega, model)
                dev_jensen = max(dev_jensen, bound - log_pz)
        checks.append(_check(f"em-equality/{task.kind}", dev_equal, EM_EQUALITY_TOL))
        checks.append(_check(f"em-dominance/{task.kind}", dev_jensen, EM_JENSEN_SLACK))
    return _summarize("em", checks)


def _fd_gradient_error(loss_fn, model: Classifier, grads, rng, coords_per_array: int = 25) -> float:
    """Max-norm-scaled error between analytic grads and central differences.

    Checks a deterministic random coordinate sample of each parameter
    array (all coordinates when small); the scale is the gradient's own
    max magnitude, the standard guard against meaningless per-coordinate
    ratios at entries near zero.
    """
    params = model.parameters()
    scale = max(max(float(np.max(np.abs(g))) for g in grads), 1e-12)
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.reshape(-1)
        n = flat.shape[0]
        if n <= coords_per_array:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=coords_per_array, replace=False)
        for c in coords:
            keep = flat[c]
            flat[c] = keep + FD_STEP
            up = loss_fn()
            flat[c] = keep - FD_STEP
            down = loss_fn()
            flat[c] = keep
            numeric = (up - down) / (2.0 * FD_STEP)
            worst = max(worst, abs(numeric - g.reshape(-1)[c]) / scale)
    return worst


def grad_suite(seed: int = 0) -> dict:
    """Finite-difference validation of both losses on both architectures."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    checks = []
    for task in registered_tasks(m=4, k=3):
        worst = {"aggregate": 0.0, "loglik": 0.0}
        for arch in ("linear", "mlp-300"):
            model = Classifier.create(arch, task.spec.head, d=3, k=task.k, seed=int(rng.integers(0, 2**31)))
            xs = rng.normal(size=(task.m, 3))
            z = random_z(task, rng)
            weights = compute_weights(group_posterior(task, random_etas(task, rng), z))

            _, grads = aggregate_loss(xs, weights, model)
            err = _fd_gradient_error(lambda: aggregate_loss(xs, weights, model)[0], model, grads, rng)
            worst["aggregate"] = max(worst["aggregate"], err)

            _, grads = loglik_loss(task, xs, z, model)
            err = _fd_gradient_error(lambda: loglik_loss(task, xs, z, model)[0], model, grads, rng)
            worst["loglik"] = max(worst["loglik"], err)
        checks.append(_check(f"grad-aggregate/{task.kind}", worst["aggregate"], GRAD_REL_TOL))
        checks.append(_check(f"grad-loglik/{task.kind}", worst["loglik"], GRAD_REL_TOL))
    return _summarize("grad", checks)


SUITES = {"oracle": oracle_suite, "unbiased": unbiased_suite, "em": em_suite, "grad": grad_suite}


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one suite by name, or every suite with name="all"."""
    if name == "all":
        results = [suite(seed=seed) for suite in SUITES.values()]
        return {
            "suite": "all",
            "suites": results,
            "passed": all(r["passed"] for r in results),
        }
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {[*SUITES, 'all']}")
    return SUITES[name](seed=seed)
