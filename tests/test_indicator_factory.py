"""A 0/1 kind declared through ``indicator`` alone is a whole registry entry.

The kind below is built from ``pairwise_event`` and the factory, not copied
from ``TASKS["pairwise"]``: its stacked p(z) must give the single-group
posterior's bits, and the oracle and unbiasedness suites must pass for it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_stacked_pz import stacks

from agglearn import posteriors as kernels
from agglearn.posteriors import group_posterior
from agglearn.tasks import TASKS, TaskSpec
from agglearn.verify import SUITES

NEW_KIND = "agree"


@pytest.fixture()
def agree(monkeypatch):
    spec = TaskSpec(g=lambda y, k: [y[0] == y[1]], kernel=kernels.indicator(kernels.pairwise_event, 1), m=2, min_k=2)
    monkeypatch.setitem(TASKS, NEW_KIND, spec)


# the fixture only registers the kind, so sharing it across examples is safe
@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_stacked_pz_equals_the_posterior_pz(agree, data):
    task, etas, zs = data.draw(stacks(NEW_KIND))
    pz = task.spec.kernel(etas, zs, joint=False)[0]
    for g, z in enumerate(zs):
        assert pz[g] == group_posterior(task, etas[g].copy(), z).pz


@pytest.mark.parametrize("suite, sizes", [("oracle", {"trials": 50}), ("unbiased", {"classifiers": 3})])
def test_suites_pass_for_the_new_kind(agree, suite, sizes):
    checks = [c for c in SUITES[suite](seed=0, **sizes)["checks"] if c["name"].endswith(f"/{NEW_KIND}")]
    assert checks and all(c["passed"] for c in checks)
