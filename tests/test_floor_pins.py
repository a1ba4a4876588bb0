"""The two value floors that survive, pinned at their constants.

* ``loglik_loss`` floors p(z) at ``PZ_FLOOR`` = 1e-12 before the log: a negative bag of
  64 instances at eta = (0.5, 0.5) has p(z) = 0.5**64 = 5.4e-20, so its loss is -log(1e-12).
* ``aggregate_loss``'s cross-entropy floors each probability at ``PROB_EPS`` = 1e-12: a
  sigmoid logit of -40 gives class 1 the probability 4.2e-18, so its value is -log(1e-12).

Each test fails when its floor moves to 1e-300.
"""

import numpy as np

from agglearn.losses import aggregate_loss, loglik_loss
from agglearn.models import Classifier
from agglearn.posteriors import group_posterior
from agglearn.tasks import Task


def bag_model(bias: float) -> Classifier:
    """A linear sigmoid model whose one logit is ``bias`` for every instance."""
    return Classifier("linear", "sigmoid", d=2, k=2, layers=[(np.zeros((2, 1)), np.array([bias]))])


def test_the_likelihood_loss_floors_p_z():
    task, xs = Task("mil", 64, 2), np.ones((64, 2))
    model = bag_model(0.0)
    assert group_posterior(task, model.predict_proba(xs), 0).pz == 0.5**64
    loss, grads = loglik_loss(task, xs, 0, model)
    assert loss == -np.log(1e-12)
    assert all(np.isfinite(g).all() for g in grads)


def test_the_cross_entropy_value_floors_the_probability():
    model = bag_model(-40.0)
    xs = np.ones((1, 2))
    assert 0.0 < model.predict_proba(xs)[0, 1] < 1e-17
    loss, _ = aggregate_loss(xs, [[0.0, 1.0]], model)
    assert loss == -np.log(1e-12)
