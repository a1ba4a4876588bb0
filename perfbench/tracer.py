"""Spans and counts recorded around agglearn's layer boundaries.

``Tracer.installed()`` replaces a fixed set of module globals and
``Classifier`` methods with wrappers for the duration of a ``with`` block
and puts the originals back on exit, so nothing in the program is edited
and an untraced run executes the original functions. Each wrapper appends
one span ``(name, start, end, parent)`` to an in-memory list and bumps the
counts for its layer; self times are derived from the spans afterwards.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

import agglearn.losses
import agglearn.training
from agglearn.models import Classifier
from workloads import box_volume

ROOT = "training.train"


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _count_posterior(counts: Counter, args) -> None:
    task, etas, z = args[:3]
    counts["posteriors.group_posterior.instances"] += _rows(etas)
    if task.kind == "llp":
        counts["posteriors.llp.box_volume"] += box_volume(z)


def _count_forward(counts: Counter, args) -> None:
    counts["models.forward_cached.rows"] += _rows(args[1])


# (owner, attribute, span name, extra counter). training.py imports these
# functions by name, so its module globals are what train() calls;
# losses.group_posterior is the one loglik_loss calls.
TARGETS = (
    (agglearn.training, "group_posterior", "posteriors.group_posterior", _count_posterior),
    (agglearn.losses, "group_posterior", "posteriors.group_posterior", _count_posterior),
    (agglearn.training, "compute_weights", "losses.compute_weights", None),
    (agglearn.training, "aggregate_loss", "losses.aggregate_loss", None),
    (agglearn.training, "loglik_loss", "losses.loglik_loss", None),
    (agglearn.training, "adam_step", "models.adam_step", None),
    (agglearn.training, "observed_likelihood", "training.observed_likelihood", None),
    (Classifier, "forward_cached", "models.forward_cached", _count_forward),
    (Classifier, "backward", "models.backward", None),
    (Classifier, "predict_proba", "models.predict_proba", None),
)


def originals() -> list:
    """The objects currently bound at every traced name."""
    return [vars(owner)[attr] for owner, attr, _, _ in TARGETS]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, count):
        spans, counts, stack = self.spans, self.counts, self._stack
        calls = name + ".calls"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[calls] += 1
            if count is not None:
                count(counts, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = originals()
        try:
            for (owner, attr, name, count), fn in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for (owner, attr, _, _), fn in zip(TARGETS, saved):
                setattr(owner, attr, fn)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span of its own (the root span around train())."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def total(self, name: str, parent_name: str | None = None) -> float:
        """Inclusive time of spans called ``name`` (only those directly under
        a ``parent_name`` span, when given)."""
        return sum(
            end - start
            for n, start, end, parent in self.spans
            if n == name and (parent_name is None or (parent >= 0 and self.spans[parent][0] == parent_name))
        )

    def calls_under(self, name: str, parent_name: str) -> int:
        return sum(
            1
            for n, _, _, parent in self.spans
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name
        )
