"""The factorial-search matching oracle refuses class counts past its bound."""

import numpy as np
import pytest

from agglearn import evaluation
from agglearn.evaluation import MAX_BRUTE_FORCE_CLASSES, brute_force_matching


def test_nine_classes_pass_the_bound(monkeypatch):
    # one candidate instead of 9! keeps the test fast; the bound is what is checked
    monkeypatch.setattr(evaluation.itertools, "permutations", lambda items: iter([tuple(items)]))
    frac, perm = brute_force_matching(np.eye(MAX_BRUTE_FORCE_CLASSES, dtype=np.int64))
    assert MAX_BRUTE_FORCE_CLASSES == 9
    assert frac == 1.0
    np.testing.assert_array_equal(perm, np.arange(9))


def test_ten_classes_raise_before_any_permutation(monkeypatch):
    def no_search(*args):
        raise AssertionError("a permutation was tried")

    monkeypatch.setattr(evaluation.itertools, "permutations", no_search)
    with pytest.raises(ValueError, match="exceeds the bound"):
        brute_force_matching(np.eye(10, dtype=np.int64))
