"""The oracle's checks against answers worked out by hand."""

import numpy as np
import pytest

import oracle
from repro.quantiles.moments import MomentSketch


class FakeMoments:
    def __init__(self, n, lo, hi, mean, quantiles):
        self.n, self.minimum, self.maximum = n, lo, hi
        self._mean, self._quantiles = mean, quantiles

    def mean(self):
        return self._mean

    def quantile(self, q):
        return self._quantiles[oracle.QUANTILE_QS.index(q)]


ITEMS = np.array([1, 1, 1, 2, 2, 3])  # n=6; with k=2 the bound n/(k+1) is 2


def test_misra_gries_accepts_estimates_within_the_bound():
    oracle.check_misra_gries("mg", {1: 2, 2: 1}, ITEMS, k=2)  # misses 1, 1, 1
    oracle.check_misra_gries("mg", {}, np.array([5, 6, 7]), k=2)  # each true count 1 <= 1


@pytest.mark.parametrize(
    "counters",
    [{1: 4}, {1: 0, 2: 2}, {9: 1}],
    ids=["over-estimate", "miss of 3 exceeds bound 2", "item never seen"],
)
def test_misra_gries_rejects(counters):
    with pytest.raises(oracle.CheckFailed):
        oracle.check_misra_gries("mg", counters, ITEMS, k=2)


def test_rank_answers_bracket_ties():
    values = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
    # the median target 2.5 lies in the tie block of 2.0, ranks [1, 4]
    oracle.check_rank_answers("kll", values, [0.5], [2.0], eps=0.0)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_rank_answers("kll", values, [0.5], [3.0], eps=0.0)
    # 3.0 has 4 values below it: 4 - 0.4*5 = 2 <= 2.5
    oracle.check_rank_answers("kll", values, [0.5], [3.0], eps=0.4)


def test_moment_sketch_exact_statistics():
    values = np.array([0.5, 1.5, 4.0, 2.0])
    sketch = MomentSketch(k=6)
    sketch.update_batch(values.tolist())
    oracle.check_moment_sketch("moments", sketch, values)
    good = FakeMoments(4, 0.5, 4.0, 2.0, [0.6, 1.6, 3.0, 3.9])
    oracle.check_moment_sketch("fake", good, values)


@pytest.mark.parametrize(
    "fake",
    [
        FakeMoments(5, 0.5, 4.0, 2.0, [1, 2, 3, 3.9]),
        FakeMoments(4, 0.4, 4.0, 2.0, [1, 2, 3, 3.9]),
        FakeMoments(4, 0.5, 4.0, 2.1, [1, 2, 3, 3.9]),
        FakeMoments(4, 0.5, 4.0, 2.0, [1, 2, 3, 4.1]),
        FakeMoments(4, 0.5, 4.0, 2.0, [1, 3, 2, 3.9]),
    ],
    ids=["n", "min", "mean", "quantile above max", "quantiles fall"],
)
def test_moment_sketch_rejects(fake):
    with pytest.raises(oracle.CheckFailed):
        oracle.check_moment_sketch("fake", fake, np.array([0.5, 1.5, 4.0, 2.0]))


def test_window_n_allows_only_the_slack():
    epochs = np.array([0, 1, 2, 3, 4, 5])
    # window [3, 6) holds 3 records; one epoch of slack adds epoch 2
    for got in (3, 4):
        oracle.check_window_n("window", got, epochs, 3, 6, slack_epochs=1)
    for got in (2, 5):
        with pytest.raises(oracle.CheckFailed):
            oracle.check_window_n("window", got, epochs, 3, 6, slack_epochs=1)


def test_group_keys_must_equal_distinct_values():
    oracle.check_group_keys("groups", [("DE",), ("US",)], {("US",), ("DE",)})
    with pytest.raises(oracle.CheckFailed):
        oracle.check_group_keys("groups", [("DE",)], {("US",), ("DE",)})


def test_exact_n():
    oracle.check_n("n", 7, 7)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_n("n", 7, 8)
