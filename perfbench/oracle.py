"""Exact answers from the generated inputs, and the checks against them.

Everything here is computed with numpy straight from the arrays the
benchmark generated — never from the library — and each check is a
property the paper's summaries must have:

* every range, group and aggregation root has the exact ``n``;
* a Misra-Gries estimate lies in ``[true - n/(k+1), true]``;
* a KLL rank answer is within ``KLL_EPS_PER_K / k`` of the exact rank
  (ties count on either side);
* the moment sketch's ``n``, min, max and mean are exact, and its
  quantiles lie in ``[min, max]`` and rise with ``q``;
* a trailing-window answer covers the exact window and at most
  ``floor(window_eps * W)`` older epochs.

A failed check raises :class:`CheckFailed`; the benchmark then reports
``correct: false``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

#: KLL rank-error envelope, as a multiple of 1/k.  The analysed bound
#: for a KLL sketch of parameter k is about 1.7/k at constant failure
#: probability; 5/k leaves room for the merge trees the store builds.
KLL_EPS_PER_K = 5.0

#: relative tolerance for the moment sketch's mean (a float sum)
MEAN_RTOL = 1e-9

QUANTILE_QS = (0.1, 0.5, 0.9, 0.99)


class CheckFailed(AssertionError):
    """An output of the program disagreed with the exact answer."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_n(name: str, got: int, expected: int) -> None:
    check(int(got) == int(expected), f"{name}: n={got}, exact n={expected}")


def check_misra_gries(
    name: str, counters: Mapping, items: np.ndarray, k: int
) -> None:
    """Every estimate in ``[true - n/(k+1), true]``, for every item.

    ``items`` are non-negative integer ids.  ``counters`` maps monitored
    items to estimates; an item not in it is estimated 0, so its true
    count must itself be within the bound.
    """
    n = len(items)
    if n == 0:
        check(not counters, f"{name}: counters on an empty range")
        return
    true_counts = np.bincount(items)
    estimates = np.zeros(len(true_counts), dtype=np.int64)
    for item, estimate in counters.items():
        item = int(item)
        check(
            0 <= item < len(true_counts) and true_counts[item] > 0,
            f"{name}: counter for item {item!r} that never occurred",
        )
        estimates[item] = estimate
    bound = n / (k + 1)
    over = estimates > true_counts
    check(not over.any(), f"{name}: MG over-estimates {int(over.sum())} item(s)")
    worst = int((true_counts - estimates).max())
    check(
        worst <= bound,
        f"{name}: MG under-estimate {worst} exceeds n/(k+1)={bound:.1f}",
    )


def check_rank_answers(
    name: str,
    values: np.ndarray,
    qs: Sequence[float],
    answers: Sequence[float],
    eps: float,
) -> None:
    """Each ``quantile(q)`` answer ``v`` has an exact rank near ``q*n``.

    ``count(x < v) - eps*n <= q*n <= count(x <= v) + eps*n``; the two
    counts bracket the rank of ``v`` when it has ties.
    """
    n = len(values)
    slack = eps * n
    for q, v in zip(qs, answers):
        below = int(np.count_nonzero(values < v))
        upto = int(np.count_nonzero(values <= v))
        target = q * n
        check(
            below - slack <= target <= upto + slack,
            f"{name}: quantile({q})={v!r} has exact rank [{below}, {upto}] "
            f"of n={n}, outside {target:.0f} +- {slack:.0f}",
        )


def check_moment_sketch(name: str, sketch, values: np.ndarray) -> None:
    """Exact n/min/max/mean; quantiles inside [min, max] and monotone."""
    check_n(name, sketch.n, len(values))
    if len(values) == 0:
        return
    check(sketch.minimum == float(values.min()), f"{name}: min differs")
    check(sketch.maximum == float(values.max()), f"{name}: max differs")
    exact_mean = float(np.mean(values))
    check(
        math.isclose(sketch.mean(), exact_mean, rel_tol=MEAN_RTOL),
        f"{name}: mean {sketch.mean()!r} vs exact {exact_mean!r}",
    )
    answers = [sketch.quantile(q) for q in QUANTILE_QS]
    check(
        all(values.min() <= a <= values.max() for a in answers),
        f"{name}: quantile outside [min, max]: {answers}",
    )
    check(
        all(a <= b for a, b in zip(answers, answers[1:])),
        f"{name}: quantiles fall as q rises: {answers}",
    )


def check_group_keys(name: str, got: Iterable, expected: Iterable) -> None:
    got, expected = set(got), set(expected)
    check(
        got == expected,
        f"{name}: group keys {sorted(map(repr, got))} != distinct values "
        f"{sorted(map(repr, expected))}",
    )


def check_window_n(
    name: str,
    got: int,
    epochs: np.ndarray,
    lo_epoch: int,
    hi_epoch: int,
    slack_epochs: int,
) -> None:
    """``n`` covers ``[lo, hi)`` exactly plus at most ``slack`` older epochs."""
    exact = int(np.count_nonzero((epochs >= lo_epoch) & (epochs < hi_epoch)))
    widest = int(
        np.count_nonzero((epochs >= lo_epoch - slack_epochs) & (epochs < hi_epoch))
    )
    check(
        exact <= int(got) <= widest,
        f"{name}: window n={got} outside exact {exact} .. with slack {widest}",
    )
