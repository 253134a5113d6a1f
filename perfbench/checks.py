"""Output checks computed apart from the program under test.

Nothing here imports ``repro``: each expected value is recomputed from
the ratings the benchmark sent and the service's own trust answers, so
a fault in the program cannot hide in a shared helper.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from inputs import COLLABORATIVE, Row

#: Method 3's neutral trust: raters at or below it get no weight.
TRUST_FLOOR = 0.5

#: Largest |served - recomputed| a score may differ by.
SCORE_TOLERANCE = 1e-9


def method3(values: Sequence[float], trusts: Sequence[float]) -> float:
    """The paper's Method 3: weights ``max(T - 0.5, 0)``, falling back to
    the plain mean when every weight is zero."""
    if not values or len(values) != len(trusts):
        raise ValueError("method3 needs one trust per value, at least one value")
    weights = [max(t - TRUST_FLOOR, 0.0) for t in trusts]
    total = sum(weights)
    if total > 0.0:
        return sum(w * v for w, v in zip(weights, values)) / total
    return sum(values) / len(values)


def ratings_by_product(rows: Iterable[Row]) -> Dict[int, List[Tuple[int, float]]]:
    """product_id -> [(rater_id, value), ...] in send order."""
    out: Dict[int, List[Tuple[int, float]]] = {}
    for rater_id, product_id, value, _ in rows:
        out.setdefault(product_id, []).append((rater_id, value))
    return out


def score_mismatches(
    sent: Mapping[int, Sequence[Tuple[int, float]]],
    scores: Mapping[int, Optional[float]],
    trusts: Mapping[int, float],
) -> List[int]:
    """Products whose served score is not Method 3 of what was sent,
    weighted by the served trusts (unknown raters default to 0.5)."""
    bad = []
    for product_id, served in sorted(scores.items()):
        pairs = sent[product_id]
        expected = method3(
            [v for _, v in pairs], [trusts.get(r, TRUST_FLOOR) for r, _ in pairs]
        )
        if served is None or not abs(served - expected) <= SCORE_TOLERANCE:
            bad.append(product_id)
    return bad


def trusts_out_of_range(trusts: Mapping[int, float]) -> List[int]:
    """Raters whose trust is not strictly inside (0, 1)."""
    return sorted(r for r, t in trusts.items() if not (0.0 < t < 1.0))


def detect_auc(trusts: Mapping[int, float], classes: Mapping[int, str]) -> float:
    """P(a random potential-collaborative rater has lower trust than a
    random honest one), ties counting one half.  Raters the service
    never saw sit at the 0.5 prior."""
    bad = sorted(trusts.get(r, TRUST_FLOOR) for r, c in classes.items() if c == COLLABORATIVE)
    good = sorted(trusts.get(r, TRUST_FLOOR) for r, c in classes.items() if c != COLLABORATIVE)
    if not bad or not good:
        raise ValueError("detect_auc needs both classes")
    # Merge-count pairs: for each collaborative trust, honest raters
    # strictly above it win, equal ones tie.
    wins = 0.0
    lo = hi = 0
    for t in bad:
        while lo < len(good) and good[lo] < t:
            lo += 1
        while hi < len(good) and good[hi] <= t:
            hi += 1
        wins += (len(good) - hi) + 0.5 * (hi - lo)
    return wins / (len(bad) * len(good))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
