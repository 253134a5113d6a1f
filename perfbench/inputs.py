"""Seeded benchmark inputs: the paper's Section IV marketplace as a trace.

A trace is the marketplace's ratings in time order as plain
``(rater_id, product_id, value, time)`` tuples, plus the generator's
ground-truth rater classes.  Only the seed decides the trace, and the
digest printed with every result names it exactly.  The program under
test sees only the generated ratings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Row = Tuple[int, int, float, float]

#: Ground-truth label of the raters ``detect_auc`` ranks below the rest.
COLLABORATIVE = "potential_collaborative"

#: Rater and product ids of the stale-mirror probe start here, far above
#: any id the marketplace generates.
PROBE_ID_BASE = 1_000_000


@dataclass(frozen=True)
class Trace:
    """Time-ordered ratings plus each rater's ground-truth class."""

    rows: Tuple[Row, ...]
    classes: Dict[int, str]

    def head(self, n: int) -> "Trace":
        """The first ``n`` ratings, with the same class table."""
        if n > len(self.rows):
            raise ValueError(f"trace has {len(self.rows)} ratings, asked for {n}")
        return Trace(rows=self.rows[:n], classes=self.classes)

    def digest(self) -> str:
        """Short content hash of the rows (ids, values and times, exact)."""
        sha = hashlib.sha256()
        for row in self.rows:
            sha.update(repr(row).encode("ascii"))
        return sha.hexdigest()[:16]

    def save(self, path: Path) -> None:
        """Write the trace as JSON (floats round-trip bit for bit)."""
        payload = {
            "rows": self.rows,
            "classes": {str(k): v for k, v in self.classes.items()},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Trace":
        payload = json.loads(path.read_text(encoding="utf-8"))
        rows = tuple(
            (int(r), int(p), float(v), float(t)) for r, p, v, t in payload["rows"]
        )
        classes = {int(k): v for k, v in payload["classes"].items()}
        return cls(rows=rows, classes=classes)


def marketplace_trace(seed: int, n_months: int = 12) -> Trace:
    """Section IV marketplace (400 reliable, 200 careless, 200 potential
    collaborative raters; 5 products a month, one dishonest with a
    10-day campaign) for ``n_months`` months, in time order."""
    import numpy as np

    from repro.simulation.marketplace import MarketplaceConfig, generate_marketplace

    config = MarketplaceConfig(n_months=n_months)
    world = generate_marketplace(config, np.random.default_rng(seed))
    rows = sorted(
        (
            (int(r.rater_id), int(r.product_id), float(r.value), float(r.time))
            for r in world.store.all_ratings()
        ),
        key=lambda row: (row[3], row[1], row[0]),
    )
    classes = {rid: cls.value for rid, cls in world.rater_classes.items()}
    return Trace(rows=tuple(rows), classes=classes)


def probe_rows(after: float, first: int, others: Sequence[int]) -> List[Row]:
    """A fixed, seed-independent probe of the cluster's trust mirror.

    ``first`` must be owned by a worker that flushes before the owner of
    ``others`` (three products).  Two fresh raters A and B rate
    ``first`` (0.9 and 0.1) and ``others[0]``; A also rates
    ``others[1]`` and ``others[2]``.  After the final flush A's trust
    (5/6) exceeds B's (3/4), so ``first``'s Method 3 score is about
    0.557 -- but a reader weighting by the table from before the last
    flush sees A and B at 2/3 each and returns the plain mean, 0.5.
    """
    a, b = PROBE_ID_BASE + 1, PROBE_ID_BASE + 2
    rows: List[Row] = [
        (a, first, 0.9, after + 0.1),
        (b, first, 0.1, after + 0.2),
        (a, others[0], 0.7, after + 0.3),
        (b, others[0], 0.6, after + 0.4),
        (a, others[1], 0.8, after + 0.5),
        (a, others[2], 0.8, after + 0.6),
    ]
    return rows
