"""Tests of the benchmark itself: its checks reject wrong answers, and a
tiny-size run of every workload finishes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from inputs import COLLABORATIVE, Trace, probe_rows  # noqa: E402

ROWS = [
    (1, 10, 0.8, 0.1),
    (2, 10, 0.4, 0.2),
    (3, 10, 0.6, 0.3),
    (1, 11, 0.5, 0.4),
    (3, 11, 0.7, 0.5),
]
TRUSTS = {1: 0.9, 2: 0.55, 3: 0.3}


def served_scores(rows, trusts):
    sent = checks.ratings_by_product(rows)
    return {
        pid: checks.method3([v for _, v in pairs], [trusts[r] for r, _ in pairs])
        for pid, pairs in sent.items()
    }


def test_method3_weights_and_fallback():
    # weights 0.4, 0.05, 0: (0.4*0.8 + 0.05*0.4) / 0.45
    assert checks.method3([0.8, 0.4, 0.6], [0.9, 0.55, 0.3]) == pytest.approx(0.34 / 0.45)
    assert checks.method3([0.2, 0.6], [0.5, 0.1]) == pytest.approx(0.4)


def test_score_check_accepts_exact_and_rejects_off_by_1e6():
    sent = checks.ratings_by_product(ROWS)
    scores = served_scores(ROWS, TRUSTS)
    assert checks.score_mismatches(sent, scores, TRUSTS) == []
    scores[10] += 1e-6
    assert checks.score_mismatches(sent, scores, TRUSTS) == [10]


def test_score_check_rejects_a_dropped_rating():
    sent = checks.ratings_by_product(ROWS)
    scores = served_scores([r for r in ROWS if r != (1, 10, 0.8, 0.1)], TRUSTS)
    assert checks.score_mismatches(sent, scores, TRUSTS) == [10]


def test_engine_round_check_rejects_a_dropped_rating():
    trace = Trace(rows=tuple(ROWS), classes={1: "reliable", 2: "reliable", 3: COLLABORATIVE})
    spec = run.EngineSpec("engine", 1, len(ROWS), 2, 20)
    out = {
        "refused": 0,
        "applied_count": len(ROWS),
        "trusts": [[r, t] for r, t in TRUSTS.items()],
        "scores": [[p, s] for p, s in served_scores(ROWS, TRUSTS).items()],
    }
    assert run.check_engine_round(out, trace, spec)["problems"] == []
    out["applied_count"] -= 1
    assert run.check_engine_round(out, trace, spec)["problems"]


def test_detect_auc_orders_classes_and_swapped_labels_fall_below_half():
    trusts = {0: 0.9, 1: 0.8, 2: 0.7, 3: 0.2, 4: 0.3}
    classes = {0: "reliable", 1: "careless", 2: "reliable", 3: COLLABORATIVE, 4: COLLABORATIVE}
    assert checks.detect_auc(trusts, classes) == 1.0
    swapped = {
        r: ("reliable" if c == COLLABORATIVE else COLLABORATIVE) for r, c in classes.items()
    }
    assert checks.detect_auc(trusts, swapped) < 0.5
    ties = {r: 0.5 for r in classes}
    assert checks.detect_auc(ties, classes) == 0.5


def test_trust_range_check_rejects_bounds():
    assert checks.trusts_out_of_range({1: 0.5, 2: 0.0, 3: 1.0, 4: 0.999}) == [2, 3]


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert checks.percentile(samples, 50) == 50
    assert checks.percentile(samples, 99) == 99


def test_probe_makes_a_stale_reader_disagree_with_method3():
    rows = probe_rows(100.0, 7, [8, 9, 11])
    sent = checks.ratings_by_product(rows)
    a, b = rows[0][0], rows[1][0]
    final = {a: 5 / 6, b: 3 / 4}
    stale = {a: 2 / 3, b: 2 / 3}
    fresh_scores = {7: checks.method3([0.9, 0.1], [final[a], final[b]])}
    stale_scores = {7: checks.method3([0.9, 0.1], [stale[a], stale[b]])}
    assert checks.score_mismatches(sent, fresh_scores, final) == []
    assert checks.score_mismatches(sent, stale_scores, final) == [7]


def test_portal_check_rejects_reads_changed_by_recovery():
    trace = Trace(rows=tuple(ROWS), classes={1: "reliable", 2: "reliable", 3: COLLABORATIVE})
    scores = served_scores(ROWS, TRUSTS)
    out = {
        "rows": ROWS,
        "http_failures": 0,
        "acked": len(ROWS),
        "acked_after": len(ROWS),
        "trusts": dict(TRUSTS),
        "scores": dict(scores),
        "trusts_after": dict(TRUSTS),
        "scores_after": dict(scores),
        "exit_codes": [0],
        "attempted": 20,
    }
    assert run.check_portal_round(out, trace)["problems"] == []
    out["scores_after"][11] = scores[11] + 1e-12
    result = run.check_portal_round(out, trace)
    assert result["problems"] and result["failed"] == 1


def _run(args, cwd, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_of_every_workload_finishes(workload):
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0", "--tiny"],
        cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # The stale-mirror probe fails once per round when there are two or
    # more cluster workers (one per CPU).
    workers = len(os.sched_getaffinity(0))
    expected = 1 if workload == "backfill-cluster" and workers > 1 else 0
    assert result["failed"] == expected


def test_tiny_traced_run_reports_every_layer_metric():
    proc = _run(
        ["--workload", "backfill-cluster", "--seed", "3", "--seconds", "0.1", "--trace", "1", "--tiny"],
        cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
    assert result["metrics"]["engine.submit_self_us"]["value"] > 0
    assert "tracing overhead" in proc.stdout


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        ["--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
