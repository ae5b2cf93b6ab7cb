import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab_pairs  # noqa: E402


def test_an_a_a_run_reports_every_metric(capsys):
    # the same tree on both sides: every end-to-end metric is reported,
    # with a win count over the pairs run
    assert ab_pairs.main([str(ROOT), str(ROOT), "--workload", "ship",
                          "--pairs", "2", "--seconds", "0", "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines[1:]]
    assert names == ["setup_s", "items_per_s", "item_p50_ms", "item_tail_ms",
                     "delta_bytes_mean", "delta_bytes_max", "peak_rss_mb",
                     "ok_share"]
    assert all("/2" in line for line in lines[1:])


def test_summary_counts_wins_and_flags_a_gap_inside_the_spread():
    parent = [{"t": v, "n": v} for v in (10.0, 12.0, 14.0, 16.0)]
    change = [{"t": v - 1, "n": v - 5} for v in (10.0, 12.0, 14.0, 16.0)]
    rows = ab_pairs.summary(parent, change, {"t": "lower", "n": "higher"})
    qa, qb, wins, unresolved = rows["t"]
    assert qa[1] == 13.0 and qb[1] == 12.0
    # the change is lower in every pair, but by less than the parent's
    # interquartile range
    assert wins == 4 and unresolved
    _, _, wins, unresolved = rows["n"]
    # 5 lower where higher is better: no win, and the gap exceeds the IQR
    assert wins == 0 and not unresolved
