import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab_pairs  # noqa: E402


def test_an_a_a_run_reports_every_metric(capsys):
    # the same tree on both sides: every end-to-end metric is reported,
    # with a win count over the pairs run and a verdict, and the exit
    # status is 1 exactly when one is past its bound
    status = ab_pairs.main([str(ROOT), str(ROOT), "--workload", "ship",
                            "--pairs", "2", "--seconds", "0", "--smoke"])
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines[1:]]
    assert names == ["setup_s", "items_per_s", "item_p50_ms", "item_tail_ms",
                     "delta_bytes_mean", "delta_bytes_max", "peak_rss_mb",
                     "ok_share"]
    assert all("/2" in line for line in lines[1:])
    assert all(line.endswith(("ok", "unresolved", "past bound"))
               for line in lines[1:])
    assert status == any(line.endswith("past bound") for line in lines[1:])


QUARTET = (10.0, 12.0, 14.0, 16.0)      # quartiles 11.5/13/14.5


def _verdicts(parent, change, metrics):
    return {name: row[3] for name, row in
            ab_pairs.summary([{"m": v} for v in parent],
                             [{"m": v} for v in change], metrics).items()}


def test_summary_counts_wins_and_flags_a_gap_inside_the_spread():
    parent = [{"t": v, "n": v} for v in QUARTET]
    change = [{"t": v - 1, "n": v - 5} for v in QUARTET]
    rows = ab_pairs.summary(parent, change, {"t": ("lower", 0.25),
                                             "n": ("higher", 0.25)})
    qa, qb, wins, verdict = rows["t"]
    assert qa == (11.5, 13.0, 14.5) and qb[1] == 12.0
    # the change is lower in every pair, but by less than the parent's
    # interquartile range
    assert wins == 4 and verdict == "unresolved"
    _, _, wins, verdict = rows["n"]
    # 5 lower where higher is better: no win, and 38% worse at the median
    assert wins == 0 and verdict == "past bound"


@pytest.mark.parametrize("shift,bound,want", [
    (+4.0, 0.25, "past bound"),     # 31% worse, past a bound of 25%
    (+4.0, 0.5, "ok"),              # but within one of 50%
    (+3.0, 0.1, "past bound"),      # 23% worse, past a bound of 10%
    (+0.5, 0.25, "unresolved"),     # worse by less than the spread
    (-0.5, 0.25, "unresolved"),     # better by less than the spread
    (-4.0, 0.25, "ok"),             # better by more than the spread
    (-4.0, 0.1, "unresolved"),      # but the spread is wider than 10%
])
def test_summary_judges_each_metric_against_its_bound(shift, bound, want):
    # lower is better; the parent's spread is 3 (23% of its median)
    assert _verdicts(QUARTET, [v + shift for v in QUARTET],
                     {"m": ("lower", bound)}) == {"m": want}


def test_a_metric_that_neither_moves_nor_spreads_is_ok():
    # an ok_share of 1 in every run of both sides
    assert _verdicts((1.0,) * 4, (1.0,) * 4,
                     {"m": ("higher", 0.0)}) == {"m": "ok"}


def test_a_change_better_in_every_run_is_resolved_inside_the_spread():
    # every change run beats every parent run, though the gap at the
    # median (2.75) is less than the parent's spread (4), which is also
    # wider than the bound
    parent = (10.0, 10.0, 14.0, 14.0)
    change = (14.5, 14.5, 15.0, 15.0)
    assert _verdicts(parent, change, {"m": ("higher", 0.1)}) == {"m": "ok"}
    # one change run that does not beat them all leaves it unresolved
    assert _verdicts(parent, (13.0,) + change[1:],
                     {"m": ("higher", 0.1)}) == {"m": "unresolved"}


def test_a_run_past_its_bound_exits_one(monkeypatch, tmp_path, capsys):
    # each metric's bound comes from BENCHMARK.json; the change's
    # setup_s is twice the parent's
    calls = iter(range(100))

    def fake_run(tree, workload, seed, seconds, smoke):
        k = next(calls)
        value = 1.0 + 0.01 * k
        return {"setup_s": value * (2 if tree == tmp_path else 1)}

    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "setup_s", "better": "lower",'
        ' "bound": 0.25}]}')
    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    assert ab_pairs.main([str(ROOT), str(tmp_path), "--workload", "ship",
                          "--pairs", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[1].endswith("past bound")
