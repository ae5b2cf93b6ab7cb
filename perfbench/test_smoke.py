"""Smoke tests for the benchmark: tiny inputs, every workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from divsym import deltadata, replicate, symfile  # noqa: E402
from divsym.deltadata import Patch, PatchOp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    return rc, json.loads(out.getvalue().splitlines()[-1])


def _smoke(workload, trace):
    return _main(["--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    rc, res = _smoke(workload, trace)
    assert rc == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if trace:
        # self times partition the traced item time
        assert m["trace.self_sum_s"] == pytest.approx(m["trace.item_s"])
    else:
        assert all(v > 0 for v in m.values())


def _drop_patch(blob, prog, reshuffle=False):
    """The delta with its patch replaced by keep-everything, so the server
    reconstructs the bare approximation instead of the exact file; with
    ``reshuffle``, also with a wrong shuffle seed, so the functions land
    at other addresses and a trace through them comes out wrong."""
    dd = deltadata.unpack(blob)
    if reshuffle:
        dd = dataclasses.replace(dd, seeds=dataclasses.replace(
            dd.seeds, shuffle_seed=dd.seeds.shuffle_seed ^ 1))
    approx = replicate.replicate(prog.default_sf, prog.log, dd.seeds,
                                 dd.options())
    n = len(symfile.emit_symbol_file(approx).splitlines())
    return deltadata.pack(dataclasses.replace(dd, patch=Patch((PatchOp("K", n),))))


def _corrupting(cls):
    """The workload with the delta of its first item corrupted."""
    class Corrupted(cls):
        def items(self, state, rng):
            for n, item in enumerate(super().items(state, rng)):
                if n == 0 and isinstance(item, workloads.TriageItem):
                    item = dataclasses.replace(item, blob=_drop_patch(
                        item.blob, state.program, reshuffle=True))
                yield item

        def run(self, state, item):
            out = super().run(state, item)
            if isinstance(out, workloads.ShipOut) and not self.corrupted:
                self.corrupted = True
                out = dataclasses.replace(out, blob=_drop_patch(out.blob, state))
            return out

    Corrupted.corrupted = False
    return Corrupted


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_fires_on_corrupted_delta(workload, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, workload,
                        _corrupting(workloads.WORKLOADS[workload]))
    rc, res = _smoke(workload, 0)
    assert rc == 1
    assert not res["correct"] and res["failed"] == 1
    # the oracle caught a wrong output; nothing raised
    assert "Traceback" not in capsys.readouterr().err


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ship",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
