"""Fixed probes reported with the traced run.

* Kernel micro-timings for the backend ``divsym.KERNEL_BACKEND`` names,
  labelled with that backend, the Python version and the CPU count, so
  numbers from different backends are never compared unlabelled.
* A reference point: the stage split and delta counts for program 0 of
  ``generate_corpus(0xBE7C, 1, "medium")`` with seeds (11, 22, 33), the
  program and seeds of the ROADMAP baseline table.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import timeit

import divsym
from divsym import _speed, cfi, collector, deltadata, diversify, image, \
    progmodel, replicate

from workloads import CORPUS_SEED, OPTS, REFERENCE_SEEDS

KERNEL_ID = b"fn042_dead@fn042_dead.o:.text.fn042_dead"
NOP_THRESHOLD = (1 << 32) // 5
IMM_VALUES = tuple(range(0, 1 << 22, 41))[:100000]

# (name, call, calls per timed call)
KERNELS = (
    ("nop_gaps", lambda: _speed.nop_gaps(0x5EED, 10000, NOP_THRESHOLD), 1),
    ("fnv1a64", lambda: _speed.fnv1a64(KERNEL_ID), 1),
    ("reseed", lambda: _speed.reseed(KERNEL_ID, 0xABCDEF), 1),
    ("arm_imm_encodable",
     lambda: [_speed.arm_imm_encodable(v) for v in IMM_VALUES], len(IMM_VALUES)),
)


def environment():
    return {
        "kernels.backend_compiled": (int(divsym.KERNEL_BACKEND != "python"), "flag"),
        "env.python_version": (100 * sys.version_info[0] + sys.version_info[1],
                               "version"),
        "env.nproc": (os.cpu_count() or 1, "count"),
    }


def environment_label():
    return "kernel_backend=%s python=%s nproc=%d" % (
        divsym.KERNEL_BACKEND, sys.version.split()[0], os.cpu_count() or 1)


def kernel_timings(budget_s):
    """Median microseconds per call over five repeats of each kernel.

    nop_gaps draws 10,000 gaps a call; arm_imm_encodable is timed over
    100,000 values and reported per value."""
    out = {}
    for name, fn, per in KERNELS:
        t0 = time.perf_counter()
        fn()
        once = max(time.perf_counter() - t0, 1e-7)
        number = max(1, int(budget_s / 5 / once))
        runs = timeit.repeat(fn, number=number, repeat=5)
        out["kernels.%s.us_per_call" % name] = \
            (statistics.median(runs) / number / per * 1e6, "us")
    return out


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def reference_point(size_class="medium"):
    """Stage split for the baseline program, seeds (11, 22, 33)."""
    model = progmodel.generate_corpus(CORPUS_SEED, 1, size_class)[0]
    seeds = REFERENCE_SEEDS
    t_def, (dres, log) = _timed(diversify.build_default, model, OPTS)
    t_div, (truth, dec) = _timed(diversify.build_diversified, model, seeds, OPTS)
    t_rep, approx = _timed(replicate.replicate, dres.symfile, log, seeds, OPTS)
    t_diff, patch = _timed(deltadata.diff, approx, truth.symfile)
    blob = deltadata.pack(deltadata.delta_from_options(seeds, OPTS, patch))
    t_apply, _ = _timed(deltadata.apply, approx, patch)
    info = image.crash_info(truth, dec, model.module_name)
    leaf = next(f for f in model.functions if not f.call_sites)
    dump = collector.simulate_crash(info, model, ((leaf.name, 0, 0),))
    t_report, _ = _timed(collector.report, dump, blob, dres.symfile, log)
    unwinds = [_timed(cfi.unwind, dump, truth.symfile)[0] for _ in range(21)]
    return {
        "ref.build_default_s": (t_def, "s"),
        "ref.build_diversified_s": (t_div, "s"),
        "ref.replicate_s": (t_rep, "s"),
        "ref.diff_s": (t_diff, "s"),
        "ref.apply_s": (t_apply, "s"),
        "ref.report_s": (t_report, "s"),
        "ref.unwind_ms": (statistics.median(unwinds) * 1e3, "ms"),
        "ref.delta_bytes": (len(blob), "bytes"),
        "ref.patch_ops": (len(patch.ops), "ops"),
        "ref.payload_bytes": (patch.payload_bytes, "bytes"),
    }
