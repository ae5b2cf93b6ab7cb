"""Acceptance suite: one test per criterion, each printing a PASS line.

Runs the full pipeline over a 20-program corpus and 30 seed tuples;
shared results are computed once in a module-scoped fixture.
"""

import random as stdrandom
import zlib
from dataclasses import replace

import pytest

from divsym.collector import (simulate_crash, size_variation_histograms,
                              trace_from_dump, report)
from divsym.deltadata import (apply, delta_from_options, diff, pack, unpack,
                              Patch, PatchOp)
from divsym.diversify import (SeedTuple, build_default, build_diversified,
                              emit_opportunity_log, function_padding,
                              gap_decisions)
from divsym.errors import AuthenticationError, DeltaFormatError
from divsym.image import crash_info
from divsym.prng import Prng
from divsym._speed import arm_imm_encodable
from divsym.progmodel import _ENCODABLE, BuildOptions, generate_corpus
from divsym.replicate import replicate
from divsym.symfile import emit_symbol_file, parse_symbol_file
from modeltools import sample_call_chains
from sfgen import random_symbol_file

CORPUS_SEED = 0xACCE97
N_PROGRAMS = 20
N_TUPLES = 30
SITE_SEED = 0x517E
OPTS = BuildOptions()

# chi-square critical value, df=31, significance 0.001
CHI2_CRIT = 61.0983


def seed_tuples(n, seed=0x5EED5):
    rng = Prng(seed)
    return [SeedTuple(rng.next(), rng.next(), rng.next()) for _ in range(n)]


@pytest.fixture(scope="module")
def matrix():
    """Per (program, seed tuple): reconstruction results, sizes, traces."""
    corpus = generate_corpus(CORPUS_SEED, N_PROGRAMS, "small")
    tuples = seed_tuples(N_TUPLES)
    programs = []
    for model in corpus:
        dres, log = build_default(model, OPTS)
        opp_z = len(zlib.compress(emit_opportunity_log(log).encode(), 6))
        chains = sample_call_chains(model, 10, SITE_SEED)
        runs = []
        for si, seeds in enumerate(tuples):
            truth, dec = build_diversified(model, seeds, OPTS)
            truth_text = emit_symbol_file(truth.symfile)
            approx = replicate(dres.symfile, log, seeds, OPTS)
            patch = diff(approx, truth.symfile)
            blob = pack(delta_from_options(seeds, OPTS, patch))
            recon = apply(approx, patch)
            info = crash_info(truth, dec, model.module_name)
            dumps = [simulate_crash(info, model, ch) for ch in chains]
            traces = [trace_from_dump(d, recon).text() for d in dumps]
            run = {
                "reconstructed": emit_symbol_file(recon) == truth_text,
                "div_sym_bytes": len(truth_text.encode()),
                "dd_bytes": len(blob),
                "payload": patch.payload_bytes,
                "traces": traces,
            }
            if si == 0:
                run["full_report_traces"] = [
                    report(d, blob, dres.symfile, log).text() for d in dumps]
            runs.append(run)
        programs.append({"model": model, "default": dres, "log": log,
                         "opp_z": opp_z, "runs": runs})
    return programs


def test_c01_exact_reconstruction(matrix):
    total = 0
    exact = 0
    for prog in matrix:
        for run in prog["runs"]:
            total += 1
            exact += run["reconstructed"]
    assert total == N_PROGRAMS * N_TUPLES
    assert exact == total
    print("[criterion 1] PASS exact reconstruction %d/%d" % (exact, total))


def test_c02_trace_invariance(matrix):
    sites = 0
    for prog in matrix:
        n_sites = len(prog["runs"][0]["traces"])
        for k in range(n_sites):
            texts = {run["traces"][k] for run in prog["runs"]}
            assert len(texts) == 1, \
                "traces diverge for %s site %d" % (prog["model"].module_name, k)
            sites += 1
        # the packed end-to-end path produces the same traces
        assert prog["runs"][0]["full_report_traces"] == prog["runs"][0]["traces"]
    assert sites == N_PROGRAMS * 10
    print("[criterion 2] PASS %d sites x %d seeds pairwise identical"
          % (sites, N_TUPLES))


def _mutate(sf, rng):
    kind = rng.randrange(4)
    if kind == 0 or not sf.funcs:
        return random_symbol_file(rng.randrange(1 << 30))
    if kind == 1:
        # drop the last function and its CFI region
        return replace(sf, funcs=sf.funcs[:-1], cfi_regions=sf.cfi_regions[:-1])
    i = rng.randrange(len(sf.funcs))
    f = sf.funcs[i]
    if kind == 2:
        # shift the last function's record region forward
        f = sf.funcs[-1]
        delta = 8 * rng.randrange(1, 5)
        nf = replace(f, address=f.address + delta, lines=tuple(
            l._replace(address=l.address + delta) for l in f.lines))
        return replace(sf, funcs=sf.funcs[:-1] + (nf,))
    if f.lines:
        j = rng.randrange(len(f.lines))
        nl = f.lines[j]._replace(line=f.lines[j].line + 1)
        nf = replace(f, lines=f.lines[:j] + (nl,) + f.lines[j + 1:])
        return replace(sf, funcs=sf.funcs[:i] + (nf,) + sf.funcs[i + 1:])
    return sf


def test_c03_patch_oracle_random_pairs():
    rng = stdrandom.Random(0xD1FF)
    checked = 0
    for _ in range(1000):
        a = random_symbol_file(rng.randrange(1 << 30))
        if rng.random() < 0.5:
            b = random_symbol_file(rng.randrange(1 << 30))
        else:
            b = _mutate(a, rng)
        p = diff(a, b)
        assert emit_symbol_file(apply(a, p)) == emit_symbol_file(b)
        checked += 1
    assert checked >= 1000
    print("[criterion 3] PASS apply(diff) identity on %d random pairs" % checked)


def test_c04_immediate_encoding_oracle():
    oracle = set()
    for b in range(256):
        for r in range(0, 32, 2):
            oracle.add(((b >> r) | (b << (32 - r))) & 0xFFFFFFFF)
    # the layout splits stack adjustments with this table, not the predicate
    assert set(_ENCODABLE) == oracle
    assert arm_imm_encodable(0x3FF0) is False
    assert arm_imm_encodable(0x4000) is True
    rng = stdrandom.Random(0x1111)
    mismatches = sum(1 for _ in range(100000)
                     if arm_imm_encodable(v := rng.getrandbits(32)) != (v in oracle))
    assert mismatches == 0
    print("[criterion 4] PASS 100000 values, 0 mismatches vs 256x16 enumeration")


def _mean_dd(corpus, tuples, options):
    sizes = []
    for model in corpus:
        dres, log = build_default(model, options)
        for seeds in tuples:
            truth, _ = build_diversified(model, seeds, options)
            approx = replicate(dres.symfile, log, seeds, options)
            patch = diff(approx, truth.symfile)
            sizes.append(len(pack(delta_from_options(seeds, options, patch))))
    return sum(sizes) / len(sizes)


def test_c05_delta_minimization_directions():
    corpus = generate_corpus(CORPUS_SEED, N_PROGRAMS, "small")
    tuples = seed_tuples(3, seed=0xDE17A)
    base = replace(OPTS, desync_num=2, desync_den=100)
    mean_pad_on = _mean_dd(corpus, tuples, base)
    mean_pad_off = _mean_dd(corpus, tuples, replace(base, default_padding=False))
    mean_spfp_off = mean_pad_on  # base has the optimization disabled
    mean_spfp_on = _mean_dd(corpus, tuples, replace(base, sp_fp_opt=True))
    assert mean_pad_on < mean_pad_off
    assert mean_spfp_off < mean_spfp_on
    print("[criterion 5] PASS mean packed ddata: default padding %.1f < %.1f; "
          "sp/fp-opt disabled %.1f < enabled %.1f"
          % (mean_pad_on, mean_pad_off, mean_spfp_off, mean_spfp_on))


def test_c06_shuffle_isolation_is_seeds_only():
    corpus = generate_corpus(CORPUS_SEED, N_PROGRAMS, "small")
    tuples = seed_tuples(10, seed=0x0FF)
    options = replace(OPTS, pad_scheme=False, nop_num=0, shuffle_scheme=True)
    programs = 0
    for model in corpus:
        dres, log = build_default(model, options)
        for seeds in tuples:
            truth, _ = build_diversified(model, seeds, options)
            approx = replicate(dres.symfile, log, seeds, options)
            patch = diff(approx, truth.symfile)
            assert patch.payload_bytes == 0, model.module_name
        programs += 1
    assert programs == N_PROGRAMS
    print("[criterion 6] PASS shuffle-only patch payload is 0 bytes "
          "for all %d programs" % programs)


def test_c07_size_ordering(matrix):
    for prog in matrix:
        opp_z = prog["opp_z"]
        for run in prog["runs"]:
            assert run["dd_bytes"] < opp_z, prog["model"].module_name
            assert opp_z < run["div_sym_bytes"], prog["model"].module_name
    print("[criterion 7] PASS packed ddata < compressed opportunity log "
          "< diversified symbol file on all %d runs"
          % (N_PROGRAMS * N_TUPLES))


def test_c08_decision_process_statistics():
    keys = [("accept_fn_%d@o:s" % i, i % 7, 160)
            for i in range(-(-100000 // 160))]
    masks = gap_decisions(keys, 0xACC8, 1, 5)
    fired = sum(mask.count(1) for mask in masks)
    gaps = sum(len(mask) for mask in masks)
    assert gaps >= 100000
    rate = fired / gaps
    assert abs(rate - 0.2) <= 0.01
    counts = [0] * 32
    n = 10000
    chi_seeds = SeedTuple(0xCAFE, 0, 0)
    for i in range(n):
        pad = function_padding("chi_fn_%d@o:s" % i, chi_seeds, OPTS)
        counts[pad // 8 - 1] += 1
    expected = n / 32
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < CHI2_CRIT
    print("[criterion 8] PASS nop rate %.4f within 0.2 +/- 0.01 over %d gaps; "
          "padding chi-square %.2f < %.2f (df=31, p=0.001)"
          % (rate, gaps, stat, CHI2_CRIT))


def test_c09_default_padding_histogram():
    corpus = generate_corpus(CORPUS_SEED, N_PROGRAMS, "small")
    on, off = size_variation_histograms(corpus, OPTS)
    assert on.total == off.total
    assert on.zero_mass > off.zero_mass
    # the two points, pinned
    assert (on.zero_mass, on.total, on.mean_abs) == \
        (21596, 22400, 0.27517857142857144)
    assert (off.zero_mass, off.total, off.mean_abs) == \
        (14863, 22400, 2.8873214285714286)
    print("[criterion 9] PASS zero-delta mass %d/%d with default padding > "
          "%d/%d without (mean |delta| %.4f vs %.4f bytes/function)"
          % (on.zero_mass, on.total, off.zero_mass, off.total,
             on.mean_abs, off.mean_abs))


def test_c10_round_trips_and_tamper_detection():
    # symbol file parse/emit
    for seed in range(200):
        sf = random_symbol_file(seed)
        text = emit_symbol_file(sf)
        assert parse_symbol_file(text) == sf
        assert emit_symbol_file(parse_symbol_file(text)) == text
    # delta-data containers, with and without a key
    rng = stdrandom.Random(0xC10)
    key = bytes(rng.randrange(256) for _ in range(16))
    for i in range(30):
        patch = Patch((PatchOp("K", rng.randrange(1, 50)),
                       PatchOp("S", rng.randrange(1, 9), delta=8 * rng.randrange(1, 9)),
                       PatchOp("R", 2, lines=("FUNC 10 8 0 x", "10 8 1 1")),
                       PatchOp("D", rng.randrange(1, 5))))
        dd = delta_from_options(
            SeedTuple(rng.getrandbits(64), rng.getrandbits(64), rng.getrandbits(64)),
            OPTS, patch)
        assert unpack(pack(dd)) == dd
        assert unpack(pack(dd, key), key) == dd
    # tampering any authenticated byte is detected
    blob = pack(delta_from_options(SeedTuple(1, 2, 3), OPTS, Patch((PatchOp("K", 5),))), key)
    detected = 0
    for pos in range(len(blob)):
        bad = bytearray(blob)
        bad[pos] ^= 0xA5
        try:
            unpack(bytes(bad), key)
        except (AuthenticationError, DeltaFormatError):
            detected += 1
    assert detected == len(blob)
    print("[criterion 10] PASS round trips byte-exact; %d/%d tampered bytes "
          "detected" % (detected, len(blob)))
