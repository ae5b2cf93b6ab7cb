import pytest

from divsym import cfi, collector
from divsym.collector import (MinidumpLite, corpus_metrics, emit_minidump,
                              parse_minidump, report, sample_call_chains,
                              simulate_crash, trace_from_dump)
from divsym.deltadata import (DeltaData, Patch, PatchOp, apply,
                              delta_from_options, diff, pack, unpack)
from divsym.diversify import SeedTuple, build_default, build_diversified
from divsym.errors import (AuthenticationError, DeltaFormatError,
                           HarnessError, PatchCorruptError,
                           ReplicationInputError)
from divsym.image import crash_info
from divsym.progmodel import BuildOptions, generate_corpus
from divsym.replicate import replicate
from divsym.symfile import emit_symbol_file
from hostile import bad_nop_container, inflation_bomb

OPTS = BuildOptions()
SEEDS = SeedTuple(0xD1, 0xD2, 0xD3)


def _model():
    return generate_corpus(61, 1)[0]


def _chain(model, min_len=3, seed=5):
    for s in range(seed, seed + 200):
        for ch in sample_call_chains(model, 8, s):
            if len(ch) >= min_len:
                return ch
    raise AssertionError("no deep chain found in corpus model")


def _build_div(model, seeds=SEEDS, options=OPTS):
    res, dec = build_diversified(model, seeds, options)
    return res, dec, crash_info(res, dec, model.module_name)


def expected_site_line(model, site):
    fname, bi, ii = site
    f = next(g for g in model.functions if g.name == fname)
    c = 0
    for span in f.blocks[bi].spans:
        c += span.instrs
        if ii < c:
            return span.line, span.filenum
    raise AssertionError("site outside block")


def test_single_frame_crash():
    model = _model()
    res, dec, info = _build_div(model)
    leaf = next(f for f in model.functions if not f.call_sites)
    chain = ((leaf.name, 0, 0),)
    dump = simulate_crash(info, model, chain)
    frames, reason = cfi.unwind(dump, res.symfile)
    assert len(frames) == 1
    assert reason == cfi.END_OF_STACK


def test_chain_unwinds_to_planted_return_addresses():
    model = _model()
    res, dec, info = _build_div(model)
    chain = _chain(model, 3)
    dump = simulate_crash(info, model, chain)
    frames, reason = cfi.unwind(dump, res.symfile)
    assert len(frames) == len(chain)
    assert reason == cfi.END_OF_STACK
    assert frames[0].pc == dump.crash_address
    # frame k's pc is the planted return address into chain[-1-k]
    info_fns = {f.identifier: f for f in info.functions}
    by_name = {f.name: f for f in model.functions}
    for k in range(1, len(chain)):
        fname, bi, ii = chain[-1 - k]
        fn = info_fns[by_name[fname].identifier]
        blk = next(b for b in fn.blocks if b.index == bi)
        nops = sum(1 for g in blk.gaps if g <= ii)
        want = blk.addr + 4 * (blk.pre_extras + ii + nops) + 4
        assert frames[k].pc == want
    cfas = [f.cfa for f in frames]
    assert all(b > a for a, b in zip(cfas, cfas[1:]))


def test_stack_bytes_equal_sum_of_frame_sizes():
    model = _model()
    res, dec, info = _build_div(model)
    chain = _chain(model, 2)
    dump = simulate_crash(info, model, chain)
    pads = dict(dec.paddings)
    total = 0
    for fname, _, _ in chain:
        f = next(g for g in model.functions if g.name == fname)
        total += 4 * len(f.frame.callee_saved) + f.frame.local_size \
            + pads[f.identifier]
    assert len(dump.stack.data) == total


def test_degenerate_snapshot_reports_out_of_range():
    model = _model()
    res, dec, info = _build_div(model)
    chain = _chain(model, 2)
    dump = simulate_crash(info, model, chain)
    bad = MinidumpLite(dump.module_id, dump.crash_reason, dump.crash_address,
                       dict(dump.registers, sp=dump.stack.base_address - 64),
                       dump.stack)
    frames, reason = cfi.unwind(bad, res.symfile)
    assert len(frames) == 1
    assert reason == cfi.MEMORY_OUT_OF_RANGE


def test_invalid_chain_rejected():
    model = _model()
    res, dec, info = _build_div(model)
    f0 = model.functions[0].name
    f1 = model.functions[1].name
    with pytest.raises(HarnessError):
        simulate_crash(info, model, ((f0, 0, 0), (f1, 0, 0), (f1, 0, 0),
                                     (f1, 0, 10 ** 6)))
    with pytest.raises(HarnessError):
        simulate_crash(info, model, ())


def test_minidump_round_trip():
    model = _model()
    res, dec, info = _build_div(model)
    dump = simulate_crash(info, model, _chain(model, 2))
    assert parse_minidump(emit_minidump(dump)) == dump
    # default image dump uses the same schema
    dres, log = build_default(model, OPTS)
    dinfo = crash_info(dres, None, model.module_name)
    leaf = next(f for f in model.functions if not f.call_sites)
    ddump = simulate_crash(dinfo, model, ((leaf.name, 0, 0),))
    assert parse_minidump(emit_minidump(ddump)) == ddump


def _delta_blob(model, seeds, options=OPTS, key=None):
    dres, log = build_default(model, options)
    truth, dec = build_diversified(model, seeds, options)
    approx = replicate(dres.symfile, log, seeds, options)
    patch = diff(approx, truth.symfile)
    return pack(delta_from_options(seeds, options, patch), key), dres, log, truth, dec


def test_report_end_to_end_names_the_crash_site():
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    info = crash_info(truth, dec, model.module_name)
    chain = _chain(model, 2)
    dump = simulate_crash(info, model, chain)
    trace = report(dump, blob, dres.symfile, log)
    assert len(trace.frames) == len(chain)
    files = dict(model.files)
    for frame, site in zip(trace.frames, reversed(chain)):
        want_line, want_file = expected_site_line(model, site)
        assert frame.function == site[0]
        assert frame.line == want_line
        assert frame.file == files[want_file]
    assert trace.truncation == cfi.END_OF_STACK


def test_trace_invariant_across_seeds():
    model = _model()
    chain = _chain(model, 2)
    texts = []
    for seeds in (SEEDS, SeedTuple(0xE1, 0xE2, 0xE3), SeedTuple(1, 2, 3)):
        blob, dres, log, truth, dec = _delta_blob(model, seeds)
        info = crash_info(truth, dec, model.module_name)
        dump = simulate_crash(info, model, chain)
        texts.append(report(dump, blob, dres.symfile, log).text())
    assert texts[0] == texts[1] == texts[2]


def test_report_authentication_failure():
    model = _model()
    key = b"k" * 16
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS, key=key)
    info = crash_info(truth, dec, model.module_name)
    dump = simulate_crash(info, model, _chain(model, 2))
    bad = bytearray(blob)
    bad[-1] ^= 1
    with pytest.raises(AuthenticationError):
        report(dump, bytes(bad), dres.symfile, log, key)
    with pytest.raises(AuthenticationError):
        report(dump, blob, dres.symfile, log, b"wrong")
    assert report(dump, blob, dres.symfile, log, key).frames


def test_report_module_mismatch():
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    info = crash_info(truth, dec, model.module_name)
    dump = simulate_crash(info, model, _chain(model, 2))
    wrong = MinidumpLite("Linux arm 0 other", dump.crash_reason,
                         dump.crash_address, dump.registers, dump.stack)
    with pytest.raises(ReplicationInputError):
        report(wrong, blob, dres.symfile, log)


def test_reconstruction_inside_report_is_exact():
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    dd = unpack(blob)
    approx = replicate(dres.symfile, log, dd.seeds, dd.options())
    exact = apply(approx, dd.patch)
    assert emit_symbol_file(exact) == emit_symbol_file(truth.symfile)


def _locate_linear(sf, pc):
    """Reference for collector._locate: scan every function in order."""
    for f in sf.funcs:
        if f.address <= pc < f.address + f.size:
            for ln in f.lines:
                if ln.address <= pc < ln.address + ln.size:
                    return f.name, ln.filenum, ln.line
            return f.name, None, 0
    return None, None, 0


def test_locate_matches_linear_scan():
    model = _model()
    dres, _ = build_default(model, OPTS)
    truth, _ = build_diversified(model, SEEDS, OPTS)
    for sf in (dres.symfile, truth.symfile):
        funcs = sf.funcs
        gaps = [pc for f, g in zip(funcs, funcs[1:])
                for pc in range(f.address + f.size, g.address)]
        assert gaps, "no gap between functions to probe"
        end = funcs[-1].address + funcs[-1].size
        pcs = gaps + [end, end + 4, 0xFFFFFFFF]
        for f in funcs:
            pcs += [f.address, f.address + f.size - 1]
            for ln in f.lines:
                pcs += [ln.address, ln.address + ln.size - 1,
                        ln.address + ln.size]
        for pc in pcs:
            assert collector._locate(sf, pc) == _locate_linear(sf, pc), hex(pc)


@pytest.fixture
def replications(monkeypatch):
    """Start from an empty report cache and count the reconstructions
    report() runs: one replicate call per cache miss."""
    collector._report_cache.clear()
    calls = []
    real = collector.replicate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(collector, "replicate", counted)
    yield calls
    collector._report_cache.clear()


def _frames(trace):
    return trace.text(), [f.pc for f in trace.frames]


def test_cached_traces_equal_uncached(replications):
    model = _model()
    chains = sample_call_chains(model, 4, 8)
    for seeds in (SEEDS, SeedTuple(0xE1, 0xE2, 0xE3)):
        blob, dres, log, truth, dec = _delta_blob(model, seeds)
        info = crash_info(truth, dec, model.module_name)
        dd = unpack(blob)
        exact = apply(replicate(dres.symfile, log, dd.seeds, dd.options()),
                      dd.patch)
        before = len(replications)
        for chain in chains + chains:
            dump = simulate_crash(info, model, chain)
            assert _frames(report(dump, blob, dres.symfile, log)) == \
                _frames(trace_from_dump(dump, exact))
        assert len(replications) == before + 1
    assert len(collector._report_cache) == 2


def test_cached_success_does_not_skip_authentication(replications):
    model = _model()
    key = b"k" * 16
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS, key=key)
    info = crash_info(truth, dec, model.module_name)
    dump = simulate_crash(info, model, _chain(model, 2))
    assert report(dump, blob, dres.symfile, log, key).frames
    with pytest.raises(AuthenticationError):
        report(dump, blob, dres.symfile, log, b"wrong")
    with pytest.raises(AuthenticationError):
        report(dump, blob, dres.symfile, log)
    assert report(dump, blob, dres.symfile, log, key).frames
    assert len(replications) == 1


def test_module_mismatch_on_cache_hit(replications):
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    info = crash_info(truth, dec, model.module_name)
    dump = simulate_crash(info, model, _chain(model, 2))
    report(dump, blob, dres.symfile, log)
    wrong = MinidumpLite("Linux arm 0 other", dump.crash_reason,
                         dump.crash_address, dump.registers, dump.stack)
    with pytest.raises(ReplicationInputError):
        report(wrong, blob, dres.symfile, log)
    assert len(replications) == 1


def test_report_cache_is_bounded_lru(replications):
    model = _model()
    dres, log = build_default(model, OPTS)
    truth, dec = build_diversified(model, SEEDS, OPTS)
    patch = diff(replicate(dres.symfile, log, SEEDS, OPTS), truth.symfile)
    dd = delta_from_options(SEEDS, OPTS, patch)
    # One build packed under distinct keys: distinct blobs, distinct entries.
    keys = [b"key%d" % i for i in range(collector.REPORT_CACHE_SIZE + 1)]
    blobs = [pack(dd, k) for k in keys]
    dump = simulate_crash(crash_info(truth, dec, model.module_name), model,
                          _chain(model, 2))

    def misses(i):
        before = len(replications)
        report(dump, blobs[i], dres.symfile, log, keys[i])
        assert len(collector._report_cache) <= collector.REPORT_CACHE_SIZE
        return len(replications) - before

    assert [misses(i) for i in range(len(keys) - 1)] == [1] * (len(keys) - 1)
    assert misses(0) == 0          # hit: entry 0 becomes most recent
    assert misses(len(keys) - 1) == 1   # evicts entry 1, the least recent
    assert len(collector._report_cache) == collector.REPORT_CACHE_SIZE
    assert misses(0) == 0
    assert misses(1) == 1


def test_failed_reconstruction_is_not_cached(replications):
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    info = crash_info(truth, dec, model.module_name)
    dump = simulate_crash(info, model, _chain(model, 2))
    # Unpacks and replicates, but the patch does not fit the approximation.
    bad = pack(DeltaData(seeds=SEEDS, patch=Patch((PatchOp("K", 3),))))
    for _ in range(2):
        with pytest.raises(PatchCorruptError):
            report(dump, bad, dres.symfile, log)
        with pytest.raises(DeltaFormatError):
            report(dump, blob[:-1], dres.symfile, log)
    assert len(replications) == 2
    assert not collector._report_cache


def test_report_rejects_decompression_bomb():
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    dump = simulate_crash(crash_info(truth, dec, model.module_name), model,
                          _chain(model, 2))
    with pytest.raises(DeltaFormatError, match="inflates past"):
        report(dump, inflation_bomb(), dres.symfile, log)


@pytest.mark.parametrize("num,den", [(1, 0), (0, 0), (3, 2), (-1, 5)])
def test_report_rejects_bad_nop_fraction(num, den):
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    dump = simulate_crash(crash_info(truth, dec, model.module_name), model,
                          _chain(model, 2))
    with pytest.raises(DeltaFormatError, match="nop fraction"):
        report(dump, bad_nop_container(num, den, SEEDS), dres.symfile, log)


@pytest.mark.parametrize("num,den", [(1, 0), (0, 0), (3, 2), (-1, 5)])
def test_pack_refuses_bad_nop_fraction(num, den):
    with pytest.raises(DeltaFormatError, match="nop fraction"):
        pack(DeltaData(seeds=SEEDS, nop_num=num, nop_den=den))


def test_corpus_metrics_shuffle_is_seeds_only():
    corpus = generate_corpus(67, 2)
    seeds = [SeedTuple(i + 1, i + 2, i + 3) for i in range(2)]
    rep = corpus_metrics(corpus, seeds, OPTS, histogram_corpus=corpus[:1])
    for p in rep.programs:
        assert p.schemes["shuffle"].payload_zero_rate == 1.0
        # ordering: packed delta < compressed opportunity log < symbol file
        assert p.schemes["combined"].max < p.opplog_compressed_bytes
        assert p.opplog_compressed_bytes < p.default_sym_bytes


def test_corpus_metrics_histogram_direction_and_determinism():
    corpus = generate_corpus(67, 2)
    seeds = [SeedTuple(5, 6, 7)]
    rep1 = corpus_metrics(corpus, seeds, OPTS, histogram_corpus=corpus[:1])
    rep2 = corpus_metrics(corpus, seeds, OPTS, histogram_corpus=corpus[:1])
    assert rep1.text() == rep2.text()
    assert rep1.hist_defpad_on.zero_mass > rep1.hist_defpad_off.zero_mass
    assert rep1.hist_defpad_on.mean_abs < rep1.hist_defpad_off.mean_abs
