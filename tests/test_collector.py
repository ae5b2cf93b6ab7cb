import hashlib
import sys
import threading
from dataclasses import replace

import pytest

from divsym import _speed, cfi, collector, diversify
from divsym import replicate as replicate_module
from divsym.collector import (MinidumpLite, SymbolServer, corpus_metrics,
                              emit_minidump, parse_minidump, report,
                              simulate_crash, trace_from_dump)
from divsym.deltadata import (DeltaData, Patch, PatchOp, apply,
                              delta_from_options, diff, pack, unpack)
from divsym.diversify import SeedTuple, build_default, build_diversified
from divsym.errors import (AuthenticationError, DeltaFormatError,
                           HarnessError, PatchCorruptError,
                           ReplicationInputError)
from divsym.image import crash_info
from divsym.progmodel import BuildOptions, generate_corpus
from divsym.replicate import ReplicationPlan, replicate
from divsym.symfile import (FuncRecord, LineRecord, SymbolFile,
                            emit_symbol_file, validate)
from hostile import (HEADER_FAULTS, PATCH_FAULTS, bad_nop_container,
                     edited_container, growth_faults, hostile_logs,
                     inflation_bomb)
from modeltools import sample_call_chains

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


def test_locate_takes_the_first_of_overlapping_line_records():
    # validate() keeps line records sorted but lets them overlap; the
    # first record in order that holds the pc names its line
    lines = (LineRecord(0x10, 0x10, 1, 1), LineRecord(0x14, 4, 2, 1),
             LineRecord(0x18, 0x10, 3, 1), LineRecord(0x1C, 4, 4, 1),
             LineRecord(0x2C, 4, 5, 1))
    sf = SymbolFile(funcs=(FuncRecord(0x10, 0x30, 0, "f", lines),))
    validate(sf)
    for pc in range(0x0C, 0x44):
        assert collector._locate(sf, pc) == _locate_linear(sf, pc), hex(pc)
    assert collector._locate(sf, 0x1C) == ("f", 1, 1)
    assert collector._locate(sf, 0x24) == ("f", 1, 3)
    assert collector._locate(sf, 0x28) == ("f", None, 0)
    assert collector._locate(sf, 0x2C) == ("f", 1, 5)


@pytest.fixture
def replications(monkeypatch):
    """Count the reconstructions a server runs, one plan replicate call
    per cache miss, from an empty report() slot."""
    monkeypatch.setattr(collector, "_server", None)
    calls = []
    real = ReplicationPlan.replicate

    def counted(plan, *args):
        calls.append(args)
        return real(plan, *args)

    monkeypatch.setattr(ReplicationPlan, "replicate", counted)
    return calls


def _server_blob(model, seeds=SEEDS, key=None):
    """A server for the model's default build, and one delta blob of it
    with its truth and decisions."""
    dres, log = build_default(model, OPTS)
    server = SymbolServer(dres.symfile, log)
    truth, dec = build_diversified(model, seeds, OPTS)
    patch = diff(replicate(dres.symfile, log, seeds, OPTS), truth.symfile)
    return server, pack(delta_from_options(seeds, OPTS, patch), key), \
        truth, dec


def _frames(trace):
    return trace.text(), [f.pc for f in trace.frames]


def test_cached_traces_equal_uncached(replications):
    model = _model()
    chains = sample_call_chains(model, 4, 8)
    server = None
    for seeds in (SEEDS, SeedTuple(0xE1, 0xE2, 0xE3)):
        blob, dres, log, truth, dec = _delta_blob(model, seeds)
        server = server or SymbolServer(dres.symfile, log)
        info = crash_info(truth, dec, model.module_name)
        dd = unpack(blob)
        exact = apply(replicate(dres.symfile, log, dd.seeds, dd.options()),
                      dd.patch)
        before = len(replications)
        for chain in chains + chains:
            dump = simulate_crash(info, model, chain)
            assert _frames(server.report(dump, blob)) == \
                _frames(trace_from_dump(dump, exact))
        assert len(replications) == before + 1
    assert len(server._exact) == 2


def test_report_keeps_one_server_per_default_build(replications):
    # report() reuses the server of the very same default file and log
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    info = crash_info(truth, dec, model.module_name)
    chains = sample_call_chains(model, 3, 8)
    before = len(replications)
    for chain in chains:
        report(simulate_crash(info, model, chain), blob, dres.symfile, log)
    assert len(replications) == before + 1
    server = collector._server
    assert server.default_sf is dres.symfile and server.log is log
    # an equal but distinct log is another server, with its own entries
    report(simulate_crash(info, model, chains[0]), blob, dres.symfile,
           replace(log))
    assert collector._server is not server
    assert len(replications) == before + 2


def test_cached_success_does_not_skip_authentication(replications):
    model = _model()
    key = b"k" * 16
    server, blob, truth, dec = _server_blob(model, key=key)
    info = crash_info(truth, dec, model.module_name)
    dump = simulate_crash(info, model, _chain(model, 2))
    replications.clear()
    assert server.report(dump, blob, key).frames
    with pytest.raises(AuthenticationError):
        server.report(dump, blob, b"wrong")
    with pytest.raises(AuthenticationError):
        server.report(dump, blob)
    assert server.report(dump, blob, key).frames
    assert len(replications) == 1


def test_module_mismatch_on_cache_hit(replications):
    model = _model()
    server, blob, truth, dec = _server_blob(model)
    info = crash_info(truth, dec, model.module_name)
    dump = simulate_crash(info, model, _chain(model, 2))
    replications.clear()
    server.report(dump, blob)
    wrong = MinidumpLite("Linux arm 0 other", dump.crash_reason,
                         dump.crash_address, dump.registers, dump.stack)
    with pytest.raises(ReplicationInputError):
        server.report(wrong, blob)
    assert len(replications) == 1


def test_report_cache_is_bounded_lru(replications):
    model = _model()
    dres, log = build_default(model, OPTS)
    truth, dec = build_diversified(model, SEEDS, OPTS)
    patch = diff(replicate(dres.symfile, log, SEEDS, OPTS), truth.symfile)
    dd = delta_from_options(SEEDS, OPTS, patch)
    server = SymbolServer(dres.symfile, log)
    # One build packed under distinct keys: distinct blobs, distinct entries.
    keys = [b"key%d" % i for i in range(collector.REPORT_CACHE_SIZE + 1)]
    blobs = [pack(dd, k) for k in keys]
    dump = simulate_crash(crash_info(truth, dec, model.module_name), model,
                          _chain(model, 2))

    def misses(i):
        before = len(replications)
        server.report(dump, blobs[i], keys[i])
        assert len(server._exact) <= collector.REPORT_CACHE_SIZE
        return len(replications) - before

    assert [misses(i) for i in range(len(keys) - 1)] == [1] * (len(keys) - 1)
    assert misses(0) == 0          # hit: entry 0 becomes most recent
    assert misses(len(keys) - 1) == 1   # evicts entry 1, the least recent
    assert len(server._exact) == collector.REPORT_CACHE_SIZE
    assert misses(0) == 0
    assert misses(1) == 1


def test_failed_reconstruction_is_not_cached(replications):
    model = _model()
    server, blob, truth, dec = _server_blob(model)
    info = crash_info(truth, dec, model.module_name)
    dump = simulate_crash(info, model, _chain(model, 2))
    replications.clear()
    # Unpacks and replicates, but the patch does not fit the approximation.
    bad = pack(DeltaData(seeds=SEEDS, patch=Patch((PatchOp("K", 3),))))
    for _ in range(2):
        with pytest.raises(PatchCorruptError):
            server.report(dump, bad)
        with pytest.raises(DeltaFormatError):
            server.report(dump, blob[:-1])
    assert len(replications) == 2
    assert not server._exact


def test_hostile_log_fails_report_and_no_plan_is_kept(replications):
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    dump = simulate_crash(crash_info(truth, dec, model.module_name), model,
                          _chain(model, 2))
    for bad, message in hostile_logs(log):
        server = SymbolServer(dres.symfile, bad)
        for _ in range(2):
            with pytest.raises(ReplicationInputError, match=message):
                server.report(dump, blob)
            with pytest.raises(ReplicationInputError, match=message):
                report(dump, blob, dres.symfile, bad)
        assert not server._plans and not server._exact, message
        assert not collector._server._plans, message
    assert report(dump, blob, dres.symfile, log).frames


def test_threads_racing_for_a_plan_keep_one(monkeypatch):
    # four threads ask a new server for its plan at once, each clearing
    # the replicate() slot so that several build one; the server keeps
    # the first stored and hands that one to all of them
    dres, log = build_default(_model(), OPTS)
    server = SymbolServer(dres.symfile, log)
    monkeypatch.setattr(replicate_module, "_last_plan", None)
    barrier = threading.Barrier(4)
    got = []

    def work():
        barrier.wait(timeout=60)
        replicate_module._last_plan = None
        got.append(server.plan(OPTS))

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(got) == 4
    assert all(plan is server._plans[OPTS.default_padding] for plan in got)


def test_four_threads_share_the_report_slot():
    # three builds' blobs through report() from four threads, so the
    # two-entry cache evicts under the others; every trace stays exact
    model = _model()
    dres, log = build_default(model, OPTS)
    chain = _chain(model, 2)
    cases = []
    for seeds in (SEEDS, SeedTuple(0xE1, 0xE2, 0xE3), SeedTuple(1, 2, 3)):
        truth, dec = build_diversified(model, seeds, OPTS)
        patch = diff(replicate(dres.symfile, log, seeds, OPTS),
                     truth.symfile)
        dump = simulate_crash(crash_info(truth, dec, model.module_name),
                              model, chain)
        cases.append((dump, pack(delta_from_options(seeds, OPTS, patch)),
                      _frames(trace_from_dump(dump, truth.symfile))))
    errors = []

    def work(t):
        try:
            for r in range(9):
                dump, blob, want = cases[(t + r) % len(cases)]
                if _frames(report(dump, blob, dres.symfile, log)) != want:
                    errors.append((t, r))
        except Exception as e:   # reported below
            errors.append(e)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(collector._server._exact) <= collector.REPORT_CACHE_SIZE


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


@pytest.mark.parametrize("error,edits", [
    *((PatchCorruptError, e) for e in PATCH_FAULTS.values()),
    *((DeltaFormatError, e) for e in HEADER_FAULTS.values())],
    ids=[*PATCH_FAULTS, *HEADER_FAULTS])
def test_report_rejects_malformed_payload_records(error, edits):
    model = _model()
    blob, dres, log, truth, dec = _delta_blob(model, SEEDS)
    dump = simulate_crash(crash_info(truth, dec, model.module_name), model,
                          _chain(model, 2))
    with pytest.raises(error):
        report(dump, edited_container(edits, SEEDS), dres.symfile, log)


def test_report_rejects_hostile_growth_records():
    model = _model()
    dres, log = build_default(model, OPTS)
    truth, dec = build_diversified(model, SEEDS, OPTS)
    approx = replicate(dres.symfile, log, SEEDS, OPTS)
    patch = diff(approx, truth.symfile)
    dump = simulate_crash(crash_info(truth, dec, model.module_name), model,
                          _chain(model, 2))
    for growth, message in growth_faults(approx).values():
        bad = pack(delta_from_options(SEEDS, OPTS,
                                      replace(patch, growth=growth)))
        with pytest.raises(PatchCorruptError, match=message):
            report(dump, bad, dres.symfile, log)


def test_report_rejects_tab_separated_symbol_record():
    # the patch parses, but the patched text holds a FUNC record whose
    # name follows a tab
    model = _model()
    dres, log = build_default(model, OPTS)
    truth, dec = build_diversified(model, SEEDS, OPTS)
    patch = diff(replicate(dres.symfile, log, SEEDS, OPTS), truth.symfile)
    bad = Patch(patch.ops + (PatchOp("I", lines=("FUNC ffff0 4 0\tx",)),))
    dump = simulate_crash(crash_info(truth, dec, model.module_name), model,
                          _chain(model, 2))
    with pytest.raises(PatchCorruptError, match="single spaces"):
        report(dump, pack(delta_from_options(SEEDS, OPTS, bad)),
               dres.symfile, log)


@pytest.mark.parametrize("num,den", [(1, 0), (0, 0), (3, 2), (-1, 5)])
def test_pack_refuses_bad_nop_fraction(num, den):
    with pytest.raises(DeltaFormatError, match="nop fraction"):
        pack(DeltaData(seeds=SEEDS, nop_num=num, nop_den=den))


def test_corpus_metrics_shuffle_is_seeds_only():
    corpus = generate_corpus(67, 2)
    seeds = [SeedTuple(i + 1, i + 2, i + 3) for i in range(2)]
    rep = corpus_metrics(corpus, seeds, OPTS)
    for p in rep.programs:
        assert p.schemes["shuffle"].payload_zero_rate == 1.0
        # ordering: packed delta < compressed opportunity log < symbol file
        assert p.schemes["combined"].max < p.opplog_compressed_bytes
        assert p.opplog_compressed_bytes < p.default_sym_bytes


def test_corpus_metrics_histogram_direction_and_determinism():
    corpus = generate_corpus(67, 2)
    seeds = [SeedTuple(5, 6, 7)]
    rep1 = corpus_metrics(corpus, seeds, OPTS)
    rep2 = corpus_metrics(corpus, seeds, OPTS)
    assert rep1.text() == rep2.text()
    assert rep1.hist_defpad_on.zero_mass > rep1.hist_defpad_off.zero_mass
    assert rep1.hist_defpad_on.mean_abs < rep1.hist_defpad_off.mean_abs


# The metrics report of three small programs, pinned: under the default
# options with two seed tuples, and with the SP/FP access optimisation
# and no default padding with one.
@pytest.mark.parametrize("seeds,options,digest", [
    ((SeedTuple(1, 2, 3), SeedTuple(4, 5, 6)), BuildOptions(),
     "1d23bfc01d88321de6a083166810195de2df8b354c13ce6866bae8c26fca58a3"),
    ((SeedTuple(1, 2, 3),), BuildOptions(sp_fp_opt=True,
                                         default_padding=False),
     "a56c0da4094520a1c81352d57de63f69e9f6b274ecdd2716799cefd8c1955f1a"),
], ids=["default", "spfp-nodefpad"])
def test_corpus_metrics_text_is_pinned(seeds, options, digest):
    rep = corpus_metrics(generate_corpus(0x51, 3, "small"), list(seeds),
                         options)
    assert hashlib.sha256(rep.text().encode()).hexdigest() == digest


def test_corpus_metrics_times_a_cold_reconstruction(monkeypatch):
    # the writer's replicate reuses the build's draws; the timed
    # reconstruction after it must draw every block again, as a crash
    # server that never ran the build would
    model = _model()
    _, log = build_default(model, OPTS)
    blocks = sum(1 for f in log.functions for b in f.blocks
                 if b.kind == "code" and b.model_instrs > 1)
    draws = []
    per_replicate = []
    builds = []
    real = ReplicationPlan.replicate
    real_build = ReplicationPlan.__init__

    def counted(plan, *args):
        before = len(draws)
        out = real(plan, *args)
        per_replicate.append(len(draws) - before)
        return out

    def building(plan, *args):
        builds.append(len(per_replicate))
        real_build(plan, *args)

    def drawing(seeds, counts, threshold):
        # a block with no gap draws nothing
        draws.extend(seed for seed, n in zip(seeds, counts) if n > 0)
        return _speed.nop_masks(seeds, counts, threshold)

    monkeypatch.setattr(diversify, "nop_masks", drawing)
    monkeypatch.setattr(ReplicationPlan, "replicate", counted)
    monkeypatch.setattr(ReplicationPlan, "__init__", building)
    diversify.clear_gap_memo()
    rep = corpus_metrics([model], [SEEDS], OPTS)
    diversify.clear_gap_memo()
    # replicate per scheme: padding, nops, shuffle, combined, then the
    # combined scheme's reconstruction
    assert per_replicate == [0, 0, 0, 0, blocks]
    # with the one plan the server built before any of them, and timed
    # apart from them
    assert builds == [0]
    assert set(rep.timings) == {"plan", "delta_generation", "reconstruction"}
    assert all(t > 0 for t in rep.timings.values())
