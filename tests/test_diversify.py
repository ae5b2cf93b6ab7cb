import hashlib
import itertools
import sys
import threading
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from divsym import _speed, diversify, image
from divsym.diversify import (SeedTuple, build_default, build_diversified,
                              clear_gap_memo, desync_blocks,
                              emit_decision_log, emit_opportunity_log,
                              function_order, function_padding,
                              gap_decisions, parse_opportunity_log,
                              shuffle_permutation, span_counts)
from divsym.errors import ModelError
from divsym.prng import Prng, function_reseed
from divsym.progmodel import (BlockModel, BuildOptions, FrameModel,
                              FunctionModel, LineSpan, ProgramModel,
                              generate_corpus, layout)
from divsym.replicate import replicate
from divsym.symfile import emit_symbol_file
from modeltools import pool_placements, seeds_desyncing_only, with_phantoms

# chi-square critical value, df=31, significance 0.001
CHI2_CRIT = 61.0983

SEEDS = SeedTuple(0x1111, 0x2222, 0x3333)


def test_fnv1a64_reference_vector():
    h = 0xCBF29CE484222325
    for b in b"a":
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    assert h == 0xAF63DC4C8601EC8C
    assert _speed.fnv1a64(b"a") == h


def test_splitmix_reference_stream():
    # first outputs for seed 0, computed step by step from the constants
    def step(state):
        state = (state + 0x9E3779B97F4A7C15) & (1 << 64) - 1
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (1 << 64) - 1
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (1 << 64) - 1
        return state, z ^ (z >> 31)

    state = 0
    rng = Prng(0)
    for _ in range(5):
        state, expect = step(state)
        assert rng.next() == expect


def test_function_reseed_deterministic_and_distinct():
    a1 = function_reseed("f.o.text_f", 7)
    a2 = function_reseed("f.o.text_f", 7)
    b = function_reseed("g.o.text_g", 7)
    assert a1 == a2
    assert a1 != b
    assert function_reseed("f.o.text_f", 8) != a1


def test_function_padding_of_the_default_build():
    # no seeds, or the padding scheme off: the default build's padding,
    # which is 0 without default padding
    seeds = SeedTuple(123456, 0, 0)
    for ident in ("a", "f@x.o:.text.f", "zzz"):
        assert function_padding(ident, None, BuildOptions()) == 8
        assert function_padding(ident, None, BuildOptions(
            default_padding=False)) == 0
        assert function_padding(ident, seeds, BuildOptions(
            pad_scheme=False)) == 8
        assert function_padding(ident, seeds, BuildOptions(
            pad_scheme=False, default_padding=False)) == 0


def test_pad_amount_range_and_alignment():
    for i in range(500):
        p = function_padding("fn%d" % i, SeedTuple(42, 0, 0), BuildOptions())
        assert p % 8 == 0
        assert 8 <= p <= 256


def test_pad_amount_uniform_chi_square():
    counts = [0] * 32
    n = 10000
    seeds = SeedTuple(0xABCDEF, 0, 0)
    for i in range(n):
        p = function_padding("func_%d@o:s" % i, seeds, BuildOptions())
        counts[(p // 8) - 1] += 1
    expected = n / 32
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < CHI2_CRIT


def _nop_model():
    return generate_corpus(3, 1)[0]


def _gaps(mask):
    """The 1-based gap indices a NOP mask selects."""
    return tuple(g for g, fired in enumerate(mask, 1) if fired)


def _mask(gaps, n):
    """The n-byte NOP mask that selects the given gaps."""
    return bytes(g in gaps for g in range(1, n + 1))


def test_insert_nops_zero_probability():
    m = _nop_model()
    counts, nops = diversify._nop_pass(m, 99, 0, 5)
    assert nops == ()
    assert counts == tuple(
        tuple((0,) * len(b.spans) if b.kind == "code" else ()
              for b in f.blocks) for f in m.functions)


def test_insert_nops_probability_one_doubles_gaps():
    m = _nop_model()
    counts, _ = diversify._nop_pass(m, 99, 1, 1)
    for f, fc in zip(m.functions, counts):
        for b, bc in zip(f.blocks, fc):
            if b.kind == "code":
                # every gap fires; the last instruction has none after it
                assert b.instr_count + sum(bc) == 2 * b.instr_count - 1
                assert bc[-1] == b.spans[-1].instrs - 1
            else:
                assert bc == ()


def test_insert_nops_rate_twenty_percent():
    fired = 0
    gaps = 0
    n = 150
    for got in gap_decisions([("f%d@o:s" % i, 0, n) for i in range(700)],
                             0x5EED, 1, 5):
        assert len(got) == n
        fired += got.count(1)
        gaps += n
    assert gaps >= 100000
    rate = fired / gaps
    assert abs(rate - 0.2) <= 0.01


def test_gap_decisions_depend_only_on_block_key():
    [a] = gap_decisions([("f@o:s", 3, 40)], 1234, 1, 5)
    assert len(a) == 40 and set(a) == {0, 1}
    same, other_block, other_fn, b = gap_decisions(
        [("f@o:s", 3, 40), ("f@o:s", 4, 40), ("g@o:s", 3, 40),
         ("f@o:s", 3, 60)], 1234, 1, 5)
    assert same == a
    assert other_block != a
    assert other_fn != a
    # a longer block agrees on the shared prefix of gaps
    assert b[:40] == a


def test_nops_inherit_preceding_line():
    # gaps 1 and 2 follow instructions 1 and 2 (2 is the last of span 0);
    # gap 4 follows instruction 4, inside span 1
    spans = (LineSpan(10, 1, 2), LineSpan(20, 1, 3))
    assert span_counts(_mask((1, 2, 4), 4), [s.instrs for s in spans]) \
        == (2, 1)
    f = FunctionModel("f", "f.o", ".text.f", 4, False, FrameModel(),
                      (BlockModel("code", 0, spans=spans, epilogue=True),))
    model = ProgramModel("m", ((1, "a.c"),), (f,))
    lines = layout(model, [0], BuildOptions(), (0,), (((2, 1),),)).symfile \
        .funcs[0].lines
    assert [(r.line, r.size) for r in lines] == [(10, 16), (20, 16)]


def _linear_gap_counts(gaps, sizes):
    """The nested scan: gap g lands in the first span whose running
    total is >= g."""
    bounds = list(itertools.accumulate(sizes))
    counts = [0] * len(sizes)
    for g in gaps:
        for j, b in enumerate(bounds):
            if g <= b:
                counts[j] += 1
                break
    return counts


@pytest.mark.parametrize("gaps,sizes", [
    ((2, 5, 9), (2, 3, 4)),             # every gap on a span boundary
    ((1, 2, 3, 4), (2, 0, 2)),          # zero-size span after a boundary
    ((1, 2), (0, 0, 2, 1)),             # leading zero-size spans
    ((3,), (1, 2, 0, 0)),               # trailing zero-size spans
    ((), (3, 4)),                       # no gaps
    ((), ()),                           # no spans
    ((1, 4, 7, 8, 9), (3, 3, 2)),       # gap past the last span
    (tuple(range(1, 30)), (1, 0, 5, 7, 0, 3, 11)),
])
def test_bucket_gaps_matches_linear_scan(gaps, sizes):
    # the gaps bucketed into spans by counting their mask per span
    mask = _mask(gaps, max(gaps + (sum(sizes),)))
    assert span_counts(mask, sizes) == tuple(_linear_gap_counts(gaps, sizes))


@given(sizes=st.lists(st.integers(0, 12), max_size=8),
       mask=st.binary(max_size=80).map(lambda b: bytes(x & 1 for x in b)))
def test_span_counts_match_the_linear_scan_on_any_mask(sizes, mask):
    assert span_counts(mask, sizes) == \
        tuple(_linear_gap_counts(_gaps(mask), sizes))


def _grown_model(model, nop_seed, num, den):
    """The model with one instruction added after each fired gap, the
    spans grown by the linear scan over the gaps of each block's mask."""
    functions = []
    for f in model.functions:
        blocks = []
        for b in f.blocks:
            if b.kind == "code":
                gaps = _gaps(_oracle_mask(f.identifier, b.index,
                                          b.instr_count - 1, nop_seed,
                                          num, den))
                counts = _linear_gap_counts(gaps, [s.instrs for s in b.spans])
                b = replace(b, spans=tuple(
                    LineSpan(s.line, s.filenum, s.instrs + k)
                    for s, k in zip(b.spans, counts)))
            blocks.append(b)
        functions.append(replace(f, blocks=tuple(blocks)))
    return replace(model, functions=tuple(functions))


@pytest.mark.parametrize("options", [
    BuildOptions(), BuildOptions(nop_num=1, nop_den=1),
    BuildOptions(nop_num=0, nop_den=5),
    BuildOptions(desync_num=1, desync_den=3)])
def test_layout_of_the_grown_model_is_the_build(options):
    # the build adds per-span NOP counts to the model's spans; the layout
    # of a model whose spans were grown by the oracle, under the same
    # paddings, is the same
    for model in generate_corpus(0x6A0, 3):
        res, dec = build_diversified(model, SEEDS, options)
        paddings = tuple(8 * (1 + function_reseed(f.identifier,
                                                  SEEDS.pad_seed) % 32)
                         for f in model.functions)
        assert paddings == tuple(pad for _, pad in dec.paddings)
        drawn = model
        if options.desync_num:
            hits = desync_blocks(model, SEEDS, options.desync_num,
                                 options.desync_den)
            assert hits == dec.desyncs
            drawn = with_phantoms(model, hits)
        grown = _grown_model(drawn, SEEDS.nop_seed, options.nop_num,
                             options.nop_den)
        want = layout(grown, shuffle_permutation(len(model.functions),
                                                 SEEDS.shuffle_seed),
                      options, paddings)
        assert emit_symbol_file(res.symfile) == emit_symbol_file(want.symfile)
        assert res.symfile == want.symfile
        assert [fl.regions for fl in res.image] == \
            [fl.regions for fl in want.image]
        assert pool_placements(res) == pool_placements(want)


def test_build_diversified_draws_each_code_block_once(monkeypatch):
    # one gap_decisions call for the whole pass, asking for each code
    # block once
    model = generate_corpus(3, 1)[0]
    calls = []

    def counting(keys, *args):
        calls.append([key[:2] for key in keys])
        return gap_decisions(keys, *args)

    monkeypatch.setattr(diversify, "gap_decisions", counting)
    build_diversified(model, SEEDS, BuildOptions())
    blocks = [(f.identifier, b.index) for f in model.functions
              for b in f.blocks if b.kind == "code"]
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted(blocks)


def _oracle_mask(identifier, block_index, n_gaps, nop_seed, num, den):
    """gap_decisions without the memo: the scalar reseed and draw loop."""
    seed = function_reseed("%s#%d" % (identifier, block_index), nop_seed)
    return _speed.nop_gaps(seed, n_gaps, (num << 32) // den)


def test_block_seed_is_the_function_reseed_of_the_block_key(monkeypatch):
    # the cached '<identifier>#' hash continued over the index digits
    # gives the seed of the whole '<identifier>#<block_index>' string
    seeds = []

    def recording(block_seeds, counts, threshold):
        seeds.extend(block_seeds)
        return _speed.nop_masks(block_seeds, counts, threshold)

    monkeypatch.setattr(diversify, "nop_masks", recording)
    for nop_seed in (0, 0x5EED, 1 << 63, (1 << 64) - 1):
        clear_gap_memo()
        for ident in ("f@o:s", "fünf@mödul.o:.text.ß", "関数@o:s", "x"):
            for bi in (0, 9, 10, 99, 1000, 123456):
                seeds.clear()
                gap_decisions([(ident, bi, 5)], nop_seed, 1, 5)
                assert seeds == [function_reseed("%s#%d" % (ident, bi),
                                                 nop_seed)]


def test_block_hash_cache_stays_within_its_bound():
    prefix = diversify._identifier_hash
    bound = diversify.BLOCK_HASH_CACHE
    assert prefix.cache_info().maxsize == bound
    idents = ["fn%04d_beef@fn%04d_beef.o:.text.fn%04d_beef" % (i, i, i)
              for i in range(bound + 100)]
    prefix.cache_clear()
    tracemalloc.start()
    try:
        for ident in idents:
            prefix(ident)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prefix.cache_info().currsize == bound
    assert held < 300_000


@pytest.mark.parametrize("options", [
    BuildOptions(), BuildOptions(nop_num=1, nop_den=1),
    BuildOptions(desync_num=1, desync_den=2)])
def test_decision_log_nops_are_the_per_block_draws(options):
    model = generate_corpus(3, 1)[0]
    _, dec = build_diversified(model, SEEDS, options)
    drawn = model
    if options.desync_num:
        hits = desync_blocks(model, SEEDS, options.desync_num,
                             options.desync_den)
        assert hits == dec.desyncs and hits
        drawn = with_phantoms(model, hits)
    want = []
    for f in drawn.functions:
        for b in f.blocks:
            if b.kind != "code":
                continue
            mask = _oracle_mask(f.identifier, b.index, b.instr_count - 1,
                                SEEDS.nop_seed, options.nop_num,
                                options.nop_den)
            if _gaps(mask):
                want.append((f.identifier, b.index, mask))
    assert dec.nops == tuple(want)


def test_gap_memo_matches_the_scalar_oracle():
    # alternating seed triples replace the memo's slot on every switch;
    # the second pass over each triple is served from the memo
    triples = [(nop, num, den) for nop in (7, 0xFFFF_FFFF_FFFF_FFFF)
               for num, den in ((1, 5), (1, 1), (3, 7), (0, 5))]
    keys = [("f%d@o:s" % i, bi, n) for i in range(6) for bi in (0, 3)
            for n in (0, 1, 17, 90)]
    for _ in range(2):
        for nop, num, den in triples + triples[::-1]:
            want = [_oracle_mask(*key, nop, num, den) for key in keys]
            # one key at a time, then a pass whose keys the memo holds
            # in part (the odd ones drawn just before) and whose misses
            # repeat (keys 0 and 2 twice)
            for key, mask in zip(keys[1::2], want[1::2]):
                assert gap_decisions([key], nop, num, den) == [mask]
            assert gap_decisions(keys + keys[:3], nop, num, den) == \
                want + want[:3]


def test_gap_memo_under_threads_with_alternating_triples():
    # each thread switches the slot's triple on every call; a thread
    # that read a mask drawn for another triple would fail the oracle
    keys = [("f%d@o:s" % i, i % 3, 20 + i) for i in range(40)]
    want = {(key, nop): _oracle_mask(*key, nop, 1, 3)
            for key in keys for nop in range(4)}
    wrong = []

    def hammer(offset):
        # the threads walk the same keys, each under another triple
        for r in range(2000):
            nop = (r + offset) % 4
            key = keys[r % len(keys)]
            try:
                if gap_decisions([key], nop, 1, 3) != [want[key, nop]]:
                    wrong.append((key, nop))
            except Exception as e:      # a thread's error fails the test
                wrong.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _drawn_blocks(model):
    """(identifier, index) of the code blocks with at least one gap."""
    return [(f.identifier, b.index) for f in model.functions
            for b in f.blocks if b.kind == "code" and b.instr_count > 1]


def _block_seeds(blocks, nop_seed):
    return sorted(function_reseed("%s#%d" % key, nop_seed) for key in blocks)


@pytest.mark.parametrize("desync_num", [0, 1])
def test_build_then_replicate_draws_each_block_once(monkeypatch, desync_num):
    model = generate_corpus(3, 1)[0]
    options = BuildOptions(desync_num=desync_num, desync_den=3)
    dres, log = build_default(model, options)
    draws = []

    def counting(seeds, counts, threshold):
        # a block with no gap draws nothing
        draws.extend(seed for seed, n in zip(seeds, counts) if n > 0)
        return _speed.nop_masks(seeds, counts, threshold)

    monkeypatch.setattr(diversify, "nop_masks", counting)
    clear_gap_memo()
    _, dec = build_diversified(model, SEEDS, options)
    built = len(draws)
    replicate(dres.symfile, log, SEEDS, options)
    clear_gap_memo()
    desynced = with_phantoms(model, desync_blocks(model, SEEDS, desync_num, 3))
    assert sorted(draws[:built]) == \
        _block_seeds(_drawn_blocks(desynced), SEEDS.nop_seed)
    # the log's gap count of a desynced block differs from the build's
    redrawn = [d for d in dec.desyncs if d in _drawn_blocks(model)]
    assert bool(redrawn) == bool(desync_num)
    assert sorted(draws[built:]) == _block_seeds(redrawn, SEEDS.nop_seed)


def test_replicate_is_the_same_from_a_cold_and_a_warm_memo():
    model = generate_corpus(3, 1)[0]
    for i, options in enumerate((BuildOptions(),
                                 BuildOptions(nop_num=2, nop_den=3),
                                 BuildOptions(desync_num=1, desync_den=2))):
        dres, log = build_default(model, options)
        for seeds in (SEEDS, SeedTuple(5, 6 + i, 7), SeedTuple(9, 9, 9)):
            clear_gap_memo()
            cold = emit_symbol_file(replicate(dres.symfile, log, seeds,
                                              options))
            build_diversified(model, seeds, options)
            warm = emit_symbol_file(replicate(dres.symfile, log, seeds,
                                              options))
            assert warm == cold


def test_function_order_is_the_shuffle_when_it_is_on():
    for n in (0, 1, 7, 40):
        assert function_order(n, SEEDS, BuildOptions()) == \
            shuffle_permutation(n, SEEDS.shuffle_seed)
        assert function_order(n, SEEDS, BuildOptions(
            shuffle_scheme=False)) == list(range(n))


def test_shuffle_identity_for_single_function():
    assert shuffle_permutation(1, 999) == [0]


def test_shuffle_always_a_permutation():
    for seed in range(200):
        p = shuffle_permutation(7, seed)
        assert sorted(p) == list(range(7))


def test_shuffle_uniform_over_permutations():
    n = 10000
    counts = {p: 0 for p in itertools.permutations(range(4))}
    for seed in range(n):
        counts[tuple(shuffle_permutation(4, seed))] += 1
    expected = n / 24
    sigma = (n * (1 / 24) * (23 / 24)) ** 0.5
    for c in counts.values():
        assert abs(c - expected) <= 3 * sigma


def test_builds_without_default_padding_pad_nothing():
    # function_padding gives 0 to every function of the default build,
    # and of a diversified build with the padding scheme off
    model = _nop_model()
    off = BuildOptions(default_padding=False)
    res, _ = build_default(model, off)
    assert {fl.padding for fl in res.image} == {0}
    res, dec = build_diversified(model, SEEDS, replace(off, pad_scheme=False))
    assert {fl.padding for fl in res.image} == {0}
    assert {pad for _, pad in dec.paddings} == {0}


def test_build_default_padding_toggle():
    found = False
    for model in generate_corpus(3, 4):
        on, _ = build_default(model, BuildOptions(default_padding=True))
        off, _ = build_default(model, BuildOptions(default_padding=False))
        # empty-frame functions get an sp adjustment only with default padding
        for f, fl_on, fl_off in zip(model.functions, on.image, off.image):
            if f.frame.local_size == 0 and not f.frame.callee_saved and not f.has_fp:
                assert fl_on.regions[0].pre_extras == 1   # one alloc instruction
                assert fl_off.regions[0].pre_extras == 0
                found = True
    assert found, "corpus lacks an empty-frame leaf function"


def test_opportunity_log_matches_layout():
    m = _nop_model()
    res, log = build_default(m)
    assert len(log.functions) == len(m.functions)
    for fl, lf in zip(res.image, log.functions):
        assert fl.identifier == lf.identifier
        regions = list(fl.regions)
        assert len(regions) == len(lf.blocks)
        for r, b in zip(regions, lf.blocks):
            if r.kind == "code":
                assert b.kind == "code"
                assert b.size == r.n_instrs
                assert 4 * b.size == r.size
                assert b.model_instrs == r.model_instrs
            else:
                assert b.kind == r.kind
                assert b.size == r.size


def test_build_diversified_deterministic_and_seed_sensitive():
    m = _nop_model()
    r1, d1 = build_diversified(m, SEEDS)
    r2, d2 = build_diversified(m, SEEDS)
    r3, _ = build_diversified(m, SeedTuple(0x9999, 0x8888, 0x7777))
    assert emit_symbol_file(r1.symfile) == emit_symbol_file(r2.symfile)
    assert d1 == d2
    assert emit_symbol_file(r1.symfile) != emit_symbol_file(r3.symfile)


def test_pad_seed_changes_only_padding_decisions():
    m = _nop_model()
    _, d1 = build_diversified(m, SEEDS)
    _, d2 = build_diversified(m, SeedTuple(0x4444, SEEDS.nop_seed, SEEDS.shuffle_seed))
    assert d1.paddings != d2.paddings
    assert d1.nops == d2.nops
    assert d1.order == d2.order


def test_shuffle_depends_only_on_seed_and_count():
    m = _nop_model()
    _, d1 = build_diversified(m, SEEDS)
    _, d2 = build_diversified(m, SeedTuple(0x4444, 0x5555, SEEDS.shuffle_seed))
    assert d1.order == d2.order
    log = parse_opportunity_log(emit_opportunity_log(build_default(m)[1]))
    assert shuffle_permutation(len(log.functions), SEEDS.shuffle_seed) == list(d1.order)


def test_desync_blocks_targets_and_rate():
    m = _nop_model()
    ident = m.functions[0].identifier
    seeds = seeds_desyncing_only(m, ident, 1, len(m.functions))
    hits = desync_blocks(m, seeds, 1, len(m.functions))
    assert [h[0] for h in hits] == [ident]
    m2 = with_phantoms(m, hits)
    f0, f0b = m.functions[0], m2.functions[0]
    assert sum(b.instr_count for b in f0b.blocks if b.kind == "code") == \
        sum(b.instr_count for b in f0.blocks if b.kind == "code") + 1
    # with no NOPs drawn, the phantom is the one count of the NOP pass,
    # on the last span of the hit block
    counts, nops = diversify._nop_pass(m, 99, 0, 5, hits)
    (_, bi), = hits
    assert nops == ()
    assert [sum(map(sum, fc)) for fc in counts] == \
        [1] + [0] * (len(m.functions) - 1)
    assert counts[0][bi][-1] == 1
    assert desync_blocks(m, seeds, 0, 100) == ()
    m3 = with_phantoms(m, desync_blocks(m, seeds, 0, 100))
    assert m3 == m


@pytest.mark.parametrize("num,den", [(1, 0), (-1, 5), (7, 5)])
def test_desync_fraction_outside_zero_one_is_refused(num, den):
    with pytest.raises(ModelError, match="desync probability"):
        build_diversified(_nop_model(), SEEDS,
                          BuildOptions(desync_num=num, desync_den=den))


def test_log_round_trips():
    m = _nop_model()
    _, opp = build_default(m)
    assert parse_opportunity_log(emit_opportunity_log(opp)) == opp


def _prog000_build_digests(seeds, options=BuildOptions()):
    m = generate_corpus(0xBE7C, 1, "medium")[0]
    res, dec = build_diversified(m, seeds, options)
    outputs = (emit_symbol_file(res.symfile).encode(),
               emit_decision_log(res, dec).encode(),
               image.write_image(res, dec, m.module_name))
    return tuple(hashlib.sha256(o).hexdigest() for o in outputs), dec


# The build side's outputs for the benchmark program, prog000, pinned:
# the symbol file, the decision log and the crash image, in that order.
# A change to the NOP pass or to the layout shows here.
@pytest.mark.parametrize("seeds,digests", [
    (SeedTuple(11, 22, 33), (
        "6b5b2a456e31985a9a375cfa7704744986a8e4157b1050961c30744d42f4f5b8",
        "7ea50fbad49abb5f769407b0ede3d0ce2cb115b4606910cc31e4bba808d86c36",
        "3f847ff2eed6d11de7dd92422a55ca866caaa86261d7d5246043609f73ae1b9b")),
    (SeedTuple(44, 55, 66), (
        "33fc6486613808c0e56f54d4351f1cc8b0edae9e4eb54baa802e56e6d97c71d6",
        "b947eb4bc8525f7d74b395634eddbf5b7ee0bbf406710abd13cc2317c5e58716",
        "5c818f05cc989a181f1583c67b81b813282366a4e5ac3e22f34c41b68b962499")),
])
def test_prog000_build_is_pinned(seeds, digests):
    assert _prog000_build_digests(seeds)[0] == digests


# The same under desync 1/4, where 80 of the 308 functions gain a
# phantom instruction.
@pytest.mark.parametrize("seeds,digests", [
    (SeedTuple(11, 22, 33), (
        "97307895730aeddf9372665bf2d2f19b4b5add4a7eb8a225a378197b0f0dabd7",
        "11ee42a89860a1558862168a24e4d7badddd8f2c0def7115924191d44a9b61e5",
        "8a4dbba1cf1542f04c4b70fb196a198b0a643bd00be40cbfb7007389c4f6aba2")),
    (SeedTuple(44, 55, 66), (
        "1750c1474031924f3a2b57ac3dbfb1652813493c6c57c912dba4c33a125fa84b",
        "c742231f09a69d45e3c76fb59eadc1b6272bd2ed10168295ae3e1aa5afd9688a",
        "f69879d0b16c4eb7ea90e7d42be9bb0251178373dde9183ee9419dc73202d481")),
])
def test_prog000_desync_build_is_pinned(seeds, digests):
    got, dec = _prog000_build_digests(
        seeds, BuildOptions(desync_num=1, desync_den=4))
    assert len(dec.desyncs) == 80
    assert got == digests


# The default build of prog000, pinned: its symbol file and opportunity
# log, with and without default padding.
@pytest.mark.parametrize("options,digests", [
    (BuildOptions(), (
        "20e02af8ca37be82177ab447bc53894346ffacc39693ae707dff6a46eea9945a",
        "edf727011adc3df24a37fe10d20cba0f7df156ceeef46dcb51ebf2bd1152f61e")),
    (BuildOptions(default_padding=False), (
        "4a4f506a8cdd4febcfca962c3cf9f8b52db91b703126dac270379ce8c224617f",
        "300d7ce396e10de5335a4a4075e0835b731138446c3bf73a5ddfff66b67e1d3b")),
])
def test_prog000_default_build_is_pinned(options, digests):
    m = generate_corpus(0xBE7C, 1, "medium")[0]
    res, log = build_default(m, options)
    outputs = (emit_symbol_file(res.symfile), emit_opportunity_log(log))
    assert tuple(hashlib.sha256(o.encode()).hexdigest()
                 for o in outputs) == digests


# The diversified build under (11, 22, 33) with the padding scheme and
# default padding off, and with the SP/FP access optimisation at NOP
# rate 2/3: symbol file, decision log and crash image.
@pytest.mark.parametrize("options,digests", [
    (BuildOptions(pad_scheme=False, default_padding=False), (
        "9cf90c794cb694852ee6eba2f7bbea85cb4ae7e19cd9c1cfd309de68f63e36c5",
        "2e404214af3d1aa119faf587776a5110c556c787f1d5a2b87ab06d281f339cbe",
        "fdc50cc0950001877024d365ba6b2397803426e07891c606f7d2700eaf290166")),
    (BuildOptions(sp_fp_opt=True, nop_num=2, nop_den=3), (
        "30d1a6c339798ace8800cfff3f523421f9fb4ee35abb99473835c81e1b358cd7",
        "5060d7a3ae6da24fdc89e94afc1ec45efa8c923870a69401fcc8048d5b7b76d3",
        "11b5085af6c8379a222dea5d03fe75653033fc56604a3fecea02ce7e8e83b0b2")),
])
def test_prog000_build_options_are_pinned(options, digests):
    assert _prog000_build_digests(SeedTuple(11, 22, 33), options)[0] == \
        digests
