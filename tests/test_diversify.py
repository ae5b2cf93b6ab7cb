import itertools
from dataclasses import replace

import pytest

from divsym import diversify
from divsym.diversify import (SeedTuple, build_default, build_diversified,
                              bucket_gaps, emit_decision_log,
                              emit_opportunity_log, gap_decisions,
                              inject_desync, insert_nops,
                              pad_amount, parse_decision_log,
                              parse_opportunity_log, shuffle_order,
                              shuffle_permutation)
from divsym.prng import Prng, function_reseed
from divsym.progmodel import (BlockModel, BuildOptions, FrameModel, LineSpan,
                              generate_corpus, layout)
from divsym.symfile import emit_symbol_file
from divsym._speed import fnv1a64

# chi-square critical value, df=31, significance 0.001
CHI2_CRIT = 61.0983

SEEDS = SeedTuple(0x1111, 0x2222, 0x3333)


def test_fnv1a64_reference_vector():
    h = 0xCBF29CE484222325
    for b in b"a":
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    assert h == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"a") == h


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


def test_pad_amount_default_mode():
    for ident in ("a", "f@x.o:.text.f", "zzz"):
        assert pad_amount(ident, 123456, True) == 8


def test_pad_amount_range_and_alignment():
    for i in range(500):
        p = pad_amount("fn%d" % i, 42, False)
        assert p % 8 == 0
        assert 8 <= p <= 256


def test_pad_amount_uniform_chi_square():
    counts = [0] * 32
    n = 10000
    for i in range(n):
        p = pad_amount("func_%d@o:s" % i, 0xABCDEF, False)
        counts[(p // 8) - 1] += 1
    expected = n / 32
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < CHI2_CRIT


def _nop_model():
    return generate_corpus(3, 1)[0]


def test_insert_nops_zero_probability():
    m = _nop_model()
    assert insert_nops(m, 99, 0, 5) == m


def test_insert_nops_probability_one_doubles_gaps():
    m = _nop_model()
    out = insert_nops(m, 99, 1, 1)
    for f0, f1 in zip(m.functions, out.functions):
        for b0, b1 in zip(f0.blocks, f1.blocks):
            if b0.kind == "code":
                assert b1.instr_count == 2 * b0.instr_count - 1
            else:
                assert b1 == b0


def test_insert_nops_rate_twenty_percent():
    fired = 0
    gaps = 0
    for i in range(700):
        n = 150
        got = gap_decisions("f%d@o:s" % i, 0, n, 0x5EED, 1, 5)
        fired += len(got)
        gaps += n
    assert gaps >= 100000
    rate = fired / gaps
    assert abs(rate - 0.2) <= 0.01


def test_gap_decisions_depend_only_on_block_key():
    a = gap_decisions("f@o:s", 3, 40, 1234, 1, 5)
    assert gap_decisions("f@o:s", 3, 40, 1234, 1, 5) == a
    assert gap_decisions("f@o:s", 4, 40, 1234, 1, 5) != a
    assert gap_decisions("g@o:s", 3, 40, 1234, 1, 5) != a
    # a longer block agrees on the shared prefix of gaps
    b = gap_decisions("f@o:s", 3, 60, 1234, 1, 5)
    assert tuple(g for g in b if g <= 40) == a


def test_nops_inherit_preceding_line():
    spans = (LineSpan(10, 1, 2), LineSpan(20, 1, 3))
    block = BlockModel("code", 0, spans=spans, epilogue=True)
    grown = insert_nops.__globals__["_grow_spans"](spans, (1, 2, 4))
    # gaps 1,2 follow instructions in span 0 and 2? gap 2 follows instr 2
    # (last of span 0); gap 4 follows instr 4 (inside span 1)
    assert grown[0].instrs == 2 + 2
    assert grown[1].instrs == 3 + 1
    assert grown[0].line == 10 and grown[1].line == 20
    assert sum(s.instrs for s in grown) == sum(s.instrs for s in spans) + 3
    assert block.kind == "code"


def _linear_gap_counts(gaps, sizes):
    """The nested scan bucket_gaps replaced: first running total >= g."""
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
    assert bucket_gaps(gaps, sizes) == _linear_gap_counts(gaps, sizes)


def test_build_diversified_draws_each_code_block_once(monkeypatch):
    model = generate_corpus(3, 1)[0]
    calls = []

    def counting(*args):
        calls.append(args[:2])
        return gap_decisions(*args)

    monkeypatch.setattr(diversify, "gap_decisions", counting)
    build_diversified(model, SEEDS, BuildOptions())
    blocks = [(f.identifier, b.index) for f in model.functions
              for b in f.blocks if b.kind == "code"]
    assert sorted(calls) == sorted(blocks)


@pytest.mark.parametrize("options", [
    BuildOptions(), BuildOptions(nop_num=1, nop_den=1),
    BuildOptions(desync_num=1, desync_den=2)])
def test_decision_log_nops_are_the_per_block_draws(options):
    model = generate_corpus(3, 1)[0]
    _, dec = build_diversified(model, SEEDS, options)
    drawn = model
    if options.desync_num:
        drawn, hits = inject_desync(model, SEEDS, options.desync_num,
                                    options.desync_den)
        assert hits == dec.desyncs and hits
    want = []
    for f in drawn.functions:
        for b in f.blocks:
            if b.kind != "code":
                continue
            gaps = gap_decisions(f.identifier, b.index, b.instr_count - 1,
                                 SEEDS.nop_seed, options.nop_num,
                                 options.nop_den)
            if gaps:
                want.append((f.identifier, b.index, gaps))
    assert dec.nops == tuple(want)


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
    assert shuffle_order(parse_opportunity_log(
        emit_opportunity_log(build_default(m)[1])), SEEDS.shuffle_seed) == list(d1.order)


def test_inject_desync_targets_and_rate():
    m = _nop_model()
    m2, hits = inject_desync(m, SEEDS, 0, 100,
                             targets=[m.functions[0].identifier])
    assert [h[0] for h in hits] == [m.functions[0].identifier]
    f0, f0b = m.functions[0], m2.functions[0]
    assert sum(b.instr_count for b in f0b.blocks if b.kind == "code") == \
        sum(b.instr_count for b in f0.blocks if b.kind == "code") + 1
    m3, _ = inject_desync(m, SEEDS, 0, 100, targets=[])
    assert m3 == m


def test_log_round_trips():
    m = _nop_model()
    _, opp = build_default(m)
    assert parse_opportunity_log(emit_opportunity_log(opp)) == opp
    _, dec = build_diversified(m, SEEDS, BuildOptions(desync_num=10))
    assert parse_decision_log(emit_decision_log(dec)) == dec
