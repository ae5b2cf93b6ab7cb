import random
import sys
import tracemalloc
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from divsym import _speed
from divsym.prng import Prng


# gap counts on both sides of the 16-lane rounding and the 256-lane
# chunk of an earlier packing; the frozen counts below are recorded at them
CHUNK_NS = (0, 1, 15, 16, 17, 255, 256, 257, 513, 2000)
EDGE_THRESHOLDS = (0, 1, 1 << 31, (1 << 32) - 1, 1 << 32)
# thresholds outside [0, 2^32]: the scalar loop fires nothing or everything
CLAMPED_THRESHOLDS = (-1, (1 << 32) + 1, 1 << 40, (1 << 64) - 1)
EDGE_SEEDS = (0, 0x6A9, (1 << 64) - 1)


def _stream_mask(seed, n, threshold):
    """The scalar rule: gap g fires, and byte g-1 of the mask is 1, when
    the low 32 bits of draw g of Prng(seed) are below threshold."""
    draws = Prng(seed)
    return bytes((draws.next() & 0xFFFFFFFF) < threshold for _ in range(n))


def _gaps(mask):
    return [g for g, fired in enumerate(mask, 1) if fired]


# Reference outputs, recorded from the compiled SplitMix64/FNV-1a kernels
# that divsym once shipped beside the pure-Python ones (a scalar C loop,
# written independently of the packed draws).
FROZEN_MIX64 = {
    0x0000000000000000: 0x0000000000000000,
    0x0000000000000001: 0x5692161d100b05e5,
    0x9e3779b97f4a7c15: 0xe220a8397b1dcdaf,
    0xffffffffffffffff: 0xb4d055fcf2cbbd7b,
    0x8000000000000000: 0x25c26ea579cea98a,
    0x123456789abcdef0: 0x9629f58e8ec5b906,
}
FROZEN_FNV1A64 = {
    b"a": 0xaf63dc4c8601ec8c,
    b"fn000_a1b2#17": 0xf7943d6362352513,
}
FROZEN_RESEED = {
    (b"main", 0x0): 0xb1375cb6f94d9218,
    (b"fn000_a1b2", 0x11): 0xbc4c0dc5ffcbecd2,
    (b"fn307_ffff", 0xffffffffffffffff): 0x59505685ca59ec69,
    (b"x", 0x5eed): 0xe4e21f91e3f50668,
}
# (seed, threshold) -> (fired gaps of nop_gaps(seed, n, threshold) for n in
#                       CHUNK_NS, crc32 of the comma-joined gap indices
#                       that nop_gaps(seed, 2000, threshold) selects)
FROZEN_NOP_GAPS = {
    (0x0, 0x0): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0x00000000),
    (0x0, 0x1): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0x00000000),
    (0x0, 0x80000000): ((0, 1, 10, 10, 11, 140, 141, 141, 276, 1003), 0x67f65ccd),
    (0x0, 0xffffffff): ((0, 1, 15, 16, 17, 255, 256, 257, 513, 2000), 0x7b8c870b),
    (0x0, 0x100000000): ((0, 1, 15, 16, 17, 255, 256, 257, 513, 2000), 0x7b8c870b),
    (0x0, 0x33333333): ((0, 0, 3, 3, 3, 59, 59, 59, 109, 407), 0x75782a35),
    (0x0, 0xaaaaaaaa): ((0, 1, 13, 14, 15, 188, 189, 189, 368, 1354), 0x74668a6f),
    (0x6a9, 0x0): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0x00000000),
    (0x6a9, 0x1): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0x00000000),
    (0x6a9, 0x80000000): ((0, 0, 6, 7, 7, 145, 146, 146, 281, 1024), 0x5cb0e8e3),
    (0x6a9, 0xffffffff): ((0, 1, 15, 16, 17, 255, 256, 257, 513, 2000), 0x7b8c870b),
    (0x6a9, 0x100000000): ((0, 1, 15, 16, 17, 255, 256, 257, 513, 2000), 0x7b8c870b),
    (0x6a9, 0x33333333): ((0, 0, 3, 4, 4, 65, 65, 65, 121, 415), 0x38a98bbe),
    (0x6a9, 0xaaaaaaaa): ((0, 1, 8, 9, 9, 177, 178, 179, 353, 1338), 0xb7c8c835),
    (0xffffffffffffffff, 0x0): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0x00000000),
    (0xffffffffffffffff, 0x1): ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0x00000000),
    (0xffffffffffffffff, 0x80000000):
        ((0, 1, 7, 7, 7, 132, 133, 133, 255, 1000), 0x84a2c6a0),
    (0xffffffffffffffff, 0xffffffff):
        ((0, 1, 15, 16, 17, 255, 256, 257, 513, 2000), 0x7b8c870b),
    (0xffffffffffffffff, 0x100000000):
        ((0, 1, 15, 16, 17, 255, 256, 257, 513, 2000), 0x7b8c870b),
    (0xffffffffffffffff, 0x33333333):
        ((0, 1, 4, 4, 4, 59, 60, 60, 105, 407), 0x8fdc5024),
    (0xffffffffffffffff, 0xaaaaaaaa):
        ((0, 1, 9, 10, 11, 169, 170, 171, 343, 1343), 0x3b218c5a),
}


def test_published_splitmix64_vectors():
    # SplitMix64 from seed 0 (Steele, Lea and Flood, OOPSLA 2014)
    want = [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
    draws = Prng(0)
    assert [draws.next() for _ in want] == want
    assert [_speed.mix64(g * _speed.SPLITMIX_GAMMA) for g in (1, 2, 3)] == want


def test_published_fnv1a64_vectors():
    assert _speed.fnv1a64(b"") == 0xcbf29ce484222325
    assert _speed.fnv1a64(b"foobar") == 0x85944171f73967e8


def test_frozen_mix64_fnv1a64_and_reseed():
    assert {v: _speed.mix64(v) for v in FROZEN_MIX64} == FROZEN_MIX64
    assert {d: _speed.fnv1a64(d) for d in FROZEN_FNV1A64} == FROZEN_FNV1A64
    assert {k: _speed.reseed(*k) for k in FROZEN_RESEED} == FROZEN_RESEED


def test_frozen_nop_gaps():
    assert set(FROZEN_NOP_GAPS) == {
        (seed, thr) for seed in EDGE_SEEDS
        for thr in EDGE_THRESHOLDS + ((1 << 32) // 5, (2 << 32) // 3)}
    for (seed, thr), (counts, crc) in FROZEN_NOP_GAPS.items():
        assert tuple(_speed.nop_gaps(seed, n, thr).count(1)
                     for n in CHUNK_NS) == counts
        gaps = _gaps(_speed.nop_gaps(seed, 2000, thr))
        assert zlib.crc32(",".join(map(str, gaps)).encode()) == crc


def test_pure_nop_gaps_matches_the_mix64_stream():
    rng = random.Random(0x6A9)
    for _ in range(300):
        seed = rng.getrandbits(64)
        n = rng.randrange(0, 200)
        thr = rng.choice((0, 1, (1 << 32) // 5, 1 << 32,
                          rng.randrange(0, 1 << 32)))
        assert _speed.nop_gaps(seed, n, thr) == _stream_mask(seed, n, thr)


@pytest.mark.parametrize("n", CHUNK_NS)
def test_pure_nop_gaps_across_chunk_boundaries(n):
    for seed in EDGE_SEEDS:
        for thr in EDGE_THRESHOLDS:
            assert _speed.nop_gaps(seed, n, thr) == _stream_mask(seed, n, thr)


@pytest.mark.parametrize("threshold", CLAMPED_THRESHOLDS)
def test_pure_nop_gaps_clamps_the_threshold(threshold):
    for n in CHUNK_NS:
        want = _stream_mask(0x5EED, n, threshold)
        assert want == (bytes(n) if threshold < 0 else b"\x01" * n)
        assert _speed.nop_gaps(0x5EED, n, threshold) == want


CHUNK = _speed.CHUNK_LANES
# thresholds at and past the edges of the packed compare
MASK_THRESHOLDS = (0, 1, (1 << 32) // 5, (1 << 32) - 1, 1 << 32,
                   (1 << 32) + 1, 1 << 40)


@settings(max_examples=80, deadline=None)
@given(blocks=st.lists(
           st.tuples(st.integers(0, (1 << 64) - 1),
                     st.integers(-1, 40) | st.integers(CHUNK - 40, CHUNK + 40)
                     | st.integers(0, 3 * CHUNK)),
           max_size=8),
       scheme_seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, (1 << 64) - 1),
       threshold=st.sampled_from(MASK_THRESHOLDS) | st.integers(0, 1 << 32))
@example(blocks=[(1, CHUNK - 5), (2, 10), (3, 7)], scheme_seed=0,
         threshold=1 << 31)
@example(blocks=[(4, CHUNK), (5, 1), (6, CHUNK - 1), (7, 2)],
         scheme_seed=0x6A9, threshold=(1 << 32) - 1)
@example(blocks=[(8, 3), (9, 2 * CHUNK + 7), (10, 5)],
         scheme_seed=(1 << 64) - 1, threshold=1)
def test_plan_masks_are_the_per_block_nop_gaps(blocks, scheme_seed, threshold):
    # blocks share chunks, straddle chunk boundaries and span several
    # chunks; each block's mask is still the draws of its own seed, the
    # reseed of its prefix, and its tail the draw one gap further
    plan = _speed.DrawPlan([h for h, _ in blocks], [n for _, n in blocks])
    seeds = [_speed.mix64(h ^ scheme_seed) for h, _ in blocks]
    assert plan.masks(scheme_seed, threshold) == \
        tuple(_speed.nop_gaps(seed, n, threshold)
              for seed, (_, n) in zip(seeds, blocks))
    assert [mask + plan.tail(k, scheme_seed, threshold) for k, mask in
            enumerate(plan.masks(scheme_seed, threshold))] == \
        [_speed.nop_gaps(seed, n + 1, threshold)
         for seed, (_, n) in zip(seeds, blocks)]


def test_plan_masks_across_chunks_match_the_mix64_stream():
    # 3 blocks over 2.5 chunks: the second straddles a boundary
    blocks = [(0x5EED, CHUNK - 100), (0x6A9, CHUNK + 3), (1, 150)]
    plan = _speed.DrawPlan([h for h, _ in blocks], [n for _, n in blocks])
    for thr in MASK_THRESHOLDS:
        assert plan.masks(0x77, thr) == \
            tuple(_stream_mask(_speed.mix64(h ^ 0x77), n, thr)
                  for h, n in blocks)


def test_draw_plan_tables_stay_compact():
    # a plan of a 308-function program's 5,542 code blocks, about 66 gaps
    # each, keeps arrays and packed ints, not per-block objects: about
    # 0.54 MB; lists of slices or bytes per run held several MB
    rng = random.Random(5)
    prefixes = [rng.getrandbits(64) for _ in range(5542)]
    counts = [rng.randrange(0, 133) for _ in range(5542)]
    tracemalloc.start()
    try:
        plan = _speed.DrawPlan(prefixes, counts)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    assert len(plan.masks(1, 1 << 31)) == 5542


def test_packed_constants_stay_within_their_bound():
    # one chunk's constants, built once; no call adds any
    for n in range(1, 2 * CHUNK + 2, 61):
        _speed.nop_gaps(n, n, 1 << 31)
    consts = (_speed._ONES, _speed._M64, _speed._M32, _speed._STEPS)
    assert all(c.bit_length() <= _speed.LANE_BITS * CHUNK for c in consts)
    assert sum(sys.getsizeof(c) for c in consts) < 160_000


def test_pure_nop_gaps_scratch_memory_is_bounded_on_a_huge_block():
    # one 100,000-gap call holds at most one CHUNK_LANES chunk at a time;
    # packing the whole block at once would hold several 1.6 MB ints
    n = 100_000
    tracemalloc.start()
    try:
        out = _speed.nop_gaps(0xB16, n, 1 << 31)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == _stream_mask(0xB16, n, 1 << 31)
    assert peak - kept < 300_000
