"""The hot kernels: SplitMix64 and FNV-1a-64 streams, the packed NOP
draws and the ARM immediate check.

This module is the one definition of the decision streams that the
build side and the crash server both replay.

A DrawPlan draws the NOP masks of a sequence of blocks.  Block k's
seed is reseed's mix64(prefixes[k] ^ scheme_seed), prefixes[k] being
the FNV-1a-64 hash of the block's key, and its draw g is
mix64(seed + g * gamma), so no draw depends on another, within a block
or across blocks, and everything but the scheme seed is fixed per
sequence of blocks.  The plan does that seed-free part once: it lays
the draws of all blocks end to end, one per 128-bit lane, and cuts
them into chunks of CHUNK_LANES lanes, each packed into one Python
int.  A chunk may hold the tail of one block, many small blocks and
the head of the next; each piece of a block in a chunk is a run.  For
each run the plan keeps its block's prefix and its step, so that the
run's start is the block's seed plus the step, the same in every lane
of the run, and it keeps the length of every block's mask.  Per scheme
seed, masks() then reseeds every run at once, the runs as lanes of one
packed int, repeats each run's start over its lanes, chunk by chunk,
and draws each chunk with _fire: every step of the finalizer
(xor-shift, mask, multiply) is one big-int operation over all lanes
of a chunk.  A 64-bit product fits its 128-bit lane, and masking each
lane back to 64 bits before the next shift keeps one lane's bits out
of its neighbour.  The low 32 bits of each draw are compared with the
threshold by one subtraction that cannot borrow, and byte 4 of each
lane is then 1 exactly where the gap fires.  Those bytes, read off
with one slice per chunk and cut per block by one Struct, are the
blocks' NOP masks; a span's NOP count is then one bytes.count over
it.  Only the loop over chunks runs in Python; nothing loops over
blocks.

tail() draws one gap past a block's mask, and nop_gaps is the
one-block form, drawn from the block's seed itself.
"""

import sys
from array import array
from itertools import islice
from operator import itemgetter
from struct import Struct

MASK64 = 0xFFFFFFFFFFFFFFFF
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

LANE_BYTES = 16        # one draw per 128-bit lane
_LANE = Struct("%ds" % LANE_BYTES)
LANE_BITS = 8 * LANE_BYTES
CHUNK_LANES = 2048     # lanes per packed int


def _packed_lanes(lane, n=CHUNK_LANES):
    """n lanes, by default one full chunk, with every 16-byte lane set to
    `lane`."""
    return int.from_bytes(lane.ljust(LANE_BYTES, b"\0") * n, "little")


def _packed(values):
    """One packed int with the 64-bit values in its lanes, in order."""
    lanes = array("Q", bytes(LANE_BYTES * len(values)))
    lanes[::2] = values
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


# The packed constants of one full chunk, built once: ones, the 64- and
# 32-bit lane masks, and lane j's gamma step j * gamma; a chunk of n
# lanes uses their low n lanes.  About 140 KB together.
_ONES = _packed_lanes(b"\x01")
_M64 = _packed_lanes(b"\xff" * 8)
_M32 = _packed_lanes(b"\xff" * 4)
_STEPS = int.from_bytes(b"".join(
    ((j * SPLITMIX_GAMMA) & MASK64).to_bytes(LANE_BYTES, "little")
    for j in range(CHUNK_LANES)), "little")


def mix64(z):
    """SplitMix64 output function (finalizer only, no state increment)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def fnv1a64(data):
    """FNV-1a over a byte string, 64-bit."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def reseed(identifier_utf8, scheme_seed):
    """Per-function PRNG reseed: FNV-1a of the identifier, xor seed, mix."""
    return mix64(fnv1a64(identifier_utf8) ^ (scheme_seed & MASK64))


def _fire(runs, bias_ones):
    """Byte 4 of each lane of a chunk of n lanes, the lanes `runs` joins
    to: 1 where the low 32 bits of lane j's draw, mix64(starts[j] + j *
    gamma), are below the threshold that bias_ones (2^32 + threshold - 1
    in every lane of a full chunk) was made from."""
    starts = b"".join(runs)
    n = len(starts) // LANE_BYTES
    m64, m32, steps = _M64, _M32, _STEPS
    if n < CHUNK_LANES:
        low = (1 << LANE_BITS * n) - 1
        m64, m32, steps = m64 & low, m32 & low, steps & low
        bias_ones &= low
    z = int.from_bytes(starts, "little")
    del starts                  # one chunk's bytes fewer at the peak
    z = (z + steps) & m64
    z = ((z ^ (z >> 30)) & m64) * 0xBF58476D1CE4E5B9 & m64
    # no mask after the last multiply: bits 0..31 of z ^ (z >> 31)
    # come from bits 0..62 of each lane, which the product holds
    z = ((z ^ (z >> 27)) & m64) * 0x94D049BB133111EB
    z = (z ^ (z >> 31)) & m32
    # each lane holds 2^32 + threshold - 1 - low32 in [1, 2^33): bit
    # 32, bit 0 of the lane's byte 4, is set iff low32 < threshold
    return (bias_ones - z).to_bytes(n * LANE_BYTES, "little")[4::LANE_BYTES]


class DrawPlan:
    """The seed-free part of drawing the NOP masks of blocks.

    Block k has the key hash prefixes[k] and counts[k] gaps (none when
    it is 0 or less).  Per scheme seed, masks() gives every block's
    mask: counts[k] bytes, byte g-1 1 exactly when the low 32 bits of
    draw g of the block's seed, mix64(prefixes[k] ^ scheme_seed), are
    below the threshold, else 0.  The plan never changes after it is
    built; its tables are arrays, packed ints and a Struct, about 100
    bytes per block.
    """

    __slots__ = ("prefixes", "counts", "_masks", "_takes", "_chunk_runs",
                 "_run_prefixes", "_run_steps")

    def __init__(self, prefixes, counts):
        self.prefixes = array("Q", prefixes)
        self.counts = array("q", counts)
        # cuts the fired bytes of one draw into the blocks' masks
        self._masks = Struct("%ds" * len(self.counts)
                             % tuple(max(n, 0) for n in self.counts))
        takes = array("I")          # the lanes of each run
        chunk_runs = array("I")     # the runs of each chunk
        run_prefixes = array("Q")   # the prefix of each run's block
        steps = array("Q")          # the step of each run
        lane = 0                    # the chunk lane the next draw goes to
        runs = 0                    # the runs of the chunk so far
        for h, n in zip(self.prefixes, self.counts):
            g = 1                   # the block's next gap
            while g <= n:
                take = min(n - g + 1, CHUNK_LANES - lane)
                # lane j draws gap g + j - lane: seed + (g - lane) * gamma
                # in the lane, plus the chunk's step j * gamma (_fire)
                run_prefixes.append(h)
                steps.append(((g - lane) * SPLITMIX_GAMMA) & MASK64)
                takes.append(take)
                g += take
                lane += take
                runs += 1
                if lane == CHUNK_LANES:
                    chunk_runs.append(runs)
                    lane = runs = 0
        if runs:
            chunk_runs.append(runs)
        self._takes = takes
        self._chunk_runs = chunk_runs
        self._run_prefixes = _packed(run_prefixes)
        self._run_steps = _packed(steps)

    def masks(self, scheme_seed, threshold):
        """Every block's mask under scheme_seed, in order, a tuple."""
        ones = _packed_lanes(b"\x01", len(self._takes))
        m64 = ones * MASK64
        # reseed every run at once: mix64(prefix ^ scheme_seed) per lane
        z = self._run_prefixes ^ (scheme_seed & MASK64) * ones
        z = ((z ^ (z >> 30)) & m64) * 0xBF58476D1CE4E5B9 & m64
        z = ((z ^ (z >> 27)) & m64) * 0x94D049BB133111EB & m64
        return self._masks.unpack(self._lanes((z ^ (z >> 31)) & m64, m64,
                                              threshold))

    def tail(self, k, scheme_seed, threshold):
        """Byte counts[k] of block k's mask were it one gap longer: the
        mask of counts[k] + 1 gaps is masks()[k] plus this byte (b""
        when that mask is empty)."""
        n = self.counts[k]
        if n < 0:
            return b""
        seed = mix64(self.prefixes[k] ^ (scheme_seed & MASK64))
        draw = mix64(seed + (n + 1) * SPLITMIX_GAMMA)
        return b"\x01" if (draw & 0xFFFFFFFF) < threshold else b"\x00"

    def _lanes(self, run_seeds, m64, threshold):
        """The fired byte of every draw, the blocks' masks end to end,
        from each run's block seed packed as the lane of the run; m64
        holds 2^64 - 1 in the lane of each run."""
        total = self._masks.size
        # Outside [1, 2^32 - 1] no draw or every draw is below threshold,
        # and past [0, 2^32] the lane subtraction would borrow or carry
        # into the next lane.
        if threshold <= 0:
            return bytes(total)
        if threshold >= 1 << 32:
            return b"\x01" * total
        starts = ((run_seeds + self._run_steps) & m64) \
            .to_bytes(LANE_BYTES * len(self._takes), "little")
        # each run's start, repeated over its lanes; a chunk joins its runs'
        runs = map(bytes.__mul__, map(itemgetter(0), _LANE.iter_unpack(starts)),
                   self._takes)
        bias_ones = (threshold + 0xFFFFFFFF) * _ONES
        return b"".join([_fire(islice(runs, k), bias_ones)
                         for k in self._chunk_runs])


def nop_gaps(seed, n_gaps, threshold):
    """The NOP mask of one block, drawn from its seed: n_gaps bytes, byte
    g-1 1 exactly when the low 32 bits of mix64(seed + g * gamma) are
    below threshold.  A DrawPlan of that block alone, every run of it
    starting from `seed`."""
    plan = DrawPlan((0,), (n_gaps,))
    ones = _packed_lanes(b"\x01", len(plan._takes))
    return plan._lanes((seed & MASK64) * ones, ones * MASK64, threshold)


def arm_imm_encodable(v):
    """True if v fits an 8-bit value rotated right by an even amount."""
    v &= 0xFFFFFFFF
    if v & ~0xFF == 0:
        return True
    for r in range(2, 32, 2):
        if (((v << r) & 0xFFFFFFFF) | (v >> (32 - r))) & ~0xFF == 0:
            return True
    return False
