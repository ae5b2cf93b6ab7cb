"""The hot kernels: SplitMix64 and FNV-1a-64 streams, the packed NOP
draws and the ARM immediate check.

This module is the one definition of the decision streams that the
build side and the crash server both replay.

nop_masks computes the SplitMix64 draws of many blocks at once.  Draw
g of a block is mix64(seed + g * gamma), so no draw depends on
another, within a block or across blocks: the draws of one NOP pass
are laid end to end, one per 128-bit lane, and cut into chunks of
CHUNK_LANES lanes, each packed into one Python int.  A chunk may hold
the tail of one block, many small blocks and the head of the next.
Every step of the finalizer (xor-shift, mask, multiply) is one big-int
operation over all lanes of a chunk.  A 64-bit product fits its 128-bit
lane, and masking each lane back to 64 bits before the next shift keeps
one lane's bits out of its neighbour.  The low 32 bits of each draw are
compared with the threshold by one subtraction that cannot borrow, and
byte 4 of each lane is then 1 exactly where the gap fires.  Those
bytes, read off with one slice per chunk and cut per block, are the
blocks' NOP masks; a span's NOP count is then one bytes.count over it.
nop_gaps is the one-block form.
"""

MASK64 = 0xFFFFFFFFFFFFFFFF
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

LANE_BYTES = 16        # one draw per 128-bit lane
LANE_BITS = 8 * LANE_BYTES
CHUNK_LANES = 2048     # lanes per packed int


def _packed_lanes(lane):
    """One full chunk with every 16-byte lane set to `lane`."""
    return int.from_bytes(lane.ljust(LANE_BYTES, b"\0") * CHUNK_LANES,
                          "little")


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


def _fire(starts, n, bias_ones):
    """Byte 4 of each of the first n lanes of a chunk: 1 where the low
    32 bits of lane j's draw, mix64(starts[j] + j * gamma), are below
    the threshold that bias_ones (2^32 + threshold - 1 in every lane of
    a full chunk) was made from."""
    m64, m32, steps = _M64, _M32, _STEPS
    if n < CHUNK_LANES:
        low = (1 << LANE_BITS * n) - 1
        m64, m32, steps = m64 & low, m32 & low, steps & low
        bias_ones &= low
    z = (int.from_bytes(starts, "little") + steps) & m64
    z = ((z ^ (z >> 30)) & m64) * 0xBF58476D1CE4E5B9 & m64
    # no mask after the last multiply: bits 0..31 of z ^ (z >> 31)
    # come from bits 0..62 of each lane, which the product holds
    z = ((z ^ (z >> 27)) & m64) * 0x94D049BB133111EB
    z = (z ^ (z >> 31)) & m32
    # each lane holds 2^32 + threshold - 1 - low32 in [1, 2^33): bit
    # 32, bit 0 of the lane's byte 4, is set iff low32 < threshold
    return (bias_ones - z).to_bytes(n * LANE_BYTES, "little")[4::LANE_BYTES]


def nop_masks(seeds, counts, threshold):
    """The NOP masks of many blocks, in order: for the k-th block,
    counts[k] bytes, byte g-1 is 1 exactly when gap g (after
    instruction g, 1-based) receives a NOP, else 0.

    One SplitMix64 draw per gap, from the block's seeds[k]; gap g fires
    when the low 32 bits of draw g are below threshold.  threshold =
    (num << 32) // den.  The draws of all blocks are computed together,
    CHUNK_LANES at a time, one per lane of a packed int (see the module
    docstring).  A count of 0 or less gives b"".
    """
    # Outside [1, 2^32 - 1] no draw or every draw is below threshold,
    # and past [0, 2^32] the lane subtraction would borrow or carry
    # into the next lane.
    if threshold <= 0:
        return [bytes(max(n, 0)) for n in counts]
    if threshold >= 1 << 32:
        return [b"\x01" * n for n in counts]
    bias_ones = (threshold + 0xFFFFFFFF) * _ONES
    fired = []
    starts = []
    lane = 0        # the chunk lane the next draw goes to
    for seed, n in zip(seeds, counts):
        g = 1       # the block's next gap
        while g <= n:
            take = min(n - g + 1, CHUNK_LANES - lane)
            # lane j draws gap g + j - lane: seed + (g - lane) * gamma
            # in the lane, plus the chunk's step j * gamma
            start = (seed + (g - lane) * SPLITMIX_GAMMA) & MASK64
            starts.append(start.to_bytes(LANE_BYTES, "little") * take)
            g += take
            lane += take
            if lane == CHUNK_LANES:
                fired.append(_fire(b"".join(starts), lane, bias_ones))
                starts.clear()
                lane = 0
    if lane:
        fired.append(_fire(b"".join(starts), lane, bias_ones))
    lanes = b"".join(fired)
    masks = []
    pos = 0
    for n in counts:
        end = pos + max(n, 0)
        masks.append(lanes[pos:end])
        pos = end
    return masks


def nop_gaps(seed, n_gaps, threshold):
    """The NOP mask of one block: nop_masks of that block alone."""
    return nop_masks((seed,), (n_gaps,), threshold)[0]


def arm_imm_encodable(v):
    """True if v fits an 8-bit value rotated right by an even amount."""
    v &= 0xFFFFFFFF
    if v & ~0xFF == 0:
        return True
    for r in range(2, 32, 2):
        if (((v << r) & 0xFFFFFFFF) | (v >> (32 - r))) & ~0xFF == 0:
            return True
    return False
