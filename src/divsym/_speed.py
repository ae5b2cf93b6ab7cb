"""The hot kernels: SplitMix64 and FNV-1a-64 streams, the packed NOP
draws and the ARM immediate check.

This module is the one definition of the decision streams that the
build side and the crash server both replay.

nop_gaps computes a block's SplitMix64 draws all at once.  Draw g is
mix64(seed + g * gamma), so the draws do not depend on one another:
each sits in its own 128-bit lane of one Python int, up to 256 lanes
per int, and every step of the finalizer (xor-shift, mask, multiply)
is one big-int operation over all lanes.  A 64-bit product fits its
128-bit lane, and masking each lane back to 64 bits before the next
shift keeps one lane's bits out of its neighbour.  The low 32 bits of
each draw are compared with the threshold by one subtraction that
cannot borrow, and byte 4 of each lane is then 1 exactly where the gap
fires.  Those bytes, read off with one slice, are the block's NOP mask;
a span's NOP count is then one bytes.count over it.
"""

MASK64 = 0xFFFFFFFFFFFFFFFF
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

LANE_BYTES = 16        # one draw per 128-bit lane
CHUNK_LANES = 256      # lanes per int: a block's draws in chunks of this
LANE_ROUND = 16        # lane counts are rounded up to a multiple of this

# lane count -> (ones, gamma steps 1..n, 64-bit lane mask, 32-bit lane
# mask); at most CHUNK_LANES // LANE_ROUND entries, about 150 KB.
_lane_consts = {}


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


def _lanes(n):
    """The packed constants for n lanes (n a multiple of LANE_ROUND)."""
    consts = _lane_consts.get(n)
    if consts is None:
        steps = b"".join(
            ((g * SPLITMIX_GAMMA) & MASK64).to_bytes(LANE_BYTES, "little")
            for g in range(1, n + 1))
        consts = _lane_consts[n] = tuple(
            int.from_bytes(lanes, "little")
            for lanes in (b"\x01".ljust(LANE_BYTES, b"\0") * n, steps,
                          (b"\xff" * 8).ljust(LANE_BYTES, b"\0") * n,
                          (b"\xff" * 4).ljust(LANE_BYTES, b"\0") * n))
    return consts


def nop_gaps(seed, n_gaps, threshold):
    """The block's NOP mask: n_gaps bytes, byte g-1 is 1 exactly when
    gap g (after instruction g, 1-based) receives a NOP, else 0.

    One SplitMix64 draw per gap; gap g fires when the low 32 bits of
    draw g are below threshold.  threshold = (num << 32) // den.  The
    draws of up to CHUNK_LANES gaps are computed at once, one per lane
    of a packed int (see the module docstring).
    """
    if n_gaps <= 0:
        return b""
    # Outside [1, 2^32 - 1] no draw or every draw is below threshold,
    # and past [0, 2^32] the lane subtraction below would borrow or
    # carry into the next lane.
    if threshold <= 0:
        return bytes(n_gaps)
    if threshold >= 1 << 32:
        return b"\x01" * n_gaps
    seed &= MASK64
    bias = threshold + 0xFFFFFFFF      # 2^32 + threshold - 1
    chunks = []
    for g0 in range(0, n_gaps, CHUNK_LANES):
        n = min(n_gaps - g0, CHUNK_LANES)
        lanes = -(-n // LANE_ROUND) * LANE_ROUND
        ones, steps, m64, m32 = _lanes(lanes)
        z = (((seed + g0 * SPLITMIX_GAMMA) & MASK64) * ones + steps) & m64
        z = ((z ^ (z >> 30)) & m64) * 0xBF58476D1CE4E5B9 & m64
        # no mask after the last multiply: bits 0..31 of z ^ (z >> 31)
        # come from bits 0..62 of each lane, which the product holds
        z = ((z ^ (z >> 27)) & m64) * 0x94D049BB133111EB
        z = (z ^ (z >> 31)) & m32
        # each lane holds 2^32 + threshold - 1 - low32 in [1, 2^33): bit
        # 32, bit 0 of the lane's byte 4, is set iff low32 < threshold
        fired = (bias * ones - z).to_bytes(lanes * LANE_BYTES, "little")
        chunks.append(fired[4:n * LANE_BYTES:LANE_BYTES])
    return b"".join(chunks)


def arm_imm_encodable(v):
    """True if v fits an 8-bit value rotated right by an even amount."""
    v &= 0xFFFFFFFF
    if v & ~0xFF == 0:
        return True
    for r in range(2, 32, 2):
        if (((v << r) & 0xFFFFFFFF) | (v >> (32 - r))) & ~0xFF == 0:
            return True
    return False
