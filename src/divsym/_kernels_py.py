"""Pure-Python fallback for the hot kernels.

Same signatures and bit-exact results as the compiled module
(divsym._kernels).  Selected by divsym._speed when the extension is
not built.
"""

MASK64 = 0xFFFFFFFFFFFFFFFF
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

BACKEND = "python"


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


def nop_gaps(seed, n_gaps, threshold):
    """Gap indices (1-based) selected for NOP insertion.

    One SplitMix64 draw per gap; gap g fires when the low 32 bits of
    draw g are below threshold.  threshold = (num << 32) // den.  The
    mix64 finalizer is inlined: this loop is the build side's hottest.
    """
    out = []
    state = seed & MASK64
    for g in range(1, n_gaps + 1):
        state = (state + SPLITMIX_GAMMA) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        if ((z ^ (z >> 31)) & 0xFFFFFFFF) < threshold:
            out.append(g)
    return out


def arm_imm_encodable(v):
    """True if v fits an 8-bit value rotated right by an even amount."""
    v &= 0xFFFFFFFF
    if v & ~0xFF == 0:
        return True
    for r in range(2, 32, 2):
        if (((v << r) & 0xFFFFFFFF) | (v >> (32 - r))) & ~0xFF == 0:
            return True
    return False
