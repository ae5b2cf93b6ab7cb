"""SplitMix64 PRNG and the per-function reseeding hash.

Every decision process in the pipeline draws from this generator, so
both sides of the replay (build system and crash server) reproduce
identical streams from identical seeds.  The constants are fixed
(divsym._speed defines them):

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Function-level reseeding hashes the function's immutable identifier
with FNV-1a-64 (offset 0xcbf29ce484222325, prime 0x100000001b3), xors
the scheme seed and applies the SplitMix64 output function once.
"""

from divsym._speed import MASK64, SPLITMIX_GAMMA, mix64, reseed as _reseed


class Prng:
    """SplitMix64 with 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + SPLITMIX_GAMMA) & MASK64
        return mix64(self.state)

    def below(self, n):
        """Uniform-ish draw in [0, n) by modular reduction."""
        return self.next() % n

    def range(self, lo, hi):
        """Inclusive integer range [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def chance(self, pct):
        """True with probability pct/100."""
        return self.below(100) < pct

    def choice(self, seq):
        return seq[self.below(len(seq))]


def function_reseed(identifier, scheme_seed):
    """Derive the per-function seed for one diversification scheme."""
    if not identifier:
        raise ValueError("empty function identifier")
    return _reseed(identifier.encode("utf-8"), scheme_seed & MASK64)
