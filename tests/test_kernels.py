import random

import pytest

from divsym import _kernels_py
from divsym import _speed
from divsym.prng import Prng

try:
    from divsym import _kernels
except ImportError:
    _kernels = None

needs_ext = pytest.mark.skipif(_kernels is None,
                               reason="compiled kernels not built")


def test_pure_nop_gaps_matches_the_mix64_stream():
    rng = random.Random(0x6A9)
    for _ in range(300):
        seed = rng.getrandbits(64)
        n = rng.randrange(0, 200)
        thr = rng.choice((0, 1, (1 << 32) // 5, 1 << 32,
                          rng.randrange(0, 1 << 32)))
        draws = Prng(seed)
        want = [g for g in range(1, n + 1)
                if (draws.next() & 0xFFFFFFFF) < thr]
        assert _kernels_py.nop_gaps(seed, n, thr) == want


@needs_ext
def test_backends_agree_on_mix_and_fnv():
    rng = random.Random(0xBEEF)
    for _ in range(2000):
        v = rng.getrandbits(64)
        assert _kernels.mix64(v) == _kernels_py.mix64(v)
    for _ in range(300):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        assert _kernels.fnv1a64(data) == _kernels_py.fnv1a64(data)


@needs_ext
def test_backends_agree_on_reseed():
    rng = random.Random(0xF00D)
    for _ in range(300):
        ident = ("fn%x" % rng.getrandbits(32)).encode()
        seed = rng.getrandbits(64)
        assert _kernels.reseed(ident, seed) == _kernels_py.reseed(ident, seed)


@needs_ext
def test_backends_agree_on_nop_gaps():
    rng = random.Random(0xAB)
    for _ in range(200):
        seed = rng.getrandbits(64)
        n = rng.randrange(0, 400)
        thr = rng.randrange(0, 1 << 32)
        assert _kernels.nop_gaps(seed, n, thr) == _kernels_py.nop_gaps(seed, n, thr)


@needs_ext
def test_backends_agree_on_imm_encodable():
    rng = random.Random(0xCD)
    for _ in range(20000):
        v = rng.getrandbits(32)
        assert _kernels.arm_imm_encodable(v) == _kernels_py.arm_imm_encodable(v)
    for v in (0, 0xFF, 0x3FF0, 0x4000, 0xFFFFFFFF, 0xF000000F):
        assert _kernels.arm_imm_encodable(v) == _kernels_py.arm_imm_encodable(v)


def test_selected_backend_exports():
    assert _speed.BACKEND in ("cython", "python")
    assert _speed.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
