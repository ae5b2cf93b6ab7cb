import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest

import divsym
from divsym import _kernels_py
from divsym import _speed
from divsym.prng import Prng


def _compile_tracked_source(out_dir):
    """Compile the tracked generated C into out_dir and load it by path.

    The module stays out of src/ and out of sys.modules, so the backend
    divsym._speed picks is unchanged.
    """
    cc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if cc is None or not Path(include, "Python.h").is_file():
        pytest.skip("no compiled kernels, and no C compiler or Python.h")
    so = Path(out_dir, "_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([cc, "-O2", "-shared", "-fPIC", "-I" + include,
                    str(Path(divsym.__file__).parent / "_kernels.c"),
                    "-o", str(so)], check=True)
    spec = importlib.util.spec_from_file_location("_kernels", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def _kernels(tmp_path_factory):
    """The compiled kernels: the built extension if there is one, else
    the tracked _kernels.c compiled for this test module."""
    try:
        from divsym import _kernels as built
    except ImportError:
        return _compile_tracked_source(tmp_path_factory.mktemp("kernels"))
    return built


# gap counts on both sides of the 16-lane rounding and the 256-lane chunk
CHUNK_NS = (0, 1, 15, 16, 17, 255, 256, 257, 513, 2000)
EDGE_THRESHOLDS = (0, 1, 1 << 31, (1 << 32) - 1, 1 << 32)
# thresholds outside [0, 2^32]: the scalar loop fires nothing or everything
CLAMPED_THRESHOLDS = (-1, (1 << 32) + 1, 1 << 40, (1 << 64) - 1)
EDGE_SEEDS = (0, 0x6A9, (1 << 64) - 1)


def _stream_gaps(seed, n, threshold):
    """The scalar rule: gap g fires when the low 32 bits of draw g of
    Prng(seed) are below threshold."""
    draws = Prng(seed)
    return [g for g in range(1, n + 1) if (draws.next() & 0xFFFFFFFF) < threshold]


def test_pure_nop_gaps_matches_the_mix64_stream():
    rng = random.Random(0x6A9)
    for _ in range(300):
        seed = rng.getrandbits(64)
        n = rng.randrange(0, 200)
        thr = rng.choice((0, 1, (1 << 32) // 5, 1 << 32,
                          rng.randrange(0, 1 << 32)))
        assert _kernels_py.nop_gaps(seed, n, thr) == _stream_gaps(seed, n, thr)


@pytest.mark.parametrize("n", CHUNK_NS)
def test_pure_nop_gaps_across_chunk_boundaries(n):
    for seed in EDGE_SEEDS:
        for thr in EDGE_THRESHOLDS:
            assert _kernels_py.nop_gaps(seed, n, thr) == _stream_gaps(seed, n, thr)


@pytest.mark.parametrize("threshold", CLAMPED_THRESHOLDS)
def test_pure_nop_gaps_clamps_the_threshold(threshold):
    for n in CHUNK_NS:
        want = _stream_gaps(0x5EED, n, threshold)
        assert want == ([] if threshold < 0 else list(range(1, n + 1)))
        assert _kernels_py.nop_gaps(0x5EED, n, threshold) == want


def test_lane_constant_cache_stays_within_its_bound():
    for n in range(1, 2 * _kernels_py.CHUNK_LANES + 2):
        _kernels_py.nop_gaps(n, n, 1 << 31)
    cache = _kernels_py._lane_consts
    assert sorted(cache) == list(range(_kernels_py.LANE_ROUND,
                                       _kernels_py.CHUNK_LANES + 1,
                                       _kernels_py.LANE_ROUND))
    assert sum(sys.getsizeof(v) for c in cache.values() for v in c) < 160_000


def test_pure_nop_gaps_scratch_memory_is_bounded_on_a_huge_block():
    # one 100,000-gap call holds at most one 256-lane chunk at a time;
    # packing the whole block at once would hold several 1.6 MB ints
    n = 100_000
    _kernels_py.nop_gaps(1, _kernels_py.CHUNK_LANES, 1 << 31)  # constants
    tracemalloc.start()
    try:
        out = _kernels_py.nop_gaps(0xB16, n, 1 << 31)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == _stream_gaps(0xB16, n, 1 << 31)
    assert peak - kept < 300_000


def test_backends_agree_on_mix_and_fnv(_kernels):
    assert _kernels.BACKEND == "cython"
    rng = random.Random(0xBEEF)
    for _ in range(2000):
        v = rng.getrandbits(64)
        assert _kernels.mix64(v) == _kernels_py.mix64(v)
    for _ in range(300):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        assert _kernels.fnv1a64(data) == _kernels_py.fnv1a64(data)


def test_backends_agree_on_reseed(_kernels):
    rng = random.Random(0xF00D)
    for _ in range(300):
        ident = ("fn%x" % rng.getrandbits(32)).encode()
        seed = rng.getrandbits(64)
        assert _kernels.reseed(ident, seed) == _kernels_py.reseed(ident, seed)


def test_backends_agree_on_nop_gaps(_kernels):
    rng = random.Random(0xAB)
    for _ in range(200):
        seed = rng.getrandbits(64)
        n = rng.randrange(0, 400)
        thr = rng.randrange(0, 1 << 32)
        assert _kernels.nop_gaps(seed, n, thr) == _kernels_py.nop_gaps(seed, n, thr)


def test_backends_agree_on_nop_gaps_across_chunk_boundaries(_kernels):
    # a negative threshold has no uint64 value in the compiled kernel
    thresholds = EDGE_THRESHOLDS + CLAMPED_THRESHOLDS[1:]
    for n in CHUNK_NS:
        for seed in EDGE_SEEDS:
            for thr in thresholds:
                assert _kernels.nop_gaps(seed, n, thr) == \
                    _kernels_py.nop_gaps(seed, n, thr)


def test_backends_agree_on_imm_encodable(_kernels):
    rng = random.Random(0xCD)
    for _ in range(20000):
        v = rng.getrandbits(32)
        assert _kernels.arm_imm_encodable(v) == _kernels_py.arm_imm_encodable(v)
    for v in (0, 0xFF, 0x3FF0, 0x4000, 0xFFFFFFFF, 0xF000000F):
        assert _kernels.arm_imm_encodable(v) == _kernels_py.arm_imm_encodable(v)


def test_selected_backend_exports():
    assert _speed.BACKEND in ("cython", "python")
    assert _speed.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
