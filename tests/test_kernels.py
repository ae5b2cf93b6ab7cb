import importlib.util
import random
import shutil
import subprocess
import sysconfig
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
