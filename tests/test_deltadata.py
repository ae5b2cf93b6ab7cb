import dataclasses
import hashlib
import random
import struct
import zlib

import pytest
from hypothesis import assume, given, strategies as st

from divsym import deltadata
from divsym.deltadata import (Growth, Patch, PatchOp, apply,
                              delta_from_options, diff, pack, replay, unpack)
from divsym.diversify import SeedTuple, build_default, build_diversified
from divsym.errors import (AuthenticationError, DeltaFormatError,
                           PatchCorruptError, SymbolFormatError)
from divsym.progmodel import BuildOptions, generate_corpus
from divsym.replicate import replicate
from divsym.symfile import (CfiInitRecord, FuncRecord, LineRecord, SymbolFile,
                            emit_symbol_file)
from hostile import growth_faults, op_faults
from sfgen import random_symbol_file

OPTS = BuildOptions()
SEEDS = SeedTuple(0x51, 0x52, 0x53)


def small_dd(patch=Patch()):
    return delta_from_options(SEEDS, OPTS, patch)


def test_diff_identical_is_single_keep():
    sf = random_symbol_file(3)
    p = diff(sf, sf)
    assert len(p.ops) == 1
    assert p.ops[0].op == "K"
    assert p.payload_bytes == 0
    assert emit_symbol_file(apply(sf, p)) == emit_symbol_file(sf)


def shift_function(sf, index, delta, cfi_too=True):
    f = sf.funcs[index]
    nf = FuncRecord(f.address + delta, f.size, f.param_size, f.name,
                    tuple(LineRecord(l.address + delta, l.size, l.line, l.filenum)
                          for l in f.lines))
    cfi = sf.cfi_regions
    if cfi_too:
        c = cfi[index]
        nc = CfiInitRecord(c.address + delta, c.size, c.init_rules,
                           tuple((a + delta, r) for a, r in c.deltas))
        cfi = cfi[:index] + (nc,) + cfi[index + 1:]
    return SymbolFile(sf.module_id, sf.files,
                      sf.funcs[:index] + (nf,) + sf.funcs[index + 1:],
                      cfi, sf.publics)


def test_diff_trailing_shift_is_one_shift_op():
    model = generate_corpus(41, 1)[0]
    res, _ = build_default(model, OPTS)
    approx = res.symfile
    last = len(approx.funcs) - 1
    # one trailing record region moved by +8: exactly one SHIFT op
    truth = shift_function(approx, last, 8, cfi_too=False)
    p = diff(approx, truth)
    shifts = [op for op in p.ops if op.op == "S"]
    assert len(shifts) == 1
    assert shifts[0].delta == 8
    assert p.payload_bytes == 0
    assert emit_symbol_file(apply(approx, p)) == emit_symbol_file(truth)
    # a whole function shifts as two runs (FUNC block and CFI block)
    truth2 = shift_function(approx, last, 8)
    p2 = diff(approx, truth2)
    assert [op.op for op in p2.ops if op.op == "S"] == ["S", "S"]
    assert p2.payload_bytes == 0
    assert emit_symbol_file(apply(approx, p2)) == emit_symbol_file(truth2)


def test_diff_apply_round_trip_on_pipeline_pairs():
    for pi, model in enumerate(generate_corpus(43, 3)):
        dres, log = build_default(model, OPTS)
        for s in range(3):
            seeds = SeedTuple(s * 11 + 1, s * 13 + 2, s * 17 + 3)
            truth, _ = build_diversified(model, seeds, OPTS)
            approx = replicate(dres.symfile, log, seeds, OPTS)
            p = diff(approx, truth.symfile)
            got = apply(approx, p)
            assert emit_symbol_file(got) == emit_symbol_file(truth.symfile), \
                "program %d seed %d" % (pi, s)


def test_diff_apply_round_trip_on_random_pairs():
    for seed in range(60):
        a = random_symbol_file(seed)
        b = random_symbol_file(seed + 1000)
        p = diff(a, b)
        assert emit_symbol_file(apply(a, p)) == emit_symbol_file(b)


def grow_line(sf, fi, li, n):
    """sf with line record li of function fi grown by n bytes, the way a
    layout without alignment places it: the function's later line records
    and its CFI deltas at or past the record's old end move by n, and so
    does every later function with its CFI region."""
    f, c = sf.funcs[fi], sf.cfi_regions[fi]
    ln = f.lines[li]
    end = ln.address + ln.size

    def moved(a):
        return a + n if a >= end else a
    nf = dataclasses.replace(f, size=f.size + n, lines=f.lines[:li] + (
        ln._replace(size=ln.size + n),) + tuple(
        x._replace(address=x.address + n) for x in f.lines[li + 1:]))
    nc = dataclasses.replace(c, size=c.size + n, deltas=tuple(
        (moved(a), r) for a, r in c.deltas))
    later = [shift_function(sf, k, n) for k in range(fi + 1, len(sf.funcs))]
    return dataclasses.replace(
        sf, funcs=sf.funcs[:fi] + (nf,) + tuple(
            t.funcs[k] for k, t in enumerate(later, fi + 1)),
        cfi_regions=sf.cfi_regions[:fi] + (nc,) + tuple(
            t.cfi_regions[k] for k, t in enumerate(later, fi + 1)))


@given(st.integers(0, 10 ** 6), st.data())
def test_diff_apply_round_trip_on_grown_line_records(seed, data):
    approx = random_symbol_file(seed)
    assume(approx.funcs)
    fi = data.draw(st.integers(0, len(approx.funcs) - 1))
    f = approx.funcs[fi]
    li = data.draw(st.integers(0, len(f.lines) - 1))
    ln = f.lines[li]
    n = data.draw(st.integers(1, 64) | st.integers(1 - ln.size, -1))
    truth = grow_line(approx, fi, li, n)
    try:
        want = emit_symbol_file(truth)
    except SymbolFormatError:
        assume(False)   # the shrink left a CFI delta outside its region
    p = diff(approx, truth)
    assert p.growth == (Growth(fi, ln.address - f.address, n),)
    # the replay rebuilds the grown function and its CFI region exactly
    grown = replay(approx, p.growth)
    assert grown.funcs[fi] == truth.funcs[fi]
    assert grown.cfi_regions[fi] == truth.cfi_regions[fi]
    assert emit_symbol_file(apply(approx, p)) == want
    assert emit_symbol_file(apply(approx, unpack(pack(small_dd(p))).patch)) \
        == want


def test_replay_pushes_later_functions_and_reuses_records():
    sf = random_symbol_file(2, n_funcs=8)
    f = sf.funcs[3]
    gap = sf.funcs[4].address - (f.address + f.size)
    grown = replay(sf, (Growth(3, f.lines[0].address - f.address, gap + 8),))
    # function 4 moves just past the grown function 3
    assert grown.funcs[4].address == grown.funcs[3].address + grown.funcs[3].size
    assert grown.cfi_regions[4].address == grown.funcs[4].address
    assert grown.funcs[3].size == f.size + gap + 8
    assert grown.cfi_regions[3].size == f.size + gap + 8
    assert all(a is b for a, b in zip(grown.funcs[:3], sf.funcs[:3]))
    # once a function keeps its place, the rest keep their records
    moved = [k for k in range(8) if grown.funcs[k] is not sf.funcs[k]]
    assert moved == list(range(3, moved[-1] + 1))
    assert all(grown.funcs[k] is sf.funcs[k] for k in range(moved[-1] + 1, 8))


def test_payload_bytes_count_growth_records():
    p = Patch((PatchOp("K", 4),), (Growth(1, 0x10, 4), Growth(12, 0, -8)))
    assert p.payload_bytes == len("G 1 10 4\nG 12 0 -8\n")
    assert "G 1 10 4\nG 12 0 -8\nK 4" in deltadata._emit_payload(small_dd(p))
    assert unpack(pack(small_dd(p))) == small_dd(p)


def test_hostile_growth_records_raise_patch_corrupt():
    model = generate_corpus(41, 1)[0]
    dres, log = build_default(model, OPTS)
    truth, _ = build_diversified(model, SEEDS, OPTS)
    approx = replicate(dres.symfile, log, SEEDS, OPTS)
    patch = diff(approx, truth.symfile)
    for growth, message in growth_faults(approx).values():
        bad = dataclasses.replace(patch, growth=growth)
        with pytest.raises(PatchCorruptError, match=message):
            apply(approx, bad)
        with pytest.raises(PatchCorruptError, match=message):
            apply(approx, unpack(pack(small_dd(bad))).patch)


def test_hostile_patch_ops_raise_patch_corrupt():
    model = generate_corpus(41, 1)[0]
    dres, log = build_default(model, OPTS)
    approx = replicate(dres.symfile, log, SEEDS, OPTS)
    for patch, message in op_faults(approx).values():
        with pytest.raises(PatchCorruptError, match="^" + message):
            apply(approx, patch)
        with pytest.raises(PatchCorruptError, match="^" + message):
            apply(approx, unpack(pack(small_dd(patch))).patch)


@pytest.fixture(scope="module")
def prog000():
    """The benchmark program's model, default build and opportunity log."""
    model = generate_corpus(0xBE7C, 1, "medium")[0]
    return (model,) + build_default(model, OPTS)


def prog000_delta(prog000, seeds):
    """The truth, the approximation and the delta of one build of prog000."""
    model, dres, log = prog000
    truth, _ = build_diversified(model, seeds, OPTS)
    approx = replicate(dres.symfile, log, seeds, OPTS)
    return truth.symfile, approx, \
        delta_from_options(seeds, OPTS, diff(approx, truth.symfile))


def test_prog000_delta_stays_small(prog000):
    truth, approx, dd = prog000_delta(prog000, SeedTuple(11, 22, 33))
    assert len(pack(dd)) <= 450
    assert emit_symbol_file(apply(approx, dd.patch)) == emit_symbol_file(truth)


# The writer's uncompressed payload for prog000, pinned: a change to the
# diff or to the payload grammar shows here.  DEFLATE output depends on
# the zlib build, so the packed bytes are not pinned.
@pytest.mark.parametrize("seeds,digest", [
    (SeedTuple(11, 22, 33),
     "604856dd4ebfbc2036bc5bf5b954b16fa7a1aa36e41501543e2509b5429552a7"),
    (SeedTuple(44, 55, 66),
     "a87f4eae3a4020b4e1960c0fd706c903e9fe754ea0effe5edecb90d05115d264"),
])
def test_prog000_payload_is_pinned(prog000, seeds, digest):
    _, _, dd = prog000_delta(prog000, seeds)
    payload = deltadata._emit_payload(dd).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


def test_apply_rejects_wrong_length():
    a = random_symbol_file(8)
    with pytest.raises(PatchCorruptError):
        apply(a, Patch((PatchOp("K", 10 ** 6),)))
    with pytest.raises(PatchCorruptError):
        apply(a, Patch((PatchOp("K", 1),)))


def test_pack_unpack_round_trip_plain():
    model = generate_corpus(47, 1)[0]
    dres, log = build_default(model, OPTS)
    truth, _ = build_diversified(model, SEEDS, OPTS)
    approx = replicate(dres.symfile, log, SEEDS, OPTS)
    dd = small_dd(diff(approx, truth.symfile))
    blob = pack(dd)
    assert blob[:4] == b"DBPD"
    got = unpack(blob)
    assert got == dd


def test_pack_unpack_round_trip_with_key():
    dd = small_dd()
    key = bytes.fromhex("00112233445566778899aabbccddeeff")
    blob = pack(dd, key)
    assert unpack(blob, key) == dd
    assert len(blob) == len(pack(dd)) + 32


def test_tampering_detected():
    dd = small_dd(Patch((PatchOp("K", 3),)))
    key = b"secret-key"
    blob = pack(dd, key)
    rng = random.Random(5)
    for _ in range(20):
        pos = rng.randrange(len(blob))
        bad = bytearray(blob)
        bad[pos] ^= 0x40
        with pytest.raises((AuthenticationError, DeltaFormatError)):
            unpack(bytes(bad), key)


def test_wrong_or_missing_key():
    dd = small_dd()
    blob = pack(dd, b"right")
    with pytest.raises(AuthenticationError):
        unpack(blob, b"wrong")
    with pytest.raises(AuthenticationError):
        unpack(blob, None)
    with pytest.raises(AuthenticationError):
        unpack(pack(dd), b"unexpected")


def test_truncated_and_corrupt_containers():
    dd = small_dd()
    blob = pack(dd)
    with pytest.raises(DeltaFormatError):
        unpack(blob[:5])
    with pytest.raises(DeltaFormatError):
        unpack(blob[:-1])
    with pytest.raises(DeltaFormatError):
        unpack(b"XXXX" + blob[4:])
    bad = bytearray(blob)
    bad[4] = 9  # unsupported version
    with pytest.raises(DeltaFormatError):
        unpack(bytes(bad))
    for flags in (0x02, 0x80, 0x03):  # a bit pack never writes
        bad = bytearray(blob)
        bad[5] = flags
        with pytest.raises(DeltaFormatError, match="unknown container flags"):
            unpack(bytes(bad))


def test_version_1_container_is_refused():
    text = deltadata._emit_payload(small_dd()).replace(
        "DDATA v2", "DDATA v1").replace("PATCH v2 0 0", "PATCH v1 0")
    comp = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = comp.compress(text.encode()) + comp.flush()
    blob = b"DBPD" + bytes([1, 0]) + struct.pack("<I", len(payload)) + payload
    with pytest.raises(DeltaFormatError, match="unsupported version 1"):
        unpack(blob)
    # a v1 payload in a v2 container is refused as well
    with pytest.raises(DeltaFormatError, match="payload header"):
        unpack(b"DBPD" + bytes([2]) + blob[5:])


@pytest.mark.parametrize("patch_text", [
    "PATCH v2 0 1\nK -1", "PATCH v2 0 1\nS 2", "PATCH v2 0 1\nK x",
    "PATCH v2 0 1\nR 1 3\nonly one line", "PATCH v2 0 -1",
    "PATCH v2 0 1\nK 1 2", "PATCH v2 0", "PATCH v1 0",
    "PATCH v2 -1 0", "PATCH v2 1 0\nG 0 0 4 5", "PATCH v2 1 0\nG -1 0 4",
    "PATCH v2 1 0\nG 0 -4 4", "PATCH v2 1 0\nG 0 A 4",
    "PATCH v2 1 0\nG 0 0 +4", "PATCH v2 1 0\nG 01 0 4",
    "PATCH v2 1 0\nG 0 04 4", "PATCH v2 1 0\nG 0 0 -04",
    "PATCH v2 1 0\nK 1", "PATCH v2 1 1\nK 1\nG 0 0 4",
    "PATCH v2 1 0\nG %s 0 4" % ("1" * 5000),
])
def test_malformed_patch_ops_raise_patch_corrupt(patch_text):
    text = deltadata._emit_payload(small_dd())
    assert "PATCH v2 0 0" in text
    with pytest.raises(PatchCorruptError):
        deltadata._parse_payload(text.replace("PATCH v2 0 0", patch_text))


@pytest.mark.parametrize("old,new", [
    ("seeds 0", "seeds x"), ("nop 1/5", "nop 1"), ("nop 1/5", "nop a/5"),
    ("pad=1", "pad"), ("pad=1", "pad=x"), ("shuffle=1", "shuffle=1 pad=1"),
])
def test_malformed_header_records_raise_delta_format(old, new):
    text = deltadata._emit_payload(small_dd())
    assert old in text
    with pytest.raises(DeltaFormatError):
        deltadata._parse_payload(text.replace(old, new, 1))


@pytest.mark.parametrize("seeds", [SeedTuple(-1, 2, 3), SeedTuple(1, 1 << 64, 3)])
def test_pack_refuses_seed_outside_64_bits(seeds):
    with pytest.raises(DeltaFormatError, match="seed outside"):
        pack(delta_from_options(seeds, OPTS, Patch()))


def test_compression_never_explodes():
    for model in generate_corpus(53, 2):
        dres, log = build_default(model, OPTS)
        truth, _ = build_diversified(model, SEEDS, OPTS)
        approx = replicate(dres.symfile, log, SEEDS, OPTS)
        dd = small_dd(diff(approx, truth.symfile))
        raw = len(emit_symbol_file(truth.symfile).encode())
        assert len(pack(dd)) <= raw + 64



# Characters str.splitlines() breaks at besides "\n"; symbol-file names
# may hold any of them.
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", LINE_BREAKS, ids=lambda c: "U+%04X" % ord(c))
def test_payload_lines_split_at_newline_only(ch):
    name = "FUNC 10 8 0 a%sb" % ch
    dd = small_dd(Patch((PatchOp("R", 1, lines=(name, "10 8 1 1")),
                         PatchOp("I", lines=(name + ch,)))))
    assert unpack(pack(dd)) == dd


def test_diff_apply_with_line_breaks_in_names():
    model = generate_corpus(61, 1)[0]
    assert len(model.functions) >= len(LINE_BREAKS)
    new = {f.name: "f%sx" % ch for f, ch in zip(model.functions, LINE_BREAKS)}
    funcs = tuple(dataclasses.replace(
        f, name=new.get(f.name, f.name),
        call_sites=tuple((b, i, new.get(c, c)) for b, i, c in f.call_sites))
        for f in model.functions)
    model = dataclasses.replace(model, functions=funcs)
    dres, log = build_default(model, OPTS)
    truth, _ = build_diversified(model, SEEDS, OPTS)
    approx = replicate(dres.symfile, log, SEEDS, OPTS)
    dd = unpack(pack(small_dd(diff(approx, truth.symfile))))
    assert apply(approx, dd.patch) == truth.symfile
