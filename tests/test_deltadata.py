import dataclasses
import hashlib
import hmac
import itertools
import random
import struct

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
                            emit_symbol_file, symbol_file_entries)
from hostile import (HEADER_FAULTS, PATCH_FAULTS, _plain_container,
                     edited_container, growth_faults, op_faults, varints)
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


def _entry_oracle(approx, truth):
    """The patch ops of diff, made on entries alone: both files' entries
    cut into segments (the header, each FUNC, the PUBLICs, each CFI
    region), segment i paired with segment i by section and diffed by
    _diff_entries, a surplus segment against none, then coalesced."""
    def sections(sf):
        entries = iter(symbol_file_entries(sf))
        sizes = ([bool(sf.module_id) + len(sf.files)],
                 [1 + len(f.lines) for f in sf.funcs],
                 [len(sf.publics)] if sf.publics else [],
                 [1 + len(c.deltas) for c in sf.cfi_regions])
        return [[[next(entries) for _ in range(n)] for n in section]
                for section in sizes]

    ops = []
    for xs, ys in zip(sections(approx), sections(truth)):
        for a, b in itertools.zip_longest(xs, ys, fillvalue=[]):
            ops += deltadata._diff_entries(a, b)
    return tuple(deltadata._coalesce(ops))


def _edit_func(sf, i, **changes):
    funcs = list(sf.funcs)
    funcs[i] = dataclasses.replace(funcs[i], **changes)
    return dataclasses.replace(sf, funcs=tuple(funcs))


def _edit_cfi(sf, i, **changes):
    regions = list(sf.cfi_regions)
    regions[i] = dataclasses.replace(regions[i], **changes)
    return dataclasses.replace(sf, cfi_regions=tuple(regions))


def _diff_cases():
    """(name, approx, truth, op kinds its patch holds), each file valid."""
    sf = random_symbol_file(7, n_funcs=8)
    f3 = sf.funcs[3]
    line = f3.lines[0]
    c = next(i for i, c in enumerate(sf.cfi_regions) if len(c.deltas) > 1)
    deltas = sf.cfi_regions[c].deltas
    moved = shift_function(shift_function(sf, 6, 12), 7, 12)
    yield "kept", sf, sf, "K"
    yield "shifted", sf, moved, "KS"
    yield "shifted function, kept CFI", sf, shift_function(sf, 7, 8, False), \
        "KS"
    yield "changed line", sf, _edit_func(
        moved, 3, lines=(line._replace(line=line.line + 1),) + f3.lines[1:]), \
        "KSR"
    yield "changed FUNC name", sf, _edit_func(moved, 2, name="renamed"), "KSR"
    yield "line record split", sf, _edit_func(sf, 3, lines=(
        line._replace(size=4), line._replace(address=line.address + 4,
                                             size=line.size - 4))
        + f3.lines[1:]), "KR"
    yield "surplus function in the truth", dataclasses.replace(
        sf, funcs=sf.funcs[:-1], cfi_regions=sf.cfi_regions[:-1]), sf, "KI"
    yield "surplus function in the approximation", sf, dataclasses.replace(
        sf, funcs=sf.funcs[:-1], cfi_regions=sf.cfi_regions[:-1]), "KD"
    yield "changed CFI INIT rules", sf, _edit_cfi(moved, 5, init_rules={
        **sf.cfi_regions[5].init_rules, ".cfa": ("sp", 1000, "+")}), "KSR"
    yield "changed CFI delta rules", sf, _edit_cfi(moved, c, deltas=tuple(
        (addr, {**rules, "r4": ("sp", 8, "+")}) for addr, rules in deltas)), \
        "KSR"
    yield "CFI delta dropped", sf, _edit_cfi(moved, c, deltas=deltas[1:]), \
        "KSD"
    yield "PUBLIC added", sf, dataclasses.replace(
        moved, publics=sf.publics + ((0xFFFF0, "late"),)), "KSI"
    model = generate_corpus(5, 1)[0]
    options = BuildOptions(desync_num=1, desync_den=3)
    dres, log = build_default(model, options)
    for k, seeds in enumerate((SEEDS, SeedTuple(1, 2, 3))):
        truth, _ = build_diversified(model, seeds, options)
        yield "pipeline %d" % k, replicate(dres.symfile, log, seeds, options), \
            truth.symfile, "KS"


@pytest.mark.parametrize("approx,truth,kinds", [
    pytest.param(*case, id=name) for name, *case in _diff_cases()])
def test_diff_by_function_is_the_entry_level_diff(approx, truth, kinds):
    # diff pairs FUNC and CFI segments by position and takes the shifts
    # of equal-length ones from their records; the oracle makes every
    # line an entry
    p = diff(approx, truth)
    assert {op.op for op in p.ops} == set(kinds)
    assert p.ops == _entry_oracle(replay(approx, p.growth), truth)
    assert apply(approx, p) == truth


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


def _one_line_file(funcs):
    """A symbol file of one-line functions, (address, size, name) each,
    every one with its own CFI region."""
    rules = {".cfa": ("sp", 0, "+"), ".ra": ("lr",)}
    return SymbolFile(
        "Linux arm 0 m", ((1, "a.c"),),
        tuple(FuncRecord(a, n, 0, name, (LineRecord(a, n, 7, 1),))
              for a, n, name in funcs),
        tuple(CfiInitRecord(a, n, rules, ()) for a, n, _ in funcs), ())


def test_growth_pairs_function_i_with_function_i():
    # function 0 of the truth is the approximation's function 1, and
    # function 1 its function 0, shrunk: paired by name, "a" would get a
    # growth record; paired by position, neither pair is one function
    approx = _one_line_file([(0x10, 8, "a"), (0x20, 4, "b")])
    truth = _one_line_file([(0x10, 8, "b"), (0x20, 4, "a")])
    p = diff(approx, truth)
    assert p.growth == ()
    assert apply(approx, p) == truth
    assert apply(approx, unpack(pack(small_dd(p))).patch) == truth


def test_overlapping_line_records_get_no_growth():
    # line record 1 starts inside line record 0, so a growth record at
    # its offset would replay on record 0 and empty it
    approx = _one_line_file([(0x10, 12, "a")])
    f = approx.funcs[0]
    approx = dataclasses.replace(approx, funcs=(dataclasses.replace(
        f, lines=(LineRecord(0x10, 4, 7, 1), LineRecord(0x12, 8, 8, 1))),))
    truth = dataclasses.replace(approx, funcs=(dataclasses.replace(
        f, lines=(LineRecord(0x10, 4, 7, 1), LineRecord(0x12, 4, 8, 1))),))
    p = diff(approx, truth)
    assert p.growth == ()
    assert apply(approx, p) == truth


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
    # index deltas and bytes zigzagged: 1, 0x10, 4 then 11, 0, -8
    assert deltadata._body_sections(small_dd(p))["growth"] == \
        varints(2, 0x10, 8, 22, 0, 15)
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
    """The benchmark program's model."""
    return generate_corpus(0xBE7C, 1, "medium")[0]


def prog000_delta(model, seeds, options=OPTS):
    """The truth, the approximation and the delta of one build of prog000
    under options, against its default build under the same options."""
    dres, log = build_default(model, options)
    truth, _ = build_diversified(model, seeds, options)
    approx = replicate(dres.symfile, log, seeds, options)
    return truth.symfile, approx, \
        delta_from_options(seeds, options, diff(approx, truth.symfile))


def test_prog000_delta_stays_small(prog000):
    truth, approx, dd = prog000_delta(prog000, SeedTuple(11, 22, 33))
    assert len(pack(dd)) <= 300
    assert emit_symbol_file(apply(approx, dd.patch)) == emit_symbol_file(truth)


# The writer's uncompressed body for prog000, pinned: a change to the
# diff or to the body grammar shows here.  DEFLATE output depends on
# the zlib build, so the packed bytes are not pinned.  Besides the
# default: desync 1/4 (85 growth records), no default padding (R and I
# ops) and sp/fp-opt with NOP probability 2/3.
@pytest.mark.parametrize("seeds,options,digest", [
    (SeedTuple(11, 22, 33), OPTS,
     "d49500d6362ad266d6d58e8c7041bd5b6f4b969f39144f89d848da5c35ae54a7"),
    (SeedTuple(44, 55, 66), OPTS,
     "fb78cc890636580ad7f896069e58df57605344b312ded09f26e85f942d9eff68"),
    (SeedTuple(11, 22, 33), BuildOptions(desync_num=1, desync_den=4),
     "9db8960adcd3c405e2d2c225363b7e9d768edbb78c23ae90a1e8a05f0b97ce43"),
    (SeedTuple(11, 22, 33), BuildOptions(default_padding=False),
     "0a9e14d30f721e34135f336937c40bd2bc567ad181e4686ef73e0305def8ed61"),
    (SeedTuple(11, 22, 33), BuildOptions(sp_fp_opt=True, nop_num=2,
                                         nop_den=3),
     "64682f027c982bd4efc7ea7172d7d625551db98bfd6180ccf43194f865b70a79"),
], ids=["default-11-22-33", "default-44-55-66", "desync-1-4",
        "no-default-padding", "sp-fp-opt-nop-2-3"])
def test_prog000_payload_is_pinned(prog000, seeds, options, digest):
    _, _, dd = prog000_delta(prog000, seeds, options)
    body = b"".join(deltadata._body_sections(dd).values())
    assert hashlib.sha256(body).hexdigest() == digest


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
    # the DEFLATE stream cut short, the length field saying so
    cut = blob[deltadata.HEADER_LEN:-1]
    with pytest.raises(DeltaFormatError, match="truncated stream"):
        unpack(blob[:6] + struct.pack("<I", len(cut)) + cut)


def test_bytes_after_the_deflate_stream_are_refused():
    # one delta, one blob: junk after the stream, with the length field
    # (and the tag) fixed, is refused, not ignored
    key = b"secret-key"
    blob = pack(small_dd(Patch((PatchOp("K", 3),))))
    payload = blob[deltadata.HEADER_LEN:]
    for junk in (b"\0", b"junk!!!", b"\xff" * 8):
        padded = blob[:6] + struct.pack("<I", len(payload) + len(junk)) \
            + payload + junk
        with pytest.raises(DeltaFormatError, match="after the end of the "
                           "DEFLATE stream"):
            unpack(padded)
        signed = padded[:5] + bytes([deltadata.FLAG_AUTH]) + padded[6:]
        signed += hmac.new(key, signed, hashlib.sha256).digest()
        with pytest.raises(DeltaFormatError, match="after the end of the "
                           "DEFLATE stream"):
            unpack(signed, key)


def test_version_2_container_is_refused():
    # the text payload of container version 2, as its writer emitted it
    text = (b"DDATA v2\nseeds 0000000000000051 0000000000000052 "
            b"0000000000000053\nnop 1/5\nflags default_padding=1 "
            b"sp_fp_opt=0 pad=1 shuffle=1\nPATCH v2 0 1\nK 3\n")
    blob = _plain_container(text)
    with pytest.raises(DeltaFormatError, match="unsupported version 2"):
        unpack(blob[:4] + bytes([2]) + blob[5:])
    # a version 2 payload in a version 3 container is no body: its text
    # reads as seeds, a nop fraction of 48/48 ("00") and flags "0" (0x30)
    with pytest.raises(DeltaFormatError, match="unknown payload flags 0x30"):
        unpack(blob)


@pytest.mark.parametrize("error,edits", [
    *((PatchCorruptError, e) for e in PATCH_FAULTS.values()),
    *((DeltaFormatError, e) for e in HEADER_FAULTS.values())],
    ids=[*PATCH_FAULTS, *HEADER_FAULTS])
def test_unpack_rejects_malformed_payload_records(error, edits):
    # the reader itself refuses each case, not only the apply after it
    with pytest.raises(error):
        unpack(edited_container(edits))


# Each case keeps the name of the text payload (container version 2) it
# replaced; the comment gives the binary fault, as section edits of a
# body with an empty patch.
MALFORMED_PATCHES = {
    # a keep count whose varint the body's end cuts
    "PATCH v2 0 1\nK -1": {"counts": varints(0, 1), "kinds": b"K",
                           "numbers": b"\xff"},
    # a shift without its delta
    "PATCH v2 0 1\nS 2": {"counts": varints(0, 1), "kinds": b"S",
                          "numbers": varints(2)},
    # a keep count varint of 21 bytes
    "PATCH v2 0 1\nK x": {"counts": varints(0, 1), "kinds": b"K",
                          "numbers": b"\x80" * 20 + b"\x01"},
    # a replace op wanting 3 lines from a text of 1
    "PATCH v2 0 1\nR 1 3\nonly one line": {
        "counts": varints(0, 1), "kinds": b"R", "numbers": varints(1, 3),
        "text": b"only one line\n"},
    # -1 ops, as a 64-bit two's complement
    "PATCH v2 0 -1": {"counts": varints(0, (1 << 64) - 1)},
    # an insert op with a second number, which leaves its line short
    "PATCH v2 0 1\nK 1 2": {"counts": varints(0, 1), "kinds": b"I",
                            "numbers": varints(1, 2)},
    # the body ends where the op count belongs
    "PATCH v2 0": {"counts": varints(0)},
    # the body ends where the growth record count belongs
    "PATCH v1 0": {"counts": b""},
    # -1 growth records, as a 64-bit two's complement
    "PATCH v2 -1 0": {"counts": varints((1 << 64) - 1, 0)},
    # a growth record with a fourth number, read as an op kind
    "PATCH v2 1 0\nG 0 0 4 5": {"counts": varints(1, 1),
                                "growth": varints(0, 0, 8, 10)},
    # a growth record at index -1
    "PATCH v2 1 0\nG -1 0 4": {"counts": varints(1, 0),
                               "growth": varints(1, 0, 8)},
    # an offset varint that the body's end cuts
    "PATCH v2 1 0\nG 0 -4 4": {"counts": varints(1, 0),
                               "growth": varints(0) + b"\xfc\xff"},
    # an offset varint of 21 bytes
    "PATCH v2 1 0\nG 0 A 4": {"counts": varints(1, 0),
                              "growth": varints(0) + b"\x8a" * 20 + b"\x01"
                              + varints(8)},
    # non-minimal varints: bytes, index, offset, bytes again
    "PATCH v2 1 0\nG 0 0 +4": {"counts": varints(1, 0),
                               "growth": varints(0, 0) + b"\x88\x00"},
    "PATCH v2 1 0\nG 01 0 4": {"counts": varints(1, 0),
                               "growth": b"\x80\x00" + varints(0, 8)},
    "PATCH v2 1 0\nG 0 04 4": {"counts": varints(1, 0),
                               "growth": varints(0) + b"\x84\x00"
                               + varints(8)},
    "PATCH v2 1 0\nG 0 0 -04": {"counts": varints(1, 0),
                                "growth": varints(0, 0) + b"\x87\x80\x00"},
    # 1 growth record announced, an op written in its place
    "PATCH v2 1 0\nK 1": {"counts": varints(1, 0), "kinds": b"K",
                          "numbers": varints(1)},
    # the op before the growth record: "K" reads as index delta -38
    "PATCH v2 1 1\nK 1\nG 0 0 4": {"counts": varints(1, 1),
                                   "growth": b"K" + varints(1, 0, 0, 8)},
    # an index varint of 5000 bytes
    "PATCH v2 1 0\nG %s 0 4" % ("1" * 5000): {
        "counts": varints(1, 0),
        "growth": b"\x81" * 4999 + b"\x01" + varints(0, 8)},
}


@pytest.mark.parametrize("edits", MALFORMED_PATCHES.values(),
                         ids=MALFORMED_PATCHES)
def test_malformed_patch_ops_raise_patch_corrupt(edits):
    with pytest.raises(PatchCorruptError):
        unpack(edited_container(edits))


# As above, faults in the header; each case is named by the text edit it
# replaced.
MALFORMED_HEADERS = {
    # seeds cut to 10 bytes
    ("seeds 0", "seeds x"): {"seeds": struct.pack("<Q", 1) + b"\0\0"},
    # the body ends after the nop numerator
    ("nop 1/5", "nop 1"): {"nop": varints(1), "flags": b"", "counts": b""},
    # a numerator varint of 21 bytes
    ("nop 1/5", "nop a/5"): {"nop": b"\x81" * 20 + b"\x01" + varints(5)},
    # the body ends after the nop fraction
    ("pad=1", "pad"): {"flags": b"", "counts": b""},
    # flag bits 4-7, none defined
    ("pad=1", "pad=x"): {"flags": b"\xfd"},
    ("shuffle=1", "shuffle=1 pad=1"): {"flags": b"\x2d"},
}


@pytest.mark.parametrize("old,new", MALFORMED_HEADERS)
def test_malformed_header_records_raise_delta_format(old, new):
    with pytest.raises(DeltaFormatError):
        unpack(edited_container(MALFORMED_HEADERS[old, new]))


@pytest.mark.parametrize("seeds", [SeedTuple(-1, 2, 3), SeedTuple(1, 1 << 64, 3)])
def test_pack_refuses_seed_outside_64_bits(seeds):
    with pytest.raises(DeltaFormatError, match="seed outside"):
        pack(delta_from_options(seeds, OPTS, Patch()))


@pytest.mark.parametrize("edits,message", [
    ({"counts": varints(2, 0), "growth": varints(0, 0, 8)},
     "growth record count 2 exceeds the 4 bytes left"),
    ({"counts": varints(0, 3), "kinds": b"KK"}, "op count 3 exceeds"),
    ({"counts": varints(0, 1), "kinds": b"I", "numbers": varints(3),
      "text": b"a\n"}, "insert op 0 line count 3 exceeds the 2 bytes left"),
], ids=["growth records", "ops", "insert lines"])
def test_counts_past_the_bytes_left_are_refused(edits, message):
    # refused on reading the count, before any item is read
    with pytest.raises(PatchCorruptError, match="^" + message):
        unpack(edited_container(edits))


@pytest.mark.parametrize("patch", [
    Patch((PatchOp("K", -1),)), Patch(growth=(Growth(0, -4, 4),))],
    ids=["negative keep count", "negative growth offset"])
def test_pack_refuses_a_negative_unsigned_field(patch):
    with pytest.raises(DeltaFormatError, match="cannot pack negative"):
        pack(small_dd(patch))


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
