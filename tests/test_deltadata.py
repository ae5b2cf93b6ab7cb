import random

import pytest

from divsym import deltadata
from divsym.deltadata import (DeltaData, Patch, PatchOp, apply,
                              delta_from_options, diff, embed, extract, pack,
                              unpack)
from divsym.diversify import SeedTuple, build_default, build_diversified
from divsym.errors import (AuthenticationError, DeltaFormatError,
                           PatchCorruptError)
from divsym.image import write_image, find_section
from divsym.progmodel import BuildOptions, generate_corpus
from divsym.replicate import replicate
from divsym.symfile import (CfiInitRecord, FuncRecord, LineRecord, SymbolFile,
                            emit_symbol_file)
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


@pytest.mark.parametrize("patch_text", [
    "PATCH v1 1\nK -1", "PATCH v1 1\nS 2", "PATCH v1 1\nK x",
    "PATCH v1 1\nR 1 3\nonly one line", "PATCH v1 -1", "PATCH v1 1\nK 1 2",
])
def test_malformed_patch_ops_raise_patch_corrupt(patch_text):
    text = deltadata._emit_payload(small_dd())
    assert "PATCH v1 0" in text
    with pytest.raises(PatchCorruptError):
        deltadata._parse_payload(text.replace("PATCH v1 0", patch_text))


@pytest.mark.parametrize("old,new", [
    ("seeds 0", "seeds x"), ("nop 1/5", "nop 1"), ("nop 1/5", "nop a/5"),
    ("pad=1", "pad"), ("pad=1", "pad=x"), ("shuffle=1", "shuffle=1 pad=1"),
])
def test_malformed_header_records_raise_delta_format(old, new):
    text = deltadata._emit_payload(small_dd())
    assert old in text
    with pytest.raises(DeltaFormatError):
        deltadata._parse_payload(text.replace(old, new, 1))


def test_compression_never_explodes():
    for model in generate_corpus(53, 2):
        dres, log = build_default(model, OPTS)
        truth, _ = build_diversified(model, SEEDS, OPTS)
        approx = replicate(dres.symfile, log, SEEDS, OPTS)
        dd = small_dd(diff(approx, truth.symfile))
        raw = len(emit_symbol_file(truth.symfile).encode())
        assert len(pack(dd)) <= raw + 64


def test_embed_extract_round_trip():
    model = generate_corpus(59, 1)[0]
    res, dec = build_diversified(model, SEEDS, OPTS)
    img = write_image(res, dec, model.module_name)
    dd_bytes = pack(small_dd())
    img2 = embed(img, dd_bytes)
    assert extract(img2) == dd_bytes
    # size-additive: fixed 9-byte section header for the 4-char name
    assert len(img2) == len(img) + len(dd_bytes) + 9
    # code-region bytes untouched
    assert find_section(img2, "text") == find_section(img, "text")
    with pytest.raises(DeltaFormatError):
        extract(img)
