"""Hostile inputs shared by the tests: delta containers, opportunity
logs that do not fit their default file, and the line mutations the
property tests apply to emitted texts."""

import struct
import zlib
from dataclasses import replace

from hypothesis import strategies as st

from divsym import deltadata
from divsym.deltadata import DeltaData, Growth, Patch, PatchOp
from divsym.diversify import SeedTuple
from divsym.symfile import symbol_file_entries


def _plain_container(payload_text):
    comp = zlib.compressobj(9, zlib.DEFLATED, -15)
    payload = comp.compress(payload_text) + comp.flush()
    return deltadata.MAGIC + bytes([deltadata.VERSION, 0]) \
        + struct.pack("<I", len(payload)) + payload


def hostile_logs(log):
    """Logs that do not fit the default file of `log`, each with the
    message replication refuses it with: one function short, a code
    block of no instructions, and a block whose body is longer than the
    block."""
    lf = log.functions[1]
    code = next(k for k, b in enumerate(lf.blocks) if b.kind == "code")
    blocks = list(lf.blocks)
    empty = blocks[:code] + [replace(blocks[code], size=0, model_instrs=0)] \
        + blocks[code:]
    blocks[code] = replace(blocks[code], model_instrs=blocks[code].size + 1)

    def with_blocks(new):
        return replace(log, functions=(
            log.functions[0], replace(lf, blocks=tuple(new)),
            *log.functions[2:]))
    return [(replace(log, functions=log.functions[:-1]), "log has"),
            (with_blocks(empty), "is empty"),
            (with_blocks(blocks), "record/extras")]


def inflation_bomb():
    """A well-formed plain container whose payload inflates one byte past
    deltadata.MAX_PAYLOAD_BYTES."""
    return _plain_container(b"\0" * (deltadata.MAX_PAYLOAD_BYTES + 1))


def edited_container(edits, seeds=SeedTuple(1, 2, 3), patch=Patch()):
    """A plain container of a packed payload (by default with an empty
    patch) with line i replaced by edits[i]; a replacement may span
    several lines."""
    blob = deltadata.pack(DeltaData(seeds=seeds, patch=patch))
    lines = zlib.decompress(blob[deltadata.HEADER_LEN:], -15).split(b"\n")
    for i, new in edits.items():
        lines[i] = new
    return _plain_container(b"\n".join(lines))


def bad_nop_container(num, den, seeds=SeedTuple(1, 2, 3)):
    """A plain container whose payload carries the nop fraction num/den,
    which pack() refuses to write."""
    return edited_container({2: b"nop %d/%d" % (num, den)}, seeds)


# Payload lines: 0 DDATA, 1 seeds, 2 nop, 3 flags, 4 the patch header.
# Malformed patch ops; the reader raises PatchCorruptError.
PATCH_FAULTS = {
    "op list shorter than its count": {4: b"PATCH v2 0 2\nK 1"},
    "empty op line": {4: b"PATCH v2 0 1\n"},
    "keep without count": {4: b"PATCH v2 0 1\nK"},
    "growth record without bytes": {4: b"PATCH v2 1 0\nG 0 0"},
    "growth records past the end": {4: b"PATCH v2 2 0\nG 0 0 4"},
    # int() refuses a decimal string of more than 4300 digits
    "growth index of 5000 digits": {4: b"PATCH v2 1 0\nG " + b"1" * 5000
                                    + b" 0 4"},
}
# Malformed header records; the reader raises DeltaFormatError.
HEADER_FAULTS = {
    "empty seeds line": {1: b""},
    "empty nop line": {2: b""},
    "flags without default_padding": {3: b"flags sp_fp_opt=0 pad=1 shuffle=1"},
    # each seed is exactly 16 lowercase hex digits, each flag 0 or 1
    "negative seed": {1: b"seeds -000000000000001 0000000000000002 "
                         b"0000000000000003"},
    "160-bit seed": {1: b"seeds 0000000000000001 0000000000000002 " + b"f" * 40},
    "short seed": {1: b"seeds 1 0000000000000002 0000000000000003"},
    "uppercase seed": {1: b"seeds 000000000000000A 0000000000000002 "
                          b"0000000000000003"},
    "flag 7": {3: b"flags default_padding=7 sp_fp_opt=0 pad=1 shuffle=1"},
}


def growth_faults(sf):
    """Growth records that replay on the approximation sf must refuse with
    PatchCorruptError, by case, each with a pattern its message matches
    from the start.  sf is a generated program's symbol file:
    its functions have line records and their own CFI regions, and some
    function's last CFI delta lies inside its last line record, which
    ends the function."""
    f, g = sf.funcs[:2]
    first = f.lines[0].address - f.address
    # shrinking that line record to end at the delta leaves the delta
    # outside the shrunk CFI region, which validate() refuses
    i, h = next((i, h) for i, h in enumerate(sf.funcs)
                if sf.cfi_regions[i].deltas
                and h.lines[-1].address < sf.cfi_regions[i].deltas[-1][0]
                and h.lines[-1].address + h.lines[-1].size
                == h.address + h.size)
    last, at = h.lines[-1], sf.cfi_regions[i].deltas[-1][0]
    return {
        "growth index out of range": (
            (Growth(len(sf.funcs), first, 4),), "growth record .*: no function"),
        "growth offset outside the line records": (
            (Growth(0, f.size, 4),), "growth record .*: offset outside"),
        "growth empties a line record": (
            (Growth(0, first, -f.lines[0].size),),
            "growth leaves the line record .* 0 bytes"),
        "growth records out of order": (
            (Growth(1, g.lines[0].address - g.address, 4),
             Growth(0, first, 4)), "growth record .* out of .* order"),
        "replayed file fails validate": (
            (Growth(i, last.address - h.address,
                    at - last.address - last.size),),
            "replayed growth records: CFI delta .* outside region"),
        "growth past 2^32": (
            (Growth(0, first, 10 ** 30),),
            "replayed growth records: FUNC .* 32-bit address space"),
    }


def op_faults(sf):
    """Patches over the symbol file sf that apply must refuse with
    PatchCorruptError, by case, each with a pattern its message matches
    from the start: R/I lines that do not read as symbol-file records in
    their place, and a shift past 2^32.  sf has a MODULE line."""
    n = len(list(symbol_file_entries(sf)))
    head = 1 + len(sf.files)
    keep = PatchOp("K", n)
    return {
        "blank line": (
            Patch((PatchOp("I", lines=("",)), keep)),
            "patched symbol file invalid: blank line"),
        "line record before any FUNC": (
            Patch((PatchOp("R", 1, lines=("10 4 1 1",)), PatchOp("K", n - 1))),
            "patched symbol file invalid: line record outside any FUNC"),
        "CFI delta before any INIT": (
            Patch((PatchOp("I", lines=("STACK CFI 10 .cfa: sp 4 +",)), keep)),
            "patched symbol file invalid: STACK CFI delta outside"),
        "non-hex address": (
            Patch((PatchOp("I", lines=("FUNC 1x 4 0 f",)), keep)),
            "patched symbol file invalid: FUNC: .* malformed hex"),
        "register named twice in one CFI record": (
            Patch((PatchOp("I", lines=(
                "STACK CFI INIT 10 4 .cfa: sp 0 + .ra: lr r4: sp r4: lr",)),
                keep)),
            "patched symbol file invalid: STACK: .* register r4 named twice"),
        "shift past 2^32": (
            Patch((PatchOp("K", head), PatchOp("S", n - head, delta=1 << 40))),
            "patched symbol file invalid: FUNC .* 32-bit address space"),
    }


# Replacement tokens: empty, non-numbers, negatives, bare separators,
# keywords and register rules out of place.
FILLERS = ("", "-", "0", "-7", "zz", "=", "k=v", ",", "1,,2", "epilogue",
           "code", "data", "FUNCTION", "BLOCK", "SPAN", "reg", "FUNC",
           "STACK", "INIT", ".cfa:")


@st.composite
def line_edits(draw, lines):
    """(i, new): line i is dropped (new is None), duplicated, truncated, or
    has one token (or the value of one key=value token) replaced."""
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    op = draw(st.sampled_from(("drop", "duplicate", "truncate", "token")))
    if op == "drop":
        return i, None
    if op == "duplicate":
        return i, line + "\n" + line
    if op == "truncate":
        return i, line[:draw(st.integers(0, max(len(line) - 1, 0)))]
    toks = line.split(" ")
    j = draw(st.integers(0, len(toks) - 1))
    new = draw(st.sampled_from(FILLERS))
    key, eq, _ = toks[j].partition("=")
    if eq and draw(st.booleans()):
        new = key + "=" + new
    toks[j] = new
    return i, " ".join(toks)


def mutate(data, text):
    lines = text.split("\n")
    i, new = data.draw(line_edits(lines))
    lines[i:i + 1] = [] if new is None else [new]
    return "\n".join(lines)
