"""Hostile inputs shared by the tests: delta containers, opportunity
logs that do not fit their default file, and the line and byte
mutations the property tests apply to emitted texts and delta bodies."""

import struct
import zlib
from dataclasses import replace

from hypothesis import strategies as st

from divsym import deltadata
from divsym.deltadata import DeltaData, Growth, Patch, PatchOp
from divsym.diversify import SeedTuple
from divsym.symfile import symbol_file_entries


def _plain_container(body):
    comp = zlib.compressobj(9, zlib.DEFLATED, -15)
    payload = comp.compress(body) + comp.flush()
    return deltadata.MAGIC + bytes([deltadata.VERSION, 0]) \
        + struct.pack("<I", len(payload)) + payload


def varints(*numbers):
    """The numbers, each >= 0, as the body's varints."""
    out = bytearray()
    for n in numbers:
        deltadata._varint(n, out)
    return bytes(out)


def hostile_logs(log):
    """Logs that do not fit the default file of `log`, each with the
    message replication refuses it with: one function short, a code
    block of no instructions, a block whose body is longer than the
    block, and a function without an identifier."""
    lf = log.functions[1]
    code = next(k for k, b in enumerate(lf.blocks) if b.kind == "code")
    blocks = list(lf.blocks)
    empty = blocks[:code] + [replace(blocks[code], size=0, model_instrs=0)] \
        + blocks[code:]
    blocks[code] = replace(blocks[code], model_instrs=blocks[code].size + 1)

    def with_function(**changes):
        return replace(log, functions=(
            log.functions[0], replace(lf, **changes), *log.functions[2:]))
    return [(replace(log, functions=log.functions[:-1]), "log has"),
            (with_function(blocks=tuple(empty)), "is empty"),
            (with_function(blocks=tuple(blocks)), "record/extras"),
            (with_function(identifier=""), "no identifier")]


def inflation_bomb():
    """A well-formed plain container whose payload inflates one byte past
    deltadata.MAX_PAYLOAD_BYTES."""
    return _plain_container(b"\0" * (deltadata.MAX_PAYLOAD_BYTES + 1))


def edited_container(edits, seeds=SeedTuple(1, 2, 3), patch=Patch()):
    """A plain container of a packed body (by default with an empty
    patch) with each section named in edits replaced by its bytes; the
    names are deltadata._body_sections's."""
    sections = deltadata._body_sections(DeltaData(seeds=seeds, patch=patch))
    assert edits.keys() <= sections.keys()
    sections.update(edits)
    return _plain_container(b"".join(sections.values()))


def bad_nop_container(num, den, seeds=SeedTuple(1, 2, 3)):
    """A plain container whose body carries the nop fraction num/den,
    which pack() refuses to write.  A negative number goes in as its
    64-bit two's complement, the way a protobuf int64 field writes it."""
    return edited_container({"nop": varints(num % (1 << 64), den % (1 << 64))},
                            seeds)


_SEEDS = struct.pack("<3Q", 1, 2, 3)     # the default body's seeds


def _cut_after(n):
    """Edits that end the default body after its first n bytes."""
    return {"seeds": _SEEDS[:n], "nop": b"", "flags": b"", "counts": b""}


# Malformed bodies, as section edits of the default body (whose patch is
# empty).  Each case keeps the name of the case it replaced in the text
# payload of container version 2; the comment gives the binary fault.
# Faults in the patch section; the reader raises PatchCorruptError.
PATCH_FAULTS = {
    # 2 ops announced, 1 byte left
    "op list shorter than its count": {"counts": varints(0, 2),
                                       "kinds": b"K"},
    # a NUL op kind
    "empty op line": {"counts": varints(0, 1), "kinds": b"\0"},
    # the body ends where the keep count belongs
    "keep without count": {"counts": varints(0, 1), "kinds": b"K"},
    # the body ends after the index and a two-byte offset
    "growth record without bytes": {"counts": varints(1, 0),
                                    "growth": varints(0, 300)},
    # 2 records announced, 1 written
    "growth records past the end": {"counts": varints(2, 0),
                                    "growth": varints(0, 0, 8)},
    # an index varint of 21 bytes
    "growth index of 5000 digits": {
        "counts": varints(1, 0),
        "growth": b"\x81" * 20 + b"\x01" + varints(0, 8)},
    # each count and shift is a minimal varint of at most 20 bytes
    # a keep count with a zero continuation group inside
    "op count with an underscore": {"counts": varints(0, 1), "kinds": b"K",
                                    "numbers": b"\x83\x80\x00"},
    # a keep count varint of 21 bytes
    "op count in Arabic-Indic digits": {"counts": varints(0, 1),
                                        "kinds": b"K",
                                        "numbers": b"\xff" * 21},
    # a keep count whose varint the body's end cuts
    "op count with a plus": {"counts": varints(0, 1), "kinds": b"K",
                             "numbers": b"\x80"},
    # a shift delta varint with a trailing zero byte
    "shift with a leading zero": {"counts": varints(0, 1), "kinds": b"S",
                                  "numbers": varints(1) + b"\x88\x00"},
    # an op count varint with a trailing zero byte
    "patch op count with a leading zero": {
        "counts": varints(0) + b"\x81\x00", "kinds": b"K",
        "numbers": varints(1)},
    # cases of the binary body alone
    "insert line not UTF-8": {"counts": varints(0, 1), "kinds": b"I",
                              "numbers": varints(1), "text": b"\xff\n"},
}
# Faults in the header (seeds, nop, flags), and bytes past the last line
# of the patch; the reader raises DeltaFormatError.
HEADER_FAULTS = {
    # no seeds: the 5 bytes after them are all that is left
    "empty seeds line": {"seeds": b""},
    # the body ends after the seeds
    "empty nop line": _cut_after(24),
    # the body ends after the nop fraction
    "flags without default_padding": {"flags": b"", "counts": b""},
    # each seed is 8 bytes; the body ends inside the seeds
    "negative seed": _cut_after(8),
    # 12 bytes more of seeds make a nop numerator far past the denominator
    "160-bit seed": {"seeds": _SEEDS + b"\xff" * 12},
    "short seed": _cut_after(17),
    "uppercase seed": _cut_after(23),
    # flag bit 7
    "flag 7": {"flags": b"\x8d"},
    # each nop number is a minimal varint
    "nop with underscores": {"nop": b"\x81\x00" + varints(5)},
    "nop with a plus and a leading zero": {"nop": varints(1) + b"\x85\x00"},
    # a byte after the last line of the patch
    "trailing data": {"text": b"\0"},
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
            "patched symbol file invalid: CFI delta .* outside region"),
        "growth past 2^32": (
            (Growth(0, first, 10 ** 30),),
            "patched symbol file invalid: FUNC .* 32-bit address space"),
    }


def op_faults(sf):
    """Patches over the symbol file sf that apply must refuse with
    PatchCorruptError, by case, each with a pattern its message matches
    from the start: R/I lines that do not read as symbol-file records in
    their place, a shift past 2^32 and a shift of the MODULE line, which
    has no address.  sf has a MODULE line."""
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
        "shift over the MODULE line": (
            Patch((PatchOp("S", n, delta=4),)), "unshiftable MODULE line"),
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


@st.composite
def byte_edits(draw, body):
    """body with one byte flipped, dropped or inserted, or cut short."""
    i = draw(st.integers(0, len(body) - 1))
    op = draw(st.sampled_from(("flip", "drop", "insert", "cut")))
    if op == "flip":
        return body[:i] + bytes([body[i] ^ draw(st.integers(1, 255))]) \
            + body[i + 1:]
    if op == "drop":
        return body[:i] + body[i + 1:]
    if op == "insert":
        return body[:i] + bytes([draw(st.integers(0, 255))]) + body[i:]
    return body[:i]


def mutate_container(data, blob):
    """A plain container of blob's inflated body with one byte edit."""
    body = zlib.decompress(blob[deltadata.HEADER_LEN:], -15)
    return _plain_container(data.draw(byte_edits(body)))
