"""Hostile inputs shared by the tests: delta containers, and the line
mutations the property tests apply to emitted texts."""

import struct
import zlib

from hypothesis import strategies as st

from divsym import deltadata
from divsym.deltadata import DeltaData, Patch
from divsym.diversify import SeedTuple


def _plain_container(payload_text):
    comp = zlib.compressobj(9, zlib.DEFLATED, -15)
    payload = comp.compress(payload_text) + comp.flush()
    return deltadata.MAGIC + bytes([deltadata.VERSION, 0]) \
        + struct.pack("<I", len(payload)) + payload


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
    "op list shorter than its count": {4: b"PATCH v1 2\nK 1"},
    "empty op line": {4: b"PATCH v1 1\n"},
    "keep without count": {4: b"PATCH v1 1\nK"},
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
