"""Hostile delta containers shared by the collector and CLI tests."""

import struct
import zlib

from divsym import deltadata
from divsym.deltadata import DeltaData
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


def edited_container(edits, seeds=SeedTuple(1, 2, 3)):
    """A plain container of a packed empty-patch payload with line i
    replaced by edits[i]; a replacement may span several lines."""
    blob = deltadata.pack(DeltaData(seeds=seeds))
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
}
