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


def bad_nop_container(num, den, seeds=SeedTuple(1, 2, 3)):
    """A plain container whose payload carries the nop fraction num/den,
    which pack() refuses to write."""
    blob = deltadata.pack(DeltaData(seeds=seeds, nop_num=1, nop_den=5))
    text = zlib.decompress(blob[deltadata.HEADER_LEN:], -15)
    return _plain_container(
        text.replace(b"\nnop 1/5\n", b"\nnop %d/%d\n" % (num, den), 1))
