"""Image container: the stand-in for the stripped (diversified) binary.

A tagged-section file:

    magic "DIMG" | version u8 | sections...
    section: name_len u8 | name | payload_len u32 LE | payload

Sections written by the build drivers: "meta" (module identity),
"crash" (per-function frame and block placement data used by the crash
simulator), "text" (image bytes).

Code bytes are a fixed filler word per instruction, data blocks are
zeros and pools hold their constants little-endian, so the container is
deterministic and code regions are byte-comparable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from divsym.diversify import mask_gaps
from divsym.errors import DeltaFormatError
from divsym.progmodel import INSTR_BYTES
from divsym.records import fields, read_records

MAGIC = b"DIMG"
VERSION = 1
FILLER_WORD = 0xE1A00000  # mov r0, r0


@dataclass(frozen=True)
class CrashBlock:
    index: int
    addr: int
    pre_extras: int
    gaps: tuple            # 1-based NOP gap indices applied to this block


@dataclass(frozen=True)
class CrashFn:
    identifier: str
    name: str
    base: int
    size: int
    padding: int
    blocks: tuple


@dataclass(frozen=True)
class ImageInfo:
    module_name: str
    module_id: str
    functions: tuple       # CrashFn in placement order
    text: bytes


def pack_sections(sections):
    out = [MAGIC, bytes([VERSION])]
    for name, payload in sections:
        nb = name.encode("ascii")
        out.append(bytes([len(nb)]) + nb + struct.pack("<I", len(payload))
                   + payload)
    return b"".join(out)


def iter_sections(blob):
    if blob[:4] != MAGIC:
        raise DeltaFormatError("bad image magic")
    if blob[4:5] != bytes([VERSION]):
        raise DeltaFormatError("unsupported image version %r" % blob[4:5])
    i = 5
    while i < len(blob):
        nlen = blob[i]
        i += 1
        # a non-ASCII name matches no section this module looks up
        name = blob[i:i + nlen].decode("ascii", "replace")
        i += nlen
        if i + 4 > len(blob):
            raise DeltaFormatError("truncated image section header")
        plen = struct.unpack("<I", blob[i:i + 4])[0]
        i += 4
        if i + plen > len(blob):
            raise DeltaFormatError("truncated image section %s" % name)
        yield name, blob[i:i + plen]
        i += plen


def find_section(blob, name):
    found = None
    for n, payload in iter_sections(blob):
        if n == name:
            found = payload
    if found is None:
        raise DeltaFormatError("image has no %s section" % name)
    return found


def crash_info(result, decisions, module_name):
    """ImageInfo straight from a layout result (library-side shortcut);
    decisions is None for the default build."""
    nop_map = {}
    if decisions is not None:
        for ident, bi, mask in decisions.nops:
            nop_map[(ident, bi)] = mask_gaps(mask)
    fns = []
    for fl in result.image:
        blocks = []
        for r in fl.regions:
            if r.kind != "code":
                continue
            blocks.append(CrashBlock(r.block_index, r.address, r.pre_extras,
                                     nop_map.get((fl.func.identifier,
                                                  r.block_index), ())))
        fns.append(CrashFn(fl.func.identifier, fl.func.name, fl.base, fl.size,
                           fl.padding, tuple(blocks)))
    return ImageInfo(module_name, result.symfile.module_id, tuple(fns),
                     _text_bytes(result))


def _text_bytes(result):
    if not result.image:
        return b""
    end = max(fl.base + fl.size for fl in result.image)
    buf = bytearray(end)
    filler = struct.pack("<I", FILLER_WORD)
    for fl in result.image:
        for r in fl.regions:
            if r.kind == "code":
                buf[r.address:r.address + r.size] = filler * (r.size // INSTR_BYTES)
            elif r.kind == "pool":
                for i, c in enumerate(r.consts):
                    off = r.address + 4 * i
                    buf[off:off + 4] = struct.pack("<I", c)
    return bytes(buf)


def write_image(result, decisions, module_name):
    return pack_image(crash_info(result, decisions, module_name))


def pack_image(info):
    """The container read_image reads back as `info`."""
    meta = "IMAGE v1 %s\nmoduleid %s\n" % (info.module_name, info.module_id)
    crash = _emit_crash_meta(info)
    return pack_sections([("meta", meta.encode()),
                          ("crash", crash.encode()),
                          ("text", info.text)])


def _section_text(blob, name):
    try:
        return find_section(blob, name).decode()
    except UnicodeDecodeError as e:
        raise DeltaFormatError("%s section: %s" % (name, e)) from None


_META_RECORDS = {"moduleid": lambda meta, toks, line: meta.update(
    moduleid=line.split(" ", 1)[1])}


def read_image(blob):
    meta = {"moduleid": ""}
    module_name = read_records(_section_text(blob, "meta"), "IMAGE v1",
                               _META_RECORDS, meta, DeltaFormatError)
    fns = _parse_crash_meta(_section_text(blob, "crash"))
    return ImageInfo(module_name, meta["moduleid"], fns, find_section(blob, "text"))


def _emit_crash_meta(info):
    out = []
    for fn in info.functions:
        out.append("CRASHFN base=%x size=%x pad=%d name=%s id=%s"
                   % (fn.base, fn.size, fn.padding, fn.name, fn.identifier))
        for b in fn.blocks:
            gaps = ",".join(str(g) for g in b.gaps) or "-"
            out.append("CRASHBLOCK %d addr=%x pre=%d nops=%s"
                       % (b.index, b.addr, b.pre_extras, gaps))
    return "\n".join(out) + "\n" if out else ""


def _crash_fn(fns, toks, line):
    base, size, pad, name, ident = fields(line, "base", "size", "pad",
                                          "name", "id")
    fns.append((ident, name, int(base, 16), int(size, 16), int(pad), []))


def _crash_block(fns, toks, line):
    addr, pre, nops = fields(line, "addr", "pre", "nops")
    gaps = () if nops == "-" else tuple(int(g) for g in nops.split(","))
    fns[-1][-1].append(CrashBlock(int(toks[1]), int(addr, 16), int(pre), gaps))


# Each function under construction is a tuple of CrashFn fields with a
# block list last.
_CRASH_RECORDS = {"CRASHFN": _crash_fn, "CRASHBLOCK": _crash_block}


def _parse_crash_meta(text):
    fns = []
    read_records(text, None, _CRASH_RECORDS, fns, DeltaFormatError)
    return tuple(CrashFn(*f[:-1], tuple(f[-1])) for f in fns)
