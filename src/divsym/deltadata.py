"""Delta data: the seeds, parameters and patch that ride with a crash.

The patch is a line-oriented edit script over canonical symbol-file
text with an explicit SHIFT op: address shifts are by far the dominant
divergence mode (a moved pool or one desynced function shifts a run of
otherwise identical records), and SHIFT encodes a whole run in O(1)
bytes where REPLACE would copy every line.

Diffing aligns record segments per function (FUNC block by name, CFI
block by position), exploiting the per-function containment of
desynchronization; inside a segment, runs of lines equal modulo their
leading address field become SHIFT ops.

Container layout (packed):

    "DBPD" | version u8 | flags u8 | payload length u32 LE |
    DEFLATE payload | [32-byte HMAC-SHA-256 tag]

flags bit 0 marks an authenticated container; the tag covers everything
before it.  The payload is deterministic ASCII, compressed raw DEFLATE.
"""

from __future__ import annotations

import difflib
import hashlib
import hmac
import struct
import zlib
from dataclasses import dataclass, field

from divsym.diversify import SeedTuple
from divsym.errors import (AuthenticationError, DeltaFormatError,
                           PatchCorruptError)
from divsym.image import append_section, find_section
from divsym.progmodel import BuildOptions
from divsym.symfile import emit_symbol_file, parse_symbol_file
from divsym.errors import SymbolParseError

MAGIC = b"DBPD"
VERSION = 1
FLAG_AUTH = 0x01
TAG_LEN = 32
HEADER_LEN = 10
# Largest payload unpack inflates.  The container comes from the client,
# and DEFLATE expands up to about 1000x.  A patch that replaced every line
# of a 308-function program's symbol file (233 KB) would stay far below.
MAX_PAYLOAD_BYTES = 4 << 20


@dataclass(frozen=True)
class PatchOp:
    op: str                  # K(eep) S(hift) D(elete) R(eplace) I(nsert)
    n: int = 0               # lines consumed from the approximation
    delta: int = 0           # S: added to each leading address
    lines: tuple = ()        # R/I: emitted lines


@dataclass(frozen=True)
class Patch:
    ops: tuple = ()

    @property
    def payload_bytes(self):
        return sum(len(ln.encode()) + 1
                   for op in self.ops if op.op in "RI" for ln in op.lines)


@dataclass(frozen=True)
class DeltaData:
    seeds: SeedTuple
    nop_num: int = 1
    nop_den: int = 5
    default_padding: bool = True
    sp_fp_opt: bool = False
    pad_scheme: bool = True
    shuffle_scheme: bool = True
    patch: Patch = field(default_factory=Patch)
    version: int = VERSION

    def options(self):
        """Replication options implied by the packed parameters."""
        return BuildOptions(default_padding=self.default_padding,
                            sp_fp_opt=self.sp_fp_opt,
                            nop_num=self.nop_num, nop_den=self.nop_den,
                            pad_scheme=self.pad_scheme,
                            shuffle_scheme=self.shuffle_scheme)


def delta_from_options(seeds, options, patch):
    return DeltaData(seeds=seeds, nop_num=options.nop_num,
                     nop_den=options.nop_den,
                     default_padding=options.default_padding,
                     sp_fp_opt=options.sp_fp_opt,
                     pad_scheme=options.pad_scheme,
                     shuffle_scheme=options.shuffle_scheme, patch=patch)


# ---------------------------------------------------------------------------
# leading-address handling

def _addr_token_index(line):
    if line.startswith("FUNC ") or line.startswith("PUBLIC "):
        return 1
    if line.startswith("STACK CFI INIT "):
        return 3
    if line.startswith("STACK CFI "):
        return 2
    if line.startswith("MODULE ") or line.startswith("FILE "):
        return -1
    return 0  # line record


def split_leading_address(line):
    """(address, rest-with-placeholder) or (None, line) if unshiftable."""
    idx = _addr_token_index(line)
    if idx < 0:
        return None, line
    toks = line.split(" ")
    try:
        addr = int(toks[idx], 16)
    except ValueError:
        return None, line
    toks[idx] = "@"
    return addr, " ".join(toks)


def shift_leading_address(line, delta):
    idx = _addr_token_index(line)
    if idx < 0:
        return None
    toks = line.split(" ")
    try:
        addr = int(toks[idx], 16) + delta
    except ValueError:
        return None
    if addr < 0:
        return None
    toks[idx] = "%x" % addr
    return " ".join(toks)


# ---------------------------------------------------------------------------
# diff

def _segments(lines):
    """((key, start, end), ...) partition of canonical symbol-file lines."""
    segs = []
    n = len(lines)
    i = 0
    while i < n and (lines[i].startswith("MODULE ") or lines[i].startswith("FILE ")):
        i += 1
    segs.append((("H",), 0, i))
    seen = {}
    while i < n and lines[i].startswith("FUNC "):
        name = lines[i].split(" ", 4)[4]
        k = seen.get(name, 0)
        seen[name] = k + 1
        j = i + 1
        while j < n and not (lines[j].startswith("FUNC ")
                             or lines[j].startswith("PUBLIC ")
                             or lines[j].startswith("STACK ")):
            j += 1
        segs.append((("F", name, k), i, j))
        i = j
    j = i
    while j < n and lines[j].startswith("PUBLIC "):
        j += 1
    if j > i:
        segs.append((("P",), i, j))
        i = j
    ci = 0
    while i < n and lines[i].startswith("STACK CFI INIT "):
        j = i + 1
        while j < n and lines[j].startswith("STACK CFI ") \
                and not lines[j].startswith("STACK CFI INIT "):
            j += 1
        segs.append((("C", ci), i, j))
        ci += 1
        i = j
    if i < n:
        segs.append((("T",), i, n))
    return segs


def _shift_runs(a_lines, b_lines):
    """Ops for equal-length line runs: per-line shift classification."""
    ops = []
    deltas = []
    for x, y in zip(a_lines, b_lines):
        if x == y:
            deltas.append(0)
            continue
        ax, rx = split_leading_address(x)
        ay, ry = split_leading_address(y)
        if ax is not None and ay is not None and rx == ry:
            deltas.append(ay - ax)
        else:
            deltas.append(None)
    i = 0
    n = len(deltas)
    while i < n:
        d = deltas[i]
        j = i
        while j < n and deltas[j] == d:
            j += 1
        if d is None:
            ops.append(PatchOp("R", j - i, lines=tuple(b_lines[i:j])))
        elif d == 0:
            ops.append(PatchOp("K", j - i))
        else:
            ops.append(PatchOp("S", j - i, delta=d))
        i = j
    return ops


def _diff_lines(a_lines, b_lines):
    if a_lines == b_lines:
        return [PatchOp("K", len(a_lines))] if a_lines else []
    if len(a_lines) == len(b_lines):
        return _shift_runs(a_lines, b_lines)
    sm = difflib.SequenceMatcher(None, a_lines, b_lines, autojunk=False)
    ops = []
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag == "equal":
            ops.append(PatchOp("K", i2 - i1))
        elif tag == "delete":
            ops.append(PatchOp("D", i2 - i1))
        elif tag == "insert":
            ops.append(PatchOp("I", lines=tuple(b_lines[j1:j2])))
        elif i2 - i1 == j2 - j1:
            ops.extend(_shift_runs(a_lines[i1:i2], b_lines[j1:j2]))
        else:
            ops.append(PatchOp("R", i2 - i1, lines=tuple(b_lines[j1:j2])))
    return ops


def _coalesce(ops):
    out = []
    for op in ops:
        if op.op in "KD" and op.n == 0:
            continue
        if op.op in "RI" and not op.lines and op.n == 0:
            continue
        if out:
            prev = out[-1]
            if prev.op == op.op and (op.op in "KD"
                                     or (op.op == "S" and prev.delta == op.delta)):
                out[-1] = PatchOp(op.op, prev.n + op.n, delta=op.delta)
                continue
            if prev.op == op.op and op.op in "RI":
                out[-1] = PatchOp(op.op, prev.n + op.n,
                                  lines=prev.lines + op.lines)
                continue
        out.append(op)
    return out


def diff(approx, truth):
    """Edit script turning the approximation into the exact symbol file.

    Segments are aligned per function so a desync in one function never
    degrades the encoding of its neighbours.
    """
    a_lines = emit_symbol_file(approx).splitlines()
    b_lines = emit_symbol_file(truth).splitlines()
    seg_a = _segments(a_lines)
    seg_b = _segments(b_lines)
    keys_a = [s[0] for s in seg_a]
    keys_b = [s[0] for s in seg_b]
    sm = difflib.SequenceMatcher(None, keys_a, keys_b, autojunk=False)
    ops = []
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag in ("equal", "replace") and i2 - i1 == j2 - j1:
            for sa, sb in zip(seg_a[i1:i2], seg_b[j1:j2]):
                ops.extend(_diff_lines(a_lines[sa[1]:sa[2]], b_lines[sb[1]:sb[2]]))
        else:
            chunk_a = a_lines[seg_a[i1][1]:seg_a[i2 - 1][2]] if i2 > i1 else []
            chunk_b = b_lines[seg_b[j1][1]:seg_b[j2 - 1][2]] if j2 > j1 else []
            ops.extend(_diff_lines(chunk_a, chunk_b))
    return Patch(tuple(_coalesce(ops)))


def apply(approx, patch):
    """Exact symbol file from the approximation plus the patch."""
    a_lines = emit_symbol_file(approx).splitlines()
    out = []
    i = 0
    for op in patch.ops:
        if op.op == "K":
            if i + op.n > len(a_lines):
                raise PatchCorruptError("keep past end of input")
            out.extend(a_lines[i:i + op.n])
            i += op.n
        elif op.op == "S":
            if i + op.n > len(a_lines):
                raise PatchCorruptError("shift past end of input")
            for ln in a_lines[i:i + op.n]:
                shifted = shift_leading_address(ln, op.delta)
                if shifted is None:
                    raise PatchCorruptError("unshiftable line %r" % ln)
                out.append(shifted)
            i += op.n
        elif op.op == "D":
            if i + op.n > len(a_lines):
                raise PatchCorruptError("delete past end of input")
            i += op.n
        elif op.op == "R":
            if i + op.n > len(a_lines):
                raise PatchCorruptError("replace past end of input")
            i += op.n
            out.extend(op.lines)
        elif op.op == "I":
            out.extend(op.lines)
        else:
            raise PatchCorruptError("unknown op %r" % op.op)
    if i != len(a_lines):
        raise PatchCorruptError("patch consumed %d of %d lines" % (i, len(a_lines)))
    text = "\n".join(out) + ("\n" if out else "")
    try:
        return parse_symbol_file(text)
    except SymbolParseError as e:
        raise PatchCorruptError("patched text invalid: %s" % e) from e


# ---------------------------------------------------------------------------
# serialization

def _emit_patch(patch):
    out = ["PATCH v1 %d" % len(patch.ops)]
    for op in patch.ops:
        if op.op == "K":
            out.append("K %d" % op.n)
        elif op.op == "S":
            out.append("S %d %d" % (op.n, op.delta))
        elif op.op == "D":
            out.append("D %d" % op.n)
        elif op.op == "R":
            out.append("R %d %d" % (op.n, len(op.lines)))
            out.extend(op.lines)
        else:
            out.append("I %d" % len(op.lines))
            out.extend(op.lines)
    return "\n".join(out) + "\n"


def _int(tok, error, what, base=10):
    """int(tok, base), raising error (a DivsymError) if tok is no number."""
    try:
        return int(tok, base)
    except ValueError:
        raise error("bad number %r in %s" % (tok, what)) from None


def _count(tok, line):
    n = _int(tok, PatchCorruptError, "patch op %r" % line)
    if n < 0:
        raise PatchCorruptError("negative count in patch op %r" % line)
    return n


# tokens on each op line, op letter included
_OP_TOKENS = {"K": 2, "S": 3, "D": 2, "R": 3, "I": 2}


def _parse_patch(lines, pos):
    if pos >= len(lines):
        raise PatchCorruptError("missing patch header")
    head = lines[pos].split()
    if len(head) != 3 or head[0] != "PATCH" or head[1] != "v1":
        raise PatchCorruptError("bad patch header %r" % lines[pos])
    n_ops = _count(head[2], lines[pos])
    pos += 1
    ops = []
    for _ in range(n_ops):
        if pos >= len(lines):
            raise PatchCorruptError("patch ends after %d of %d ops"
                                    % (len(ops), n_ops))
        line = lines[pos]
        toks = line.split()
        pos += 1
        kind = toks[0] if toks else ""
        if kind not in _OP_TOKENS:
            raise PatchCorruptError("unknown patch op %r" % kind)
        if len(toks) != _OP_TOKENS[kind]:
            raise PatchCorruptError("bad patch op %r" % line)
        n = _count(toks[1], line)
        if kind == "S":
            ops.append(PatchOp("S", n, delta=_int(toks[2], PatchCorruptError,
                                                  "patch op %r" % line)))
        elif kind in ("K", "D"):
            ops.append(PatchOp(kind, n))
        else:
            k = _count(toks[-1], line)
            if k > len(lines) - pos:
                raise PatchCorruptError("%s op wants %d lines, %d left"
                                        % (kind, k, len(lines) - pos))
            ops.append(PatchOp(kind, n if kind == "R" else 0,
                               lines=tuple(lines[pos:pos + k])))
            pos += k
    return Patch(tuple(ops)), pos


def check_nop_fraction(num, den):
    """Raise DeltaFormatError unless num/den is a probability.

    pack() and the payload parser both apply it, so every container the
    writer produces is one the reader accepts.
    """
    if den == 0 or not 0 <= num <= den:
        raise DeltaFormatError("bad nop fraction %d/%d" % (num, den))


def _emit_payload(dd):
    out = ["DDATA v1",
           "seeds %016x %016x %016x" % (dd.seeds.pad_seed, dd.seeds.nop_seed,
                                        dd.seeds.shuffle_seed),
           "nop %d/%d" % (dd.nop_num, dd.nop_den),
           "flags default_padding=%d sp_fp_opt=%d pad=%d shuffle=%d"
           % (dd.default_padding, dd.sp_fp_opt, dd.pad_scheme, dd.shuffle_scheme)]
    return "\n".join(out) + "\n" + _emit_patch(dd.patch)


_FLAG_KEYS = ("default_padding", "sp_fp_opt", "pad", "shuffle")


def _parse_payload(text):
    lines = text.splitlines()
    if len(lines) < 4 or lines[0] != "DDATA v1":
        raise DeltaFormatError("bad delta payload header")
    s = lines[1].split()
    if len(s) != 4 or s[0] != "seeds":
        raise DeltaFormatError("bad seeds record")
    seeds = SeedTuple(*(_int(v, DeltaFormatError, "seeds record", 16)
                        for v in s[1:]))
    nop = lines[2].split()
    frac = nop[1].split("/") if len(nop) == 2 and nop[0] == "nop" else ()
    if len(frac) != 2:
        raise DeltaFormatError("bad nop record %r" % lines[2])
    num, den = (_int(v, DeltaFormatError, "nop record") for v in frac)
    check_nop_fraction(num, den)
    flags = lines[3].split()
    kv = dict(t.partition("=")[::2] for t in flags[1:])
    if flags[:1] != ["flags"] or len(flags) != 5 \
            or kv.keys() != set(_FLAG_KEYS):
        raise DeltaFormatError("bad flags record %r" % lines[3])
    flag = {k: bool(_int(kv[k], DeltaFormatError, "flags record"))
            for k in _FLAG_KEYS}
    patch, pos = _parse_patch(lines, 4)
    if pos != len(lines):
        raise DeltaFormatError("trailing data in delta payload")
    return DeltaData(seeds=seeds, nop_num=num, nop_den=den,
                     default_padding=flag["default_padding"],
                     sp_fp_opt=flag["sp_fp_opt"], pad_scheme=flag["pad"],
                     shuffle_scheme=flag["shuffle"], patch=patch)


def pack(dd, key=None):
    """Serialize, DEFLATE, and optionally authenticate the delta data."""
    check_nop_fraction(dd.nop_num, dd.nop_den)
    comp = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = comp.compress(_emit_payload(dd).encode()) + comp.flush()
    flags = FLAG_AUTH if key is not None else 0
    blob = MAGIC + bytes([dd.version, flags]) + struct.pack("<I", len(payload)) \
        + payload
    if key is not None:
        blob += hmac.new(key, blob, hashlib.sha256).digest()
    return blob


def unpack(blob, key=None):
    if len(blob) < HEADER_LEN:
        raise DeltaFormatError("truncated container")
    if blob[:4] != MAGIC:
        raise DeltaFormatError("bad magic")
    version = blob[4]
    if version != VERSION:
        raise DeltaFormatError("unsupported version %d" % version)
    flags = blob[5]
    plen = struct.unpack("<I", blob[6:10])[0]
    expect = HEADER_LEN + plen + (TAG_LEN if flags & FLAG_AUTH else 0)
    if len(blob) != expect:
        raise DeltaFormatError("container length %d, expected %d"
                               % (len(blob), expect))
    if flags & FLAG_AUTH:
        if key is None:
            raise AuthenticationError("container is authenticated; key required")
        tag = blob[-TAG_LEN:]
        want = hmac.new(key, blob[:-TAG_LEN], hashlib.sha256).digest()
        if not hmac.compare_digest(tag, want):
            raise AuthenticationError("authentication tag mismatch")
    elif key is not None:
        raise AuthenticationError("key supplied but container is unauthenticated")
    inflater = zlib.decompressobj(-15)
    try:
        raw = inflater.decompress(blob[HEADER_LEN:HEADER_LEN + plen],
                                  MAX_PAYLOAD_BYTES + 1)
        if len(raw) > MAX_PAYLOAD_BYTES:
            raise DeltaFormatError("payload inflates past %d bytes"
                                   % MAX_PAYLOAD_BYTES)
        if not inflater.eof:
            raise DeltaFormatError("corrupt payload: truncated stream")
        text = raw.decode()
    except (zlib.error, UnicodeDecodeError) as e:
        raise DeltaFormatError("corrupt payload: %s" % e) from e
    return _parse_payload(text)


def embed(image_bytes, dd_bytes):
    """Inject packed delta data as an additional image section."""
    return append_section(image_bytes, "dbpd", dd_bytes)


def extract(image_bytes):
    """Recover the packed delta data from an image."""
    return find_section(image_bytes, "dbpd")
