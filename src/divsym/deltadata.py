"""Delta data: the seeds, parameters and patch that ride with a crash.

The patch is an edit script over the canonical lines of a symbol file,
one entry per line as symfile gives them, with an explicit SHIFT op:
address shifts are by far the dominant divergence mode (a moved pool or
one desynced function shifts a run of otherwise identical records), and
SHIFT encodes a whole run in O(1) bytes where REPLACE would copy every
line.  Only REPLACE and INSERT carry text; symfile reads and writes it.

Diffing pairs record segments by position: function i of the
approximation with function i of the exact file, since replicate
reproduces the link order.  That exploits the per-function containment
of desynchronization; inside a segment, runs of entries equal but for
their leading address become SHIFT ops.

Before the ops, the patch carries growth records: "line record k of
function f grew by n bytes".  A grown line record would otherwise cost
REPLACE ops for its own line, its FUNC line and its STACK CFI INIT line,
and SHIFT ops for everything placed after it.  Apply replays the records
on the approximation (see replay), runs the ops over the entries of the
result, parses only the REPLACE and INSERT lines, and validates the
outcome once.  Every address and end of the result lies below 2^32.
A patch that does not apply or does not parse raises PatchCorruptError
(CLI exit 4); a malformed container or body header raises
DeltaFormatError (exit 2).

Container layout (packed):

    "DBPD" | version u8 | flags u8 | payload length u32 LE |
    DEFLATE payload | [32-byte HMAC-SHA-256 tag]

flags bit 0 marks an authenticated container; the tag covers everything
before it.  No other flag bit is defined, and unpack refuses one.  The
payload is a deterministic binary body, compressed raw DEFLATE: the
header fields, then the patch in columns (growth records, op kinds, op
numbers as LEB128 varints, signed ones zigzagged, then the R/I lines as
text), which DEFLATE codes better than interleaved records.  The body
grammar is in docs/formats.md.
"""

from __future__ import annotations

import difflib
import hashlib
import hmac
import itertools
import struct
import zlib
from dataclasses import astuple, dataclass, field
from operator import attrgetter, eq, sub

from divsym.diversify import SeedTuple
from divsym.errors import (AuthenticationError, DeltaFormatError,
                           PatchCorruptError, SymbolFormatError,
                           SymbolParseError)
from divsym.progmodel import BuildOptions
from divsym.symfile import (CfiInitRecord, FuncRecord, LineRecord,
                            SymbolFile, cfi_entries, entry_text, func_entries,
                            header_entries, parse_entry, public_entries,
                            symbol_file_entries, symbol_file_from_entries,
                            validate)

MAGIC = b"DBPD"
VERSION = 3
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
class Growth:
    """The line record of function `index` (its position in the
    approximation's FUNC list) that holds `offset`, counted from the
    function's start, grows by `nbytes` (negative: shrinks)."""
    index: int
    offset: int
    nbytes: int

    def text(self):
        return "G %d %x %d" % (self.index, self.offset, self.nbytes)


@dataclass(frozen=True)
class Patch:
    ops: tuple = ()
    growth: tuple = ()       # Growth records, replayed before the ops

    @property
    def payload_bytes(self):
        """Bytes of residue beyond address shifts: the R/I lines and the
        growth records, as serialized."""
        return sum(len(ln.encode()) + 1
                   for op in self.ops if op.op in "RI" for ln in op.lines) \
            + sum(len(g.text()) + 1 for g in self.growth)


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
# growth records

def _own_cfi(sf, i):
    """Function i's CFI region: region i, if it spans exactly FUNC i."""
    if i >= len(sf.cfi_regions):
        return None
    c, f = sf.cfi_regions[i], sf.funcs[i]
    return c if (c.address, c.size) == (f.address, f.size) else None


def derive_growth(approx, truth):
    """One Growth per line record whose size differs between function i
    of the approximation and function i of the truth, where the two have
    the same name, the same (line, filenum) sequence and each their own
    CFI region, and the approximation's line records are disjoint (so
    each record grows the line record it was derived from)."""
    out = []
    for i, (f, g) in enumerate(zip(approx.funcs, truth.funcs)):
        sizes = list(map(attrgetter("size"), f.lines))
        grown = list(map(attrgetter("size"), g.lines))
        if f.name != g.name or len(sizes) != len(grown) or sizes == grown:
            continue
        if any((a.line, a.filenum) != (b.line, b.filenum)
               for a, b in zip(f.lines, g.lines)) \
                or any(a.address + a.size > b.address
                       for a, b in zip(f.lines, f.lines[1:])) \
                or _own_cfi(approx, i) is None or _own_cfi(truth, i) is None:
            continue
        out.extend(Growth(i, ln.address - f.address, b - a)
                   for ln, a, b in zip(f.lines, sizes, grown) if a != b)
    return tuple(out)


def _grow_function(f, cfi, recs, move):
    """Function f, and its own CFI region cfi (or None), moved by `move`
    with the growth records recs (in offset order) replayed."""
    lines = f.lines
    grow = [0] * len(lines)
    j = 0
    for g in recs:
        at = f.address + g.offset
        while j < len(lines) and lines[j].address + lines[j].size <= at:
            j += 1
        if j == len(lines) or lines[j].address > at:
            raise PatchCorruptError("growth record %s: offset outside the "
                                    "line records of FUNC %s" % (g.text(), f.name))
        grow[j] += g.nbytes
    out = []
    steps = []          # (old end of a grown record, shift from there on)
    shift = move
    for ln, n in zip(lines, grow):
        if n:
            if ln.size + n <= 0:
                raise PatchCorruptError("growth leaves the line record at %x "
                                        "of FUNC %s %d bytes"
                                        % (ln.address, f.name, ln.size + n))
            out.append(LineRecord(ln.address + shift, ln.size + n, ln.line,
                                  ln.filenum))
            shift += n
            steps.append((ln.address + ln.size, shift))
        else:
            out.append(LineRecord(ln.address + shift, ln.size, ln.line,
                                  ln.filenum) if shift else ln)
    total = shift - move
    nf = FuncRecord(f.address + move, f.size + total, f.param_size, f.name,
                    tuple(out))
    if cfi is None:
        return nf, None
    deltas = []
    shift = move
    k = 0
    for addr, rules in cfi.deltas:
        while k < len(steps) and steps[k][0] <= addr:
            shift = steps[k][1]
            k += 1
        deltas.append((addr + shift, rules))
    return nf, CfiInitRecord(cfi.address + move, cfi.size + total,
                             cfi.init_rules, tuple(deltas))


def replay(sf, growth):
    """The symbol file with the growth records replayed.

    Each record grows the line record holding its offset; the function's
    later line records, and its CFI deltas at or past the grown record's
    old end, move with it, and its FUNC and own CFI INIT sizes follow.
    Each later function moves only as far as it must to start at or after
    the previous function's new end ("push"), its own CFI region with it;
    functions left in place keep their record objects.  Records must be in
    strictly increasing (index, offset) order.  Records that do not
    replay raise PatchCorruptError.  The result is not validated: apply
    validates the patched file once, and diff only diffs the replayed
    approximation against the validated truth.
    """
    if not growth:
        return sf
    funcs = list(sf.funcs)
    cfi = list(sf.cfi_regions)
    prev = None
    for g in growth:
        if not 0 <= g.index < len(funcs):
            raise PatchCorruptError("growth record %s: no function %d"
                                    % (g.text(), g.index))
        if prev is not None and (g.index, g.offset) <= prev:
            raise PatchCorruptError("growth record %s out of (index, offset) "
                                    "order" % g.text())
        prev = (g.index, g.offset)
    r = 0
    i = growth[0].index
    end = funcs[i - 1].address + funcs[i - 1].size if i else 0
    while i < len(funcs):
        f = funcs[i]
        move = max(0, end - f.address)
        start = r
        while r < len(growth) and growth[r].index == i:
            r += 1
        if move or r > start:
            own = _own_cfi(sf, i)
            funcs[i], c = _grow_function(f, own, growth[start:r], move)
            if own is not None:
                cfi[i] = c
        elif r == len(growth):
            break
        end = funcs[i].address + funcs[i].size
        i += 1
    return SymbolFile(sf.module_id, sf.files, tuple(funcs), tuple(cfi),
                      sf.publics)


# ---------------------------------------------------------------------------
# diff

def _take(entries, n):
    """The next n entries of an iterator, or as many as are left."""
    return list(itertools.islice(entries, n))


def _shift_ops(a, b, texts):
    """K, S and R ops for equal-length sequences of records a and b, each
    record a tuple of its address and its other fields, all of one
    length.  A run of records equal to their counterparts but for one
    address delta is kept (delta 0) or shifted; a run of others is
    replaced by texts(i, j), the lines of b[i:j]."""
    if not a:
        return []
    # by columns: the address, then the other fields
    addr_a, *rest_a = zip(*a)
    addr_b, *rest_b = zip(*b)
    deltas = list(map(sub, addr_b, addr_a))
    if rest_a == rest_b:
        if deltas.count(deltas[0]) == len(deltas):
            return [_shifted(len(deltas), deltas[0])]
        keys = zip(itertools.repeat(True), deltas)
    else:
        keys = zip(map(eq, zip(*rest_a), zip(*rest_b)), deltas)
    ops = []
    i = 0
    for (same, delta), run in itertools.groupby(keys):
        n = len(list(run))
        ops.append(_shifted(n, delta) if same
                   else PatchOp("R", n, lines=texts(i, i + n)))
        i += n
    return ops


def _shifted(n, delta):
    """The op for n records equal but for an address delta."""
    return PatchOp("S", n, delta=delta) if delta else PatchOp("K", n)


def _entry_records(entries):
    """Entries as records for _shift_ops: the address first, 0 for a
    MODULE or FILE entry, which has none, so no run shifts it."""
    return [(0 if addr is None else addr, kind, fields)
            for kind, addr, fields in entries]


def _texts(entries):
    return tuple(entry_text(e) for e in entries)


def _diff_entries(a, b):
    """Ops turning entries a into entries b: by _shift_ops when their
    lengths are equal, else along difflib's matching blocks."""
    if len(a) == len(b):
        return _shift_ops(_entry_records(a), _entry_records(b),
                          lambda i, j: _texts(b[i:j]))
    sm = difflib.SequenceMatcher(None, a, b, autojunk=False)
    ops = []
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag == "delete":
            ops.append(PatchOp("D", i2 - i1))
        elif tag == "insert":
            ops.append(PatchOp("I", lines=_texts(b[j1:j2])))
        elif i2 - i1 == j2 - j1:    # equal, or replaced by as many
            ops.extend(_diff_entries(a[i1:i2], b[j1:j2]))
        else:
            ops.append(PatchOp("R", i2 - i1, lines=_texts(b[j1:j2])))
    return ops


def _func_records(f):
    """A FUNC's own record, then its line records: four fields each."""
    return ((f.address, f.size, f.param_size, f.name),) + f.lines


def _cfi_records(c):
    """A CFI region's INIT record, then its deltas: two fields each."""
    return ((c.address, (c.size, c.init_rules)),) + c.deltas


def _diff_segments(xs, ys, records, entries):
    """Ops turning the segments xs into the segments ys, paired by
    position, each segment a FUNC or a CFI region with its lines.  A
    pair of equal length is diffed on its records, and only the lines
    it replaces become entries; any other pair, or a surplus segment,
    goes through entries whole."""
    ops = []
    for x, y in itertools.zip_longest(xs, ys):
        a = () if x is None else records(x)
        b = () if y is None else records(y)
        if len(a) == len(b):
            ops += _shift_ops(a, b, lambda i, j, y=y: _texts(
                itertools.islice(entries(y), i, j)))
        else:
            ops += _diff_entries([] if x is None else list(entries(x)),
                                 [] if y is None else list(entries(y)))
    return ops


def _coalesce(ops):
    """Each run of adjacent ops of one kind, and for S of one delta, as one
    op."""
    out = []
    for (kind, delta), run in itertools.groupby(ops,
                                                attrgetter("op", "delta")):
        run = list(run)
        out.append(PatchOp(kind, sum(op.n for op in run), delta,
                           tuple(ln for op in run for ln in op.lines)))
    return out


def diff(approx, truth):
    """Growth records plus the edit script that turns the approximation,
    with the records replayed, into the exact symbol file.

    Each section's segments pair by position: the header, FUNC i of the
    approximation with FUNC i of the truth, the PUBLICs, and CFI region
    i with CFI region i, so a desync in one function never degrades the
    encoding of its neighbours; a surplus segment on either side is
    deleted or inserted whole.  A FUNC or CFI pair of equal length is
    diffed function by function, on its records: each record's shift
    comes from the records themselves, and only the lines of a replaced
    run are made into entries.  A pair of unequal length is diffed on
    its entries.  A truth that fails validate() raises SymbolFormatError.
    """
    validate(truth)
    growth = derive_growth(approx, truth)
    approx = replay(approx, growth)
    ops = _diff_entries(list(header_entries(approx)),
                        list(header_entries(truth)))
    ops += _diff_segments(approx.funcs, truth.funcs, _func_records,
                          func_entries)
    ops += _diff_entries(list(public_entries(approx)),
                         list(public_entries(truth)))
    ops += _diff_segments(approx.cfi_regions, truth.cfi_regions,
                          _cfi_records, cfi_entries)
    return Patch(tuple(_coalesce(ops)), growth)


# each op's name in an error; an I op consumes no entries (n is 0)
_OPS = {"K": "keep", "S": "shift", "D": "delete", "R": "replace",
        "I": "insert"}


def apply(approx, patch):
    """Exact symbol file from the approximation plus the patch: the
    growth records are replayed first, then the ops run over the entries
    of the result, one per canonical line, and one validate() closes."""
    try:
        return symbol_file_from_entries(
            _patched(replay(approx, patch.growth), patch.ops))
    except (SymbolFormatError, SymbolParseError) as e:
        raise PatchCorruptError("patched symbol file invalid: %s" % e) from e


def _patched(sf, ops):
    """The entries the ops make of sf's, one at a time."""
    entries = symbol_file_entries(sf)
    for op in ops:
        if op.op not in _OPS:
            raise PatchCorruptError("unknown op %r" % op.op)
        run = _take(entries, op.n)
        if len(run) < op.n:
            raise PatchCorruptError("%s past end of input" % _OPS[op.op])
        if op.op == "K":
            yield from run
        elif op.op == "S":
            for kind, addr, fields in run:
                if addr is None:
                    raise PatchCorruptError("unshiftable %s line" % kind)
                yield (kind, addr + op.delta, fields)
        elif op.op != "D":
            yield from map(parse_entry, op.lines)
    if next(entries, None) is not None:
        raise PatchCorruptError("patch leaves input lines unconsumed")


# ---------------------------------------------------------------------------
# serialization

# DeltaData's flag fields, by their bit in the body's flags byte
_FLAG_FIELDS = ("default_padding", "sp_fp_opt", "pad_scheme", "shuffle_scheme")
# Longest varint the reader takes: 140 bits, room for a growth record of
# 10^30 bytes, which replay then refuses
MAX_VARINT_BYTES = 20


def _varint(n, out):
    """Append n, a number >= 0, to out as a LEB128 varint."""
    if n < 0:
        raise DeltaFormatError("cannot pack negative number %d" % n)
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)


def _zigzag(n):
    """n >= 0 as 2n, n < 0 as -2n - 1: small magnitudes, short varints."""
    return 2 * n if n >= 0 else -2 * n - 1


def _body_sections(dd):
    """The payload's sections by name, in body order: the header (seeds,
    nop, flags), then the patch (counts, growth, kinds, numbers, text)."""
    patch = dd.patch
    nop = bytearray()
    _varint(dd.nop_num, nop)
    _varint(dd.nop_den, nop)
    counts = bytearray()
    _varint(len(patch.growth), counts)
    _varint(len(patch.ops), counts)
    growth = bytearray()
    index = 0
    for g in patch.growth:
        _varint(_zigzag(g.index - index), growth)
        _varint(g.offset, growth)
        _varint(_zigzag(g.nbytes), growth)
        index = g.index
    numbers = bytearray()
    lines = []
    delta = 0
    for op in patch.ops:
        if op.op in "KSDR":
            _varint(op.n, numbers)
        if op.op == "S":
            _varint(_zigzag(op.delta - delta), numbers)
            delta = op.delta
        elif op.op in "RI":
            _varint(len(op.lines), numbers)
            lines.extend(op.lines)
    return {
        "seeds": struct.pack("<3Q", *astuple(dd.seeds)),
        "nop": bytes(nop),
        "flags": bytes([sum(getattr(dd, f) << bit
                            for bit, f in enumerate(_FLAG_FIELDS))]),
        "counts": bytes(counts),
        "growth": bytes(growth),
        "kinds": "".join(op.op for op in patch.ops).encode(),
        "numbers": bytes(numbers),
        "text": "".join(ln + "\n" for ln in lines).encode(),
    }


class _Body:
    """A cursor over an inflated body.  Faults raise `error`: the header's
    DeltaFormatError, then, from the patch section on, PatchCorruptError."""

    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.error = DeltaFormatError

    def take(self, n, what):
        if n > len(self.data) - self.pos:
            raise self.error("delta payload ends inside %s" % what)
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def varint(self, what):
        n = 0
        for i, byte in enumerate(self.data[self.pos:
                                           self.pos + MAX_VARINT_BYTES]):
            n |= (byte & 0x7F) << 7 * i
            if byte < 0x80:
                if i and not byte:
                    raise self.error("non-minimal varint in %s" % what)
                self.pos += i + 1
                return n
        if len(self.data) - self.pos > MAX_VARINT_BYTES:
            raise self.error("varint longer than %d bytes in %s"
                             % (MAX_VARINT_BYTES, what))
        raise self.error("delta payload ends inside %s" % what)

    def signed(self, what):
        z = self.varint(what)
        return (z >> 1) ^ -(z & 1)

    def count(self, what, width):
        """A count of items `width` or more bytes each, the rest of the
        body being enough for them."""
        n = self.varint(what)
        if n * width > len(self.data) - self.pos:
            raise self.error("%s %d exceeds the %d bytes left"
                             % (what, n, len(self.data) - self.pos))
        return n


def check_fraction(num, den, what):
    """Raise DeltaFormatError unless num/den is a probability.

    pack() and the payload parser both apply it to the nop fraction, so
    every container the writer produces is one the reader accepts.
    """
    if den == 0 or not 0 <= num <= den:
        raise DeltaFormatError("bad %s fraction %d/%d" % (what, num, den))


def check_seeds(seeds):
    """Raise DeltaFormatError unless every seed fits the container's 64
    bits.  pack() and the CLI's seed reader apply it."""
    if not all(0 <= s < 1 << 64 for s in astuple(seeds)):
        raise DeltaFormatError("seed outside [0, 2^64) in %r" % (seeds,))


def _parse_patch(body):
    n_growth = body.count("growth record count", 3)
    n_ops = body.count("op count", 1)
    growth = []
    index = 0
    for _ in range(n_growth):
        index += body.signed("growth record")
        if index < 0:
            raise PatchCorruptError("growth record index %d" % index)
        growth.append(Growth(index, body.varint("growth record"),
                             body.signed("growth record")))
    specs = []          # (kind, n, delta, line count) per op
    delta = 0
    for kind in body.take(n_ops, "op kinds").decode("latin-1"):
        if kind not in _OPS:
            raise PatchCorruptError("unknown patch op %r" % kind)
        what = "%s op %d" % (_OPS[kind], len(specs))
        n = body.varint(what) if kind != "I" else 0
        if kind == "S":
            delta += body.signed(what)
        k = body.count(what + " line count", 1) if kind in "RI" else 0
        specs.append((kind, n, delta if kind == "S" else 0, k))
    # lines end at "\n" only, as _body_sections writes them: an R/I line
    # may hold any other line break character
    text = body.data[body.pos:].split(b"\n")
    want = sum(spec[3] for spec in specs)
    if len(text) - 1 < want:
        raise PatchCorruptError("patch text holds %d of %d lines"
                                % (len(text) - 1, want))
    if len(text) - 1 > want or text[-1]:
        raise DeltaFormatError("trailing data in delta payload")
    try:
        text = [ln.decode() for ln in text]
    except UnicodeDecodeError as e:
        raise PatchCorruptError("patch text: %s" % e) from e
    ops = []
    at = 0
    for kind, n, delta, k in specs:
        ops.append(PatchOp(kind, n, delta, tuple(text[at:at + k])))
        at += k
    return Patch(tuple(ops), tuple(growth))


def _parse_body(data):
    body = _Body(data)
    seeds = SeedTuple(*struct.unpack("<3Q", body.take(24, "seeds")))
    num = body.varint("nop fraction")
    den = body.varint("nop fraction")
    check_fraction(num, den, "nop")
    flags = body.take(1, "flags")[0]
    if flags >> len(_FLAG_FIELDS):
        raise DeltaFormatError("unknown payload flags 0x%02x" % flags)
    body.error = PatchCorruptError
    return DeltaData(seeds, num, den, patch=_parse_patch(body),
                     **{f: bool(flags >> bit & 1)
                        for bit, f in enumerate(_FLAG_FIELDS)})


def pack(dd, key=None):
    """Serialize, DEFLATE, and optionally authenticate the delta data."""
    check_fraction(dd.nop_num, dd.nop_den, "nop")
    check_seeds(dd.seeds)
    comp = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = comp.compress(b"".join(_body_sections(dd).values())) \
        + comp.flush()
    flags = FLAG_AUTH if key is not None else 0
    blob = MAGIC + bytes([VERSION, flags]) + struct.pack("<I", len(payload)) \
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
    if flags & ~FLAG_AUTH:
        raise DeltaFormatError("unknown container flags 0x%02x" % flags)
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
        body = inflater.decompress(blob[HEADER_LEN:HEADER_LEN + plen],
                                   MAX_PAYLOAD_BYTES + 1)
    except zlib.error as e:
        raise DeltaFormatError("corrupt payload: %s" % e) from e
    if len(body) > MAX_PAYLOAD_BYTES:
        raise DeltaFormatError("payload inflates past %d bytes"
                               % MAX_PAYLOAD_BYTES)
    if not inflater.eof:
        raise DeltaFormatError("corrupt payload: truncated stream")
    if inflater.unused_data:
        raise DeltaFormatError("%d bytes after the end of the DEFLATE stream"
                               % len(inflater.unused_data))
    return _parse_body(body)
