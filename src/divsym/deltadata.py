"""Delta data: the seeds, parameters and patch that ride with a crash.

The patch is an edit script over the canonical lines of a symbol file,
one entry per line as symfile gives them, with an explicit SHIFT op:
address shifts are by far the dominant divergence mode (a moved pool or
one desynced function shifts a run of otherwise identical records), and
SHIFT encodes a whole run in O(1) bytes where REPLACE would copy every
line.  Only REPLACE and INSERT carry text; symfile reads and writes it.

Diffing aligns record segments per function (FUNC block by name, CFI
block by position), exploiting the per-function containment of
desynchronization; inside a segment, runs of entries equal but for
their leading address become SHIFT ops.

Before the ops, the patch carries growth records: "line record k of
function f grew by n bytes".  A grown line record would otherwise cost
REPLACE ops for its own line, its FUNC line and its STACK CFI INIT line,
and SHIFT ops for everything placed after it.  Apply replays the records
on the approximation (see replay), runs the ops over the entries of the
result, parses only the REPLACE and INSERT lines, and validates the
outcome once.  Every address and end of the result lies below 2^32.
A patch that does not apply raises PatchCorruptError (CLI exit 4); a
malformed container or header record raises DeltaFormatError (exit 2).

Container layout (packed):

    "DBPD" | version u8 | flags u8 | payload length u32 LE |
    DEFLATE payload | [32-byte HMAC-SHA-256 tag]

flags bit 0 marks an authenticated container; the tag covers everything
before it.  No other flag bit is defined, and unpack refuses one.  The
payload is deterministic ASCII, compressed raw DEFLATE.
"""

from __future__ import annotations

import difflib
import hashlib
import hmac
import itertools
import re
import struct
import zlib
from dataclasses import astuple, dataclass, field
from operator import attrgetter

from divsym.diversify import SeedTuple
from divsym.errors import (AuthenticationError, DeltaFormatError,
                           PatchCorruptError, SymbolFormatError,
                           SymbolParseError)
from divsym.progmodel import BuildOptions
from divsym.symfile import (CfiInitRecord, FuncRecord, LineRecord,
                            SymbolFile, entry_text, parse_entry,
                            symbol_file_entries, symbol_file_from_entries,
                            validate)

MAGIC = b"DBPD"
VERSION = 2
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


def _name_keys(funcs):
    """(name, k) for each function, the k-th of its name."""
    seen = {}
    for f in funcs:
        k = seen.get(f.name, 0)
        seen[f.name] = k + 1
        yield f.name, k


def derive_growth(approx, truth):
    """One Growth per line record whose size differs between same-named
    functions (the k-th of a name with the k-th) that have the same
    (line, filenum) sequence and each their own CFI region."""
    where = {key: j for j, key in enumerate(_name_keys(truth.funcs))}
    out = []
    for i, (f, key) in enumerate(zip(approx.funcs, _name_keys(approx.funcs))):
        j = where.get(key)
        if j is None:
            continue
        g = truth.funcs[j]
        sizes = list(map(attrgetter("size"), f.lines))
        grown = list(map(attrgetter("size"), g.lines))
        if len(sizes) != len(grown) or sizes == grown:
            continue
        if any((a.line, a.filenum) != (b.line, b.filenum)
               for a, b in zip(f.lines, g.lines)) \
                or _own_cfi(approx, i) is None or _own_cfi(truth, j) is None:
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
    strictly increasing (index, offset) order.  Hostile records raise
    PatchCorruptError, and so does a replayed file that fails validate().
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
    out = SymbolFile(sf.module_id, sf.files, tuple(funcs), tuple(cfi),
                     sf.publics)
    try:
        validate(out)
    except SymbolFormatError as e:
        raise PatchCorruptError("replayed growth records: %s" % e) from e
    return out


# ---------------------------------------------------------------------------
# diff

def _segments(sf):
    """(keys, sizes): the key and entry count of each of sf's segments,
    which are its header, each FUNC block keyed by its name and k (the
    k-th of its name), its PUBLICs if any and each CFI block keyed by its
    position."""
    segs = [(("H",), bool(sf.module_id) + len(sf.files))]
    segs += [(("F",) + key, 1 + len(f.lines))
             for f, key in zip(sf.funcs, _name_keys(sf.funcs))]
    if sf.publics:
        segs.append((("P",), len(sf.publics)))
    segs += [(("C", ci), 1 + len(c.deltas))
             for ci, c in enumerate(sf.cfi_regions)]
    return tuple(zip(*segs))


def _take(entries, n):
    """The next n entries of an iterator, or as many as are left."""
    return list(itertools.islice(entries, n))


def _shift_runs(a, b):
    """Ops for equal-length entry runs: per-entry shift classification."""
    ops = []
    deltas = []
    for x, y in zip(a, b):
        if x == y:
            deltas.append(0)
        elif x[1] is not None and (x[0], x[2]) == (y[0], y[2]):
            deltas.append(y[1] - x[1])
        else:
            deltas.append(None)
    i = 0
    for d, run in itertools.groupby(deltas):
        n = len(list(run))
        if d is None:
            ops.append(PatchOp("R", n, lines=_texts(b[i:i + n])))
        elif d == 0:
            ops.append(PatchOp("K", n))
        else:
            ops.append(PatchOp("S", n, delta=d))
        i += n
    return ops


def _texts(entries):
    return tuple(entry_text(e) for e in entries)


def _diff_entries(a, b):
    if len(a) == len(b):
        return _shift_runs(a, b)
    sm = difflib.SequenceMatcher(None, a, b, autojunk=False)
    ops = []
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag == "delete":
            ops.append(PatchOp("D", i2 - i1))
        elif tag == "insert":
            ops.append(PatchOp("I", lines=_texts(b[j1:j2])))
        elif i2 - i1 == j2 - j1:    # equal, or replaced by as many
            ops.extend(_shift_runs(a[i1:i2], b[j1:j2]))
        else:
            ops.append(PatchOp("R", i2 - i1, lines=_texts(b[j1:j2])))
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

    Segments are aligned per function so a desync in one function never
    degrades the encoding of its neighbours.  A truth that fails
    validate() raises SymbolFormatError.
    """
    validate(truth)
    growth = derive_growth(approx, truth)
    try:
        approx = replay(approx, growth)
    except PatchCorruptError:
        growth = ()
    # entries are made segment by segment and die with it: held for the
    # whole diff, they would reach the collector's oldest generation
    a = symbol_file_entries(approx)
    b = symbol_file_entries(truth)
    keys_a, sizes_a = _segments(approx)
    keys_b, sizes_b = _segments(truth)
    sm = difflib.SequenceMatcher(None, keys_a, keys_b, autojunk=False)
    ops = []
    for tag, i1, i2, j1, j2 in sm.get_opcodes():
        if tag in ("equal", "replace") and i2 - i1 == j2 - j1:
            for n, m in zip(sizes_a[i1:i2], sizes_b[j1:j2]):
                ops.extend(_diff_entries(_take(a, n), _take(b, m)))
        else:
            ops.extend(_diff_entries(_take(a, sum(sizes_a[i1:i2])),
                                     _take(b, sum(sizes_b[j1:j2]))))
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
    total = sum(_segments(sf)[1])
    done = 0
    for op in ops:
        if op.op not in _OPS:
            raise PatchCorruptError("unknown op %r" % op.op)
        if done + op.n > total:
            raise PatchCorruptError("%s past end of input" % _OPS[op.op])
        run = _take(entries, op.n)
        done += op.n
        if op.op == "K":
            yield from run
        elif op.op == "S":
            for kind, addr, fields in run:
                if addr is None:
                    raise PatchCorruptError("unshiftable %s line" % kind)
                yield (kind, addr + op.delta, fields)
        elif op.op != "D":
            yield from map(parse_entry, op.lines)
    if done != total:
        raise PatchCorruptError("patch consumed %d of %d lines"
                                % (done, total))


# ---------------------------------------------------------------------------
# serialization

def _emit_patch(patch):
    out = ["PATCH v2 %d %d" % (len(patch.growth), len(patch.ops))]
    out.extend(g.text() for g in patch.growth)
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
# G <index> <offset> <bytes>, as Growth.text() writes it
_GROWTH_RE = re.compile(r"G (0|[1-9][0-9]*) (0|[1-9a-f][0-9a-f]*) "
                        r"(0|-?[1-9][0-9]*)")


def _parse_patch(lines, pos):
    if pos >= len(lines):
        raise PatchCorruptError("missing patch header")
    head = lines[pos].split()
    if len(head) != 4 or head[0] != "PATCH" or head[1] != "v2":
        raise PatchCorruptError("bad patch header %r" % lines[pos])
    n_growth = _count(head[2], lines[pos])
    n_ops = _count(head[3], lines[pos])
    pos += 1
    if n_growth > len(lines) - pos:
        raise PatchCorruptError("patch wants %d growth records, %d lines left"
                                % (n_growth, len(lines) - pos))
    growth = []
    for line in lines[pos:pos + n_growth]:
        m = _GROWTH_RE.fullmatch(line)
        if m is None:
            raise PatchCorruptError("bad growth record %r" % line)
        what = "growth record"
        growth.append(Growth(_int(m[1], PatchCorruptError, what),
                             _int(m[2], PatchCorruptError, what, 16),
                             _int(m[3], PatchCorruptError, what)))
    pos += n_growth
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
    return Patch(tuple(ops), tuple(growth)), pos


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


def _emit_payload(dd):
    out = ["DDATA v2",
           "seeds %016x %016x %016x" % (dd.seeds.pad_seed, dd.seeds.nop_seed,
                                        dd.seeds.shuffle_seed),
           "nop %d/%d" % (dd.nop_num, dd.nop_den),
           "flags default_padding=%d sp_fp_opt=%d pad=%d shuffle=%d"
           % (dd.default_padding, dd.sp_fp_opt, dd.pad_scheme, dd.shuffle_scheme)]
    return "\n".join(out) + "\n" + _emit_patch(dd.patch)


_FLAG_KEYS = ("default_padding", "sp_fp_opt", "pad", "shuffle")
_SEED_RE = re.compile(r"[0-9a-f]{16}")


def _parse_payload(text):
    # "\n" only, as _emit_payload joins: an R/I line may hold any other
    # line break character
    lines = text.removesuffix("\n").split("\n")
    if len(lines) < 4 or lines[0] != "DDATA v2":
        raise DeltaFormatError("bad delta payload header")
    s = lines[1].split()
    if len(s) != 4 or s[0] != "seeds" \
            or not all(_SEED_RE.fullmatch(v) for v in s[1:]):
        raise DeltaFormatError("bad seeds record %r" % lines[1])
    seeds = SeedTuple(*(int(v, 16) for v in s[1:]))
    nop = lines[2].split()
    frac = nop[1].split("/") if len(nop) == 2 and nop[0] == "nop" else ()
    if len(frac) != 2:
        raise DeltaFormatError("bad nop record %r" % lines[2])
    num, den = (_int(v, DeltaFormatError, "nop record") for v in frac)
    check_fraction(num, den, "nop")
    flags = lines[3].split()
    kv = dict(t.partition("=")[::2] for t in flags[1:])
    if flags[:1] != ["flags"] or len(flags) != 5 \
            or kv.keys() != set(_FLAG_KEYS) \
            or not set(kv.values()) <= {"0", "1"}:
        raise DeltaFormatError("bad flags record %r" % lines[3])
    flag = {k: kv[k] == "1" for k in _FLAG_KEYS}
    patch, pos = _parse_patch(lines, 4)
    if pos != len(lines):
        raise DeltaFormatError("trailing data in delta payload")
    return DeltaData(seeds=seeds, nop_num=num, nop_den=den,
                     default_padding=flag["default_padding"],
                     sp_fp_opt=flag["sp_fp_opt"], pad_scheme=flag["pad"],
                     shuffle_scheme=flag["shuffle"], patch=patch)


def pack(dd, key=None):
    """Serialize, DEFLATE, and optionally authenticate the delta data."""
    check_fraction(dd.nop_num, dd.nop_den, "nop")
    check_seeds(dd.seeds)
    comp = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = comp.compress(_emit_payload(dd).encode()) + comp.flush()
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
