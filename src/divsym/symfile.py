"""Breakpad text symbol files: canonical parse/emit and record types.

The canonical form is the byte-exact comparison oracle for the whole
pipeline, so emission is fully deterministic: one record per line,
single spaces, lowercase hex without leading zeros, records ordered
MODULE, FILE*, FUNC blocks (each followed by its line records), PUBLIC*,
STACK CFI blocks (INIT followed by its deltas), blocks in address order.

Record grammar:

    MODULE <module-id>
    FILE <filenum> <path>
    FUNC <address> <size> <param_size> <name>
    <address> <size> <line> <filenum>
    PUBLIC <address> <name>
    STACK CFI INIT <address> <size> <reg>: <expr> ...
    STACK CFI <address> <reg>: <expr> ...

Addresses, sizes and param_size are hex; line and filenum are decimal.
Postfix expressions use decimal literals, register names and the
operators + - ^.  Addresses and ends lie below 2^32.

This module owns the line grammar.  Each line is one entry (see
symbol_file_entries); emission and parsing go through entries, and
deltadata patches symbol files as entry lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

from divsym.errors import SymbolFormatError, SymbolParseError
from divsym.records import RECORD_FAULTS, read_records

_HEX_RE = re.compile(r"^[0-9a-fA-F]+$")
_DEC_RE = re.compile(r"^-?[0-9]+$")
# Addresses and ends stay below this: the model is 32-bit ARM.
ADDRESS_LIMIT = 1 << 32


class LineRecord(NamedTuple):
    """One line record.  A tuple: the layout and the replay build tens
    of thousands per symbol file, at about half the cost of a frozen
    dataclass."""
    address: int
    size: int
    line: int
    filenum: int


@dataclass(frozen=True)
class FuncRecord:
    address: int
    size: int
    param_size: int
    name: str
    lines: tuple = ()


@dataclass(frozen=True)
class CfiInitRecord:
    address: int
    size: int
    init_rules: dict
    deltas: tuple = ()  # ((address, rules), ...)


@dataclass(frozen=True)
class SymbolFile:
    module_id: str = ""
    files: tuple = ()  # ((filenum, path), ...)
    funcs: tuple = ()
    cfi_regions: tuple = ()
    publics: tuple = ()  # ((address, name), ...)

    # Address indexes for bisect lookups, built on first use.  They rely
    # on the invariant validate() enforces: funcs and cfi_regions are
    # sorted by address and do not overlap.

    @cached_property
    def func_starts(self):
        """Start address of each FUNC record, in order."""
        return tuple(f.address for f in self.funcs)

    @cached_property
    def cfi_starts(self):
        """Start address of each STACK CFI INIT region, in order."""
        return tuple(c.address for c in self.cfi_regions)


def _rule_sort_key(reg):
    """.cfa, .ra, then rN by N, then the rest; the name breaks ties, so
    the order is total (r01 before r1)."""
    if reg == ".cfa":
        return (0, 0, reg)
    if reg == ".ra":
        return (1, 0, reg)
    m = re.match(r"^r(\d+)$", reg)
    if m:
        return (2, int(m.group(1)), reg)
    return (3, 0, reg)


def _rules_text(items):
    return " ".join("%s: %s" % (reg, " ".join(map(str, expr)))
                    for reg, expr in items)


def _check_text(text, what, blank_ok=False):
    """Text that ends a record must stay on its line and survive parsing:
    no newline, no trailing carriage return and, for a name or path, at
    least one non-space character."""
    if "\n" in text or text.endswith("\r") or not (blank_ok or text.strip()):
        raise SymbolFormatError("%s %r does not fit one record line"
                                % (what, text))


def validate(sf: SymbolFile) -> None:
    """Raise SymbolFormatError if sf violates its invariants.

    Every FUNC, STACK CFI INIT and PUBLIC address, and every FUNC and
    INIT end (address + size), lies in [0, 2^32): the model is 32-bit
    ARM.  Line records and CFI deltas lie inside their FUNC and region,
    so no hex field is negative.  FUNCs, and INIT regions, each start at
    or after the end of the one before, so they are sorted and disjoint.
    Filenum existence is only checked when the file table is non-empty,
    so that excerpt-style inputs without FILE records stay parseable.
    """
    _check_text(sf.module_id, "MODULE id", blank_ok=True)
    for _, path in sf.files:
        _check_text(path, "FILE path")
    filenums = {fn for fn, _ in sf.files}
    prev_end = 0
    for f in sf.funcs:
        _check_text(f.name, "FUNC name")
        if f.size <= 0 or f.param_size < 0:
            raise SymbolFormatError("FUNC %s has size %d, param_size %d"
                                    % (f.name, f.size, f.param_size))
        _check_address("FUNC %s" % f.name, f.address, f.address + f.size)
        if f.address < prev_end:
            raise SymbolFormatError(
                "FUNC %s overlaps or precedes the previous function" % f.name)
        prev_end = f.address + f.size
        last = f.address
        end = f.address + f.size
        for addr, size, _, filenum in f.lines:
            if size <= 0:
                raise SymbolFormatError("line record with size %d" % size)
            if addr < f.address or addr + size > end:
                raise SymbolFormatError(
                    "line record %x outside FUNC %s" % (addr, f.name))
            if addr < last:
                raise SymbolFormatError(
                    "line records of FUNC %s not sorted" % f.name)
            if filenums and filenum not in filenums:
                raise SymbolFormatError(
                    "line record references unknown filenum %d" % filenum)
            last = addr
    prev_end = 0
    for c in sf.cfi_regions:
        _check_address("STACK CFI INIT", c.address, c.address + c.size)
        if c.address < prev_end:
            raise SymbolFormatError("STACK CFI INIT %x overlaps or precedes "
                                    "the previous region" % c.address)
        prev_end = c.address + c.size
        for key in (".cfa", ".ra"):
            if key not in c.init_rules:
                raise SymbolFormatError(
                    "CFI INIT %x missing %s rule" % (c.address, key))
        last = None
        for addr, rules in c.deltas:
            if not (c.address <= addr < c.address + c.size):
                raise SymbolFormatError(
                    "CFI delta %x outside region %x" % (addr, c.address))
            if last is not None and addr <= last:
                raise SymbolFormatError(
                    "CFI deltas of region %x not strictly increasing" % c.address)
            last = addr
            _check_cfa_rule(addr, rules)
        _check_cfa_rule(c.address, c.init_rules)
    last = None
    for addr, name in sf.publics:
        _check_text(name, "PUBLIC name")
        _check_address("PUBLIC %s" % name, addr, addr)
        if last is not None and addr < last:
            raise SymbolFormatError("PUBLIC records not sorted")
        last = addr


def _check_address(what, addr, end):
    if not 0 <= addr <= end < ADDRESS_LIMIT:
        raise SymbolFormatError("%s at %x, ending at %x, leaves the 32-bit "
                                "address space" % (what, addr, end))


def _check_cfa_rule(addr, rules):
    expr = rules.get(".cfa")
    if expr is not None and ".cfa" in expr:
        raise SymbolFormatError(".cfa rule at %x references .cfa" % addr)


def emit_symbol_file(sf: SymbolFile) -> str:
    """Serialize to canonical text.  parse(emit(sf)) == sf for valid sf."""
    validate(sf)
    out = [entry_text(e) for e in symbol_file_entries(sf)]
    return "\n".join(out) + "\n" if out else ""


# ---------------------------------------------------------------------------
# entries: one per canonical line

# An entry is one symbol-file line as a tuple (kind, address, fields).
# `kind` is MODULE, FILE, FUNC, LINE (a line record), PUBLIC, CFI INIT or
# CFI (a STACK CFI delta); `address` is the leading address, None for
# MODULE and FILE; `fields` are the line's other fields in order, a rule
# map as ((reg, expr), ...) in canonical order.  Two entries are equal
# exactly when their canonical lines are.


def _rule_items(rules):
    return tuple(sorted(rules.items(), key=lambda kv: _rule_sort_key(kv[0])))


def symbol_file_entries(sf: SymbolFile):
    """The entries of sf's canonical lines, in order, one at a time.  sf
    is not validated."""
    yield from header_entries(sf)
    for f in sf.funcs:
        yield from func_entries(f)
    yield from public_entries(sf)
    for c in sf.cfi_regions:
        yield from cfi_entries(c)


def header_entries(sf: SymbolFile):
    """The entries of sf's MODULE and FILE lines."""
    if sf.module_id:
        yield ("MODULE", None, (sf.module_id,))
    for fp in sf.files:
        yield ("FILE", None, fp)


def func_entries(f: FuncRecord):
    """The entries of a FUNC line and its line records."""
    yield ("FUNC", f.address, (f.size, f.param_size, f.name))
    for ln in f.lines:
        yield ("LINE", ln[0], ln[1:])


def public_entries(sf: SymbolFile):
    """The entries of sf's PUBLIC lines."""
    for addr, name in sf.publics:
        yield ("PUBLIC", addr, (name,))


def cfi_entries(c: CfiInitRecord):
    """The entries of a STACK CFI INIT line and its deltas."""
    yield ("CFI INIT", c.address, (c.size, _rule_items(c.init_rules)))
    for addr, rules in c.deltas:
        yield ("CFI", addr, (_rule_items(rules),))


# The line of each entry kind: its address, if any, then its fields.
_FORMATS = {
    "MODULE": "MODULE %s",
    "FILE": "FILE %d %s",
    "FUNC": "FUNC %x %x %x %s",
    "LINE": "%x %x %d %d",
    "PUBLIC": "PUBLIC %x %s",
    "CFI INIT": "STACK CFI INIT %x %x %s",
    "CFI": "STACK CFI %x %s",
}


def entry_text(e) -> str:
    """The canonical line of an entry of a valid symbol file."""
    kind, addr, f = e
    if kind.startswith("CFI"):
        f = f[:-1] + (_rules_text(f[-1]),)
    return _FORMATS[kind] % (f if addr is None else (addr,) + f)


def _parse_hex(tok):
    if not _HEX_RE.match(tok):
        raise ValueError("malformed hex field %r" % tok)
    return int(tok, 16)


def _parse_dec(tok):
    if not _DEC_RE.match(tok):
        raise ValueError("malformed decimal field %r" % tok)
    return int(tok, 10)


def _trailing_field(line, toks, k):
    """The text after the k-th space, which holds the k-th token: the last
    field of a record may hold spaces, so the fields before it must be
    separated by single spaces.  A missing field raises IndexError."""
    parts = line.rstrip("\r").split(" ", k)
    if parts[:k] != toks[:k] or not parts[k].strip():
        raise ValueError("fields must be separated by single spaces")
    return parts[k]


def _parse_rules(toks):
    """Parse 'reg: tok tok ... reg: tok ...' into rule items."""
    pairs = []
    for tok in toks:
        if tok.endswith(":") and len(tok) > 1:
            pairs.append((tok[:-1], []))
        elif not pairs:
            raise ValueError("expression token %r before any register" % tok)
        else:
            pairs[-1][1].append(int(tok, 10) if _DEC_RE.match(tok) else tok)
    if not pairs:
        raise ValueError("STACK CFI record without rules")
    rules = {}
    for reg, expr in pairs:
        if not expr:
            raise ValueError("empty expression for %s" % reg)
        if reg in rules:
            raise ValueError("register %s named twice" % reg)
        rules[reg] = tuple(expr)
    return _rule_items(rules)


def _entry(toks, line):
    """The entry of a line and its whitespace-separated tokens; a malformed
    line raises one of records.RECORD_FAULTS."""
    keyword = toks[0]
    if keyword == "FUNC":
        return ("FUNC", _parse_hex(toks[1]), (_parse_hex(toks[2]),
                _parse_hex(toks[3]), _trailing_field(line, toks, 4)))
    if keyword == "STACK":
        if toks[1] != "CFI":
            raise ValueError("unknown STACK record")
        if toks[2] == "INIT":
            return ("CFI INIT", _parse_hex(toks[3]),
                    (_parse_hex(toks[4]), _parse_rules(toks[5:])))
        return ("CFI", _parse_hex(toks[2]), (_parse_rules(toks[3:]),))
    if keyword == "PUBLIC":
        return ("PUBLIC", _parse_hex(toks[1]),
                (_trailing_field(line, toks, 2),))
    if keyword == "FILE":
        return ("FILE", None, (_parse_dec(toks[1]),
                               _trailing_field(line, toks, 2)))
    if keyword == "MODULE":
        return ("MODULE", None, (line.rstrip("\r").partition(" ")[2],))
    # a line record has no keyword: its first token is its address
    addr = _parse_hex(keyword)
    _, size, srcline, filenum = toks
    return ("LINE", addr, (_parse_hex(size), _parse_dec(srcline),
                           _parse_dec(filenum)))


def parse_entry(line: str) -> tuple:
    """The entry of one symbol-file line.  A blank or malformed line
    raises SymbolParseError."""
    toks = line.split()
    if not toks:
        raise SymbolParseError("blank line %r" % line)
    try:
        return _entry(toks, line)
    except RECORD_FAULTS as e:
        raise SymbolParseError("%s: %s %s" % (toks[0], type(e).__name__, e)) \
            from None


# The build state's `lines` is the open FUNC's line-record list and
# `deltas` the open CFI region's delta list; None when none is open.

def _add(st, e):
    """Add entry e to the build state.  A line record outside any FUNC,
    or a CFI delta outside any INIT region, raises ValueError."""
    kind, addr, f = e
    if kind == "LINE":
        if st.lines is None:
            raise ValueError("line record outside any FUNC")
        st.lines.append(LineRecord(addr, *f))
    elif kind == "CFI":
        if st.deltas is None:
            raise ValueError("STACK CFI delta outside any INIT region")
        st.deltas.append((addr, dict(f[0])))
    elif kind == "FUNC":
        st.lines, st.deltas = [], None
        st.funcs.append(((addr,) + f, st.lines))
    elif kind == "CFI INIT":
        st.lines, st.deltas = None, []
        st.cfi.append((addr, f[0], dict(f[1]), st.deltas))
    elif kind == "PUBLIC":
        st.lines = st.deltas = None
        st.publics.append((addr, f[0]))
    elif kind == "FILE":
        st.files.append(f)
    else:
        st.module_id = f[0]


def _new_state():
    return SimpleNamespace(module_id="", files=[], funcs=[], cfi=[],
                           publics=[], lines=None, deltas=None)


def _built(st):
    """The validated SymbolFile of a build state."""
    sf = SymbolFile(
        module_id=st.module_id, files=tuple(st.files),
        funcs=tuple(FuncRecord(*head, tuple(lines))
                    for head, lines in st.funcs),
        cfi_regions=tuple(CfiInitRecord(a, s, rules, tuple(deltas))
                          for a, s, rules, deltas in st.cfi),
        publics=tuple(st.publics))
    validate(sf)
    return sf


def symbol_file_from_entries(entries) -> SymbolFile:
    """The symbol file of a sequence of entries, read as
    parse_symbol_file reads lines.  A line record or CFI delta without
    its parent, or a result that fails validate(), raises
    SymbolFormatError."""
    st = _new_state()
    for entry in entries:
        try:
            _add(st, entry)
        except ValueError as e:
            raise SymbolFormatError(str(e)) from None
    return _built(st)


def parse_symbol_file(text: str) -> SymbolFile:
    """Parse symbol-file text.  A bad record raises SymbolParseError with
    its line number as `lineno`; a file that parses but fails validate()
    raises it with `lineno` None."""
    st = _new_state()
    read_records(text, None, {}, st, SymbolParseError,
                 lambda st, toks, line: _add(st, _entry(toks, line)))
    try:
        return _built(st)
    except SymbolFormatError as e:
        raise SymbolParseError(str(e)) from e
