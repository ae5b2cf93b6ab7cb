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
operators + - ^.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

from divsym.errors import SymbolFormatError, SymbolParseError
from divsym.records import read_records

_HEX_RE = re.compile(r"^[0-9a-fA-F]+$")
_DEC_RE = re.compile(r"^-?[0-9]+$")

# Expression tokens are register names (str) or signed integers (int).
PostfixExpr = tuple
RuleMap = dict


@dataclass(frozen=True)
class LineRecord:
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
    if reg == ".cfa":
        return (0, 0, "")
    if reg == ".ra":
        return (1, 0, "")
    m = re.match(r"^r(\d+)$", reg)
    if m:
        return (2, int(m.group(1)), "")
    return (3, 0, reg)


def _expr_text(expr):
    parts = []
    for tok in expr:
        parts.append(str(tok))
    return " ".join(parts)


def _rules_text(rules):
    parts = []
    for reg in sorted(rules, key=_rule_sort_key):
        parts.append("%s: %s" % (reg, _expr_text(rules[reg])))
    return " ".join(parts)


def _hx(v):
    if v < 0:
        raise SymbolFormatError("negative value %d in hex field" % v)
    return "%x" % v


def _check_text(text, what, blank_ok=False):
    """Text that ends a record must stay on its line and survive parsing:
    no newline, no trailing carriage return and, for a name or path, at
    least one non-space character."""
    if "\n" in text or text.endswith("\r") or not (blank_ok or text.strip()):
        raise SymbolFormatError("%s %r does not fit one record line"
                                % (what, text))


def validate(sf: SymbolFile) -> None:
    """Raise SymbolFormatError if sf violates its invariants.

    Filenum existence is only checked when the file table is non-empty,
    so that excerpt-style inputs without FILE records stay parseable.
    """
    _check_text(sf.module_id, "MODULE id", blank_ok=True)
    for _, path in sf.files:
        _check_text(path, "FILE path")
    filenums = {fn for fn, _ in sf.files}
    prev_end = None
    prev_addr = None
    for f in sf.funcs:
        _check_text(f.name, "FUNC name")
        if f.size <= 0:
            raise SymbolFormatError("FUNC %s has size %d" % (f.name, f.size))
        if prev_addr is not None and f.address < prev_addr:
            raise SymbolFormatError("FUNC records not sorted by address")
        if prev_end is not None and f.address < prev_end:
            raise SymbolFormatError(
                "FUNC %s overlaps previous function" % f.name)
        prev_addr = f.address
        prev_end = f.address + f.size
        last = None
        for ln in f.lines:
            if ln.size <= 0:
                raise SymbolFormatError("line record with size %d" % ln.size)
            if ln.address < f.address or ln.address + ln.size > f.address + f.size:
                raise SymbolFormatError(
                    "line record %x outside FUNC %s" % (ln.address, f.name))
            if last is not None and ln.address < last:
                raise SymbolFormatError(
                    "line records of FUNC %s not sorted" % f.name)
            if filenums and ln.filenum not in filenums:
                raise SymbolFormatError(
                    "line record references unknown filenum %d" % ln.filenum)
            last = ln.address
    prev_end = None
    prev_addr = None
    for c in sf.cfi_regions:
        if prev_addr is not None and c.address < prev_addr:
            raise SymbolFormatError("STACK CFI INIT records not sorted")
        if prev_end is not None and c.address < prev_end:
            raise SymbolFormatError(
                "STACK CFI INIT %x overlaps previous region" % c.address)
        prev_addr = c.address
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
        if last is not None and addr < last:
            raise SymbolFormatError("PUBLIC records not sorted")
        last = addr


def _check_cfa_rule(addr, rules):
    expr = rules.get(".cfa")
    if expr is not None and ".cfa" in expr:
        raise SymbolFormatError(".cfa rule at %x references .cfa" % addr)


def emit_symbol_file(sf: SymbolFile) -> str:
    """Serialize to canonical text.  parse(emit(sf)) == sf for valid sf."""
    validate(sf)
    out = []
    if sf.module_id:
        out.append("MODULE %s" % sf.module_id)
    for filenum, path in sf.files:
        out.append("FILE %d %s" % (filenum, path))
    for f in sf.funcs:
        out.append("FUNC %s %s %s %s"
                   % (_hx(f.address), _hx(f.size), _hx(f.param_size), f.name))
        for ln in f.lines:
            out.append("%s %s %d %d" % (_hx(ln.address), _hx(ln.size),
                                        ln.line, ln.filenum))
    for addr, name in sf.publics:
        out.append("PUBLIC %s %s" % (_hx(addr), name))
    for c in sf.cfi_regions:
        out.append("STACK CFI INIT %s %s %s"
                   % (_hx(c.address), _hx(c.size), _rules_text(c.init_rules)))
        for addr, rules in c.deltas:
            out.append("STACK CFI %s %s" % (_hx(addr), _rules_text(rules)))
    if not out:
        return ""
    return "\n".join(out) + "\n"


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
    """Parse 'reg: tok tok ... reg: tok ...' into a RuleMap."""
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
    for reg, expr in pairs:
        if not expr:
            raise ValueError("empty expression for %s" % reg)
    return {reg: tuple(expr) for reg, expr in pairs}


# The parse state's `lines` is the open FUNC's line-record list and
# `deltas` the open CFI region's delta list; None when none is open.

def _sym_module(st, toks, line):
    st.module_id = line.rstrip("\r").partition(" ")[2]


def _sym_func(st, toks, line):
    st.lines = []
    st.deltas = None
    st.funcs.append((_parse_hex(toks[1]), _parse_hex(toks[2]),
                     _parse_hex(toks[3]), _trailing_field(line, toks, 4),
                     st.lines))


def _sym_public(st, toks, line):
    st.lines = st.deltas = None
    st.publics.append((_parse_hex(toks[1]), _trailing_field(line, toks, 2)))


def _sym_stack(st, toks, line):
    st.lines = None
    if toks[1] != "CFI":
        raise ValueError("unknown STACK record")
    if toks[2] == "INIT":
        st.deltas = []
        st.cfi.append((_parse_hex(toks[3]), _parse_hex(toks[4]),
                       _parse_rules(toks[5:]), st.deltas))
    elif st.deltas is None:
        raise ValueError("STACK CFI delta outside any INIT region")
    else:
        st.deltas.append((_parse_hex(toks[2]), _parse_rules(toks[3:])))


def _sym_line(st, toks, line):
    """A line record has no keyword: its first token is its address."""
    addr = _parse_hex(toks[0])
    if st.lines is None:
        raise ValueError("line record outside any FUNC")
    _, size, srcline, filenum = toks
    st.lines.append(LineRecord(addr, _parse_hex(size), _parse_dec(srcline),
                               _parse_dec(filenum)))


_SYMBOL_RECORDS = {
    "MODULE": _sym_module,
    "FILE": lambda st, toks, line: st.files.append(
        (_parse_dec(toks[1]), _trailing_field(line, toks, 2))),
    "FUNC": _sym_func,
    "PUBLIC": _sym_public,
    "STACK": _sym_stack,
}


def parse_symbol_file(text: str) -> SymbolFile:
    """Parse symbol-file text.  A bad record raises SymbolParseError with
    its line number as `lineno`; a file that parses but fails validate()
    raises it with `lineno` None."""
    st = SimpleNamespace(module_id="", files=[], funcs=[], cfi=[], publics=[],
                         lines=None, deltas=None)
    read_records(text, None, _SYMBOL_RECORDS, st, SymbolParseError, _sym_line)
    sf = SymbolFile(
        module_id=st.module_id, files=tuple(st.files),
        funcs=tuple(FuncRecord(a, s, p, n, tuple(lines))
                    for a, s, p, n, lines in st.funcs),
        cfi_regions=tuple(CfiInitRecord(a, s, rules, tuple(deltas))
                          for a, s, rules, deltas in st.cfi),
        publics=tuple(st.publics))
    try:
        validate(sf)
    except SymbolFormatError as e:
        raise SymbolParseError(str(e)) from e
    return sf
