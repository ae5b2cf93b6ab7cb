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

from divsym.errors import SymbolFormatError, SymbolParseError

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


def validate(sf: SymbolFile) -> None:
    """Raise SymbolFormatError if sf violates its invariants.

    Filenum existence is only checked when the file table is non-empty,
    so that excerpt-style inputs without FILE records stay parseable.
    """
    filenums = {fn for fn, _ in sf.files}
    prev_end = None
    prev_addr = None
    for f in sf.funcs:
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
    for addr, _name in sf.publics:
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


def _parse_hex(tok, lineno, what):
    if not _HEX_RE.match(tok):
        raise SymbolParseError(lineno, "malformed hex field %r in %s" % (tok, what))
    return int(tok, 16)


def _parse_dec(tok, lineno, what):
    if not _DEC_RE.match(tok):
        raise SymbolParseError(lineno, "malformed decimal field %r in %s" % (tok, what))
    return int(tok, 10)


def _parse_rules(toks, lineno):
    """Parse 'reg: tok tok ... reg: tok ...' into a RuleMap."""
    rules = {}
    reg = None
    expr = []
    for tok in toks:
        if tok.endswith(":") and len(tok) > 1:
            if reg is not None:
                if not expr:
                    raise SymbolParseError(lineno, "empty expression for %s" % reg)
                rules[reg] = tuple(expr)
            reg = tok[:-1]
            expr = []
        else:
            if reg is None:
                raise SymbolParseError(lineno, "expression token %r before any register" % tok)
            if _DEC_RE.match(tok):
                expr.append(int(tok, 10))
            else:
                expr.append(tok)
    if reg is None:
        raise SymbolParseError(lineno, "STACK CFI record without rules")
    if not expr:
        raise SymbolParseError(lineno, "empty expression for %s" % reg)
    rules[reg] = tuple(expr)
    return rules


def parse_symbol_file(text: str) -> SymbolFile:
    """Parse symbol-file text; raises SymbolParseError with a line number."""
    module_id = ""
    files = []
    funcs = []
    cfi = []
    publics = []
    cur_func = None   # [address, size, param_size, name, [lines]]
    cur_cfi = None    # [address, size, init_rules, [deltas]]

    def close_func():
        nonlocal cur_func
        if cur_func is not None:
            a, s, p, n, lines = cur_func
            funcs.append(FuncRecord(a, s, p, n, tuple(lines)))
            cur_func = None

    def close_cfi():
        nonlocal cur_cfi
        if cur_cfi is not None:
            a, s, init, deltas = cur_cfi
            cfi.append(CfiInitRecord(a, s, init, tuple(deltas)))
            cur_cfi = None

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        toks = line.split()
        kw = toks[0]
        if kw == "MODULE":
            module_id = line.split(" ", 1)[1] if " " in line else ""
        elif kw == "FILE":
            if len(toks) < 3:
                raise SymbolParseError(lineno, "FILE needs a number and a path")
            num = _parse_dec(toks[1], lineno, "FILE")
            path = line.split(" ", 2)[2]
            files.append((num, path))
        elif kw == "FUNC":
            close_func()
            close_cfi()
            if len(toks) < 5:
                raise SymbolParseError(lineno, "FUNC needs address size param_size name")
            addr = _parse_hex(toks[1], lineno, "FUNC")
            size = _parse_hex(toks[2], lineno, "FUNC")
            param = _parse_hex(toks[3], lineno, "FUNC")
            name = line.split(" ", 4)[4]
            cur_func = [addr, size, param, name, []]
        elif kw == "PUBLIC":
            close_func()
            close_cfi()
            if len(toks) < 3:
                raise SymbolParseError(lineno, "PUBLIC needs an address and a name")
            addr = _parse_hex(toks[1], lineno, "PUBLIC")
            publics.append((addr, line.split(" ", 2)[2]))
        elif kw == "STACK":
            close_func()
            if len(toks) < 2 or toks[1] != "CFI":
                raise SymbolParseError(lineno, "unknown STACK record %r" % line)
            if len(toks) >= 3 and toks[2] == "INIT":
                close_cfi()
                if len(toks) < 6:
                    raise SymbolParseError(lineno, "STACK CFI INIT needs address size rules")
                addr = _parse_hex(toks[3], lineno, "STACK CFI INIT")
                size = _parse_hex(toks[4], lineno, "STACK CFI INIT")
                rules = _parse_rules(toks[5:], lineno)
                cur_cfi = [addr, size, rules, []]
            else:
                if cur_cfi is None:
                    raise SymbolParseError(lineno, "STACK CFI delta outside any INIT region")
                if len(toks) < 4:
                    raise SymbolParseError(lineno, "STACK CFI needs address and rules")
                addr = _parse_hex(toks[2], lineno, "STACK CFI")
                rules = _parse_rules(toks[3:], lineno)
                cur_cfi[3].append((addr, rules))
        elif _HEX_RE.match(kw):
            if cur_func is None:
                raise SymbolParseError(lineno, "line record outside any FUNC")
            if len(toks) != 4:
                raise SymbolParseError(lineno, "line record needs address size line filenum")
            addr = _parse_hex(toks[0], lineno, "line record")
            size = _parse_hex(toks[1], lineno, "line record")
            srcline = _parse_dec(toks[2], lineno, "line record")
            filenum = _parse_dec(toks[3], lineno, "line record")
            cur_func[4].append(LineRecord(addr, size, srcline, filenum))
        else:
            raise SymbolParseError(lineno, "unknown record keyword %r" % kw)
    close_func()
    close_cfi()
    sf = SymbolFile(module_id=module_id, files=tuple(files), funcs=tuple(funcs),
                    cfi_regions=tuple(cfi), publics=tuple(publics))
    try:
        validate(sf)
    except SymbolFormatError as e:
        raise SymbolParseError(0, str(e)) from e
    return sf
