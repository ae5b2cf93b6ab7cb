import itertools

import pytest

from divsym.errors import SymbolFormatError, SymbolParseError
from divsym.symfile import (CfiInitRecord, FuncRecord, LineRecord, SymbolFile,
                            emit_symbol_file, entry_text, parse_entry,
                            parse_symbol_file, symbol_file_entries,
                            symbol_file_from_entries)
from sfgen import random_symbol_file

LINE_EXCERPT = ("FUNC 157c 34 0 google_breakpad::LineReader::PopLine\n"
                "157c 4 113 4\n"
                "1580 30 116 4\n")

CFI_EXCERPT = ("STACK CFI INIT 1bdc f0 .cfa: sp 0 + .ra: lr\n"
               "STACK CFI 1be0 .cfa: sp 8 + .ra: .cfa -4 + ^ r11: .cfa -8 + ^\n"
               "STACK CFI 1be4 .cfa: r11 4 +\n")


def test_parse_func_excerpt():
    sf = parse_symbol_file(LINE_EXCERPT)
    assert len(sf.funcs) == 1
    f = sf.funcs[0]
    assert f.address == 0x157C
    assert f.size == 0x34
    assert f.param_size == 0
    assert f.name == "google_breakpad::LineReader::PopLine"
    assert len(f.lines) == 2
    assert f.lines[0] == LineRecord(0x157C, 4, 113, 4)
    assert f.lines[1] == LineRecord(0x1580, 0x30, 116, 4)


def test_func_excerpt_round_trip():
    assert emit_symbol_file(parse_symbol_file(LINE_EXCERPT)) == LINE_EXCERPT


def test_parse_cfi_excerpt():
    sf = parse_symbol_file(CFI_EXCERPT)
    assert len(sf.cfi_regions) == 1
    c = sf.cfi_regions[0]
    assert c.address == 0x1BDC
    assert c.size == 0xF0
    assert c.init_rules == {".cfa": ("sp", 0, "+"), ".ra": ("lr",)}
    assert c.deltas[0][0] == 0x1BE0
    assert c.deltas[0][1][".ra"] == (".cfa", -4, "+", "^")
    assert c.deltas[1] == (0x1BE4, {".cfa": ("r11", 4, "+")})


def test_cfi_excerpt_round_trip():
    assert emit_symbol_file(parse_symbol_file(CFI_EXCERPT)) == CFI_EXCERPT


def test_empty_input():
    sf = parse_symbol_file("")
    assert sf == SymbolFile()
    assert emit_symbol_file(sf) == ""


def test_module_and_file_with_spaces():
    text = ("MODULE Linux arm ABCD1234 my program\n"
            "FILE 1 /home/user/dir with spaces/main.c\n"
            "FUNC 10 8 0 fn with spaces\n"
            "10 8 7 1\n")
    sf = parse_symbol_file(text)
    assert sf.module_id == "Linux arm ABCD1234 my program"
    assert sf.files == ((1, "/home/user/dir with spaces/main.c"),)
    assert sf.funcs[0].name == "fn with spaces"
    assert emit_symbol_file(sf) == text


def test_malformed_hex_reports_line():
    with pytest.raises(SymbolParseError) as ei:
        parse_symbol_file("FUNC 157c xyz 0 foo\n")
    assert ei.value.lineno == 1
    assert "hex" in str(ei.value)


def test_line_record_outside_func():
    with pytest.raises(SymbolParseError) as ei:
        parse_symbol_file("MODULE m\n157c 4 113 4\n")
    assert ei.value.lineno == 2


def test_validate_failure_has_no_line_number():
    with pytest.raises(SymbolParseError, match="^FUNC b overlaps") as ei:
        parse_symbol_file("FUNC 10 20 0 a\nFUNC 18 8 0 b\n")
    assert ei.value.lineno is None


@pytest.mark.parametrize("text,lineno", [
    ("FUNC 10 8\n", 1),                       # missing fields
    ("FUNC 10 8 0 \n", 1),                    # blank name
    ("MODULE m\nSTACK CFI 10 .cfa: sp\n", 2),  # delta before any INIT
    ("FUNC 10 8 0 f\n10 8 1 1 9\n", 2),        # extra line-record field
    ("FUNC 10 8 0 f\r\n10 8 1 x\r\n", 2),
])
def test_bad_record_reports_line(text, lineno):
    with pytest.raises(SymbolParseError, match="^line %d: " % lineno) as ei:
        parse_symbol_file(text)
    assert ei.value.lineno == lineno


@pytest.mark.parametrize("text", [
    "FUNC 100000000 4 0 f\n",
    "FUNC fffffffc 4 0 f\n",                  # ends at 2^32
    "PUBLIC 100000000 p\n",
    "STACK CFI INIT fffffff0 10 .cfa: sp .ra: lr\n",
])
def test_address_or_end_past_32_bits_refused(text):
    with pytest.raises(SymbolParseError, match="32-bit address space") as ei:
        parse_symbol_file(text)
    assert ei.value.lineno is None
    # a function that ends just below 2^32 is accepted
    assert parse_symbol_file("FUNC fffffffb 4 0 f\n").funcs[0].size == 4


def test_crlf_input_parses():
    crlf = LINE_EXCERPT.replace("\n", "\r\n")
    assert parse_symbol_file(crlf) == parse_symbol_file(LINE_EXCERPT)


def test_unknown_keyword():
    with pytest.raises(SymbolParseError):
        parse_symbol_file("BOGUS 12 34\n")


def test_overlapping_funcs_rejected():
    text = "FUNC 10 20 0 a\n10 20 1 1\nFUNC 18 8 0 b\n18 8 2 1\n"
    with pytest.raises(SymbolParseError):
        parse_symbol_file(text)


def test_emit_rejects_invariant_violation():
    bad = SymbolFile(funcs=(FuncRecord(0, 0, 0, "zero"),))
    with pytest.raises(SymbolFormatError):
        emit_symbol_file(bad)


def test_unknown_register_preserved():
    text = "STACK CFI INIT 0 10 .cfa: sp 0 + .ra: lr x29: .cfa -16 + ^\n"
    sf = parse_symbol_file(text)
    assert sf.cfi_regions[0].init_rules["x29"] == (".cfa", -16, "+", "^")
    assert emit_symbol_file(sf) == text


@pytest.mark.parametrize("rules", [
    ".cfa: sp 0 + .ra: lr r4: sp r4: lr",
    ".cfa: sp 0 + .cfa: sp 4 + .ra: lr",
    ".cfa: sp 0 + .ra: lr x29: sp x29: sp",
])
def test_register_named_twice_in_one_record_is_refused(rules):
    for line in ("STACK CFI INIT 0 10 " + rules, "STACK CFI 4 " + rules):
        with pytest.raises(SymbolParseError, match="named twice"):
            parse_entry(line)
    with pytest.raises(SymbolParseError, match="^line 1: .*named twice"):
        parse_symbol_file("STACK CFI INIT 0 10 %s\n" % rules)


def test_emitted_rule_order_does_not_depend_on_insertion_order():
    # r1 and r01 share a register number; the name breaks the tie
    rules = {".cfa": ("sp", 0, "+"), ".ra": ("lr",), "r1": ("sp",),
             "r01": ("lr",), "x29": ("sp",), "r10": ("sp",)}
    texts = set()
    for order in itertools.permutations(rules):
        sf = SymbolFile(cfi_regions=(CfiInitRecord(
            0, 16, {reg: rules[reg] for reg in order},
            ((4, {reg: rules[reg] for reg in reversed(order)}),)),))
        texts.add(emit_symbol_file(sf))
    assert texts == {
        "STACK CFI INIT 0 10 .cfa: sp 0 + .ra: lr r01: lr r1: sp r10: sp "
        "x29: sp\nSTACK CFI 4 .cfa: sp 0 + .ra: lr r01: lr r1: sp r10: sp "
        "x29: sp\n"}


def test_random_round_trips():
    for seed in range(60):
        sf = random_symbol_file(seed)
        text = emit_symbol_file(sf)
        assert parse_symbol_file(text) == sf, "seed %d" % seed
        assert emit_symbol_file(parse_symbol_file(text)) == text
        # one entry per canonical line, in both directions
        entries = list(symbol_file_entries(sf))
        assert "".join(entry_text(e) + "\n" for e in entries) == text
        assert [parse_entry(ln) for ln in text.splitlines()] == entries
        assert symbol_file_from_entries(entries) == sf


def test_emit_parse_idempotent_on_excerpts():
    for text in (LINE_EXCERPT, CFI_EXCERPT, LINE_EXCERPT + CFI_EXCERPT):
        sf = parse_symbol_file(text)
        assert emit_symbol_file(parse_symbol_file(emit_symbol_file(sf))) == emit_symbol_file(sf)


@pytest.mark.parametrize("text,lineno", [
    ("FILE 1\tsrc/a.c\n", 1),
    ("FILE 1 src/a.c\nFUNC ffff0 4 0\tx\nffff0 4 1 1\n", 2),
    ("FUNC 10 8 0 f\n10 8 1 1\nPUBLIC 30\tq\n", 3),
    # a second or a leading space would let the name swallow a field
    ("FUNC  10 8 0 x\n10 8 1 1\n", 1),
    ("FILE  1 a.c\n", 1),
    ("FUNC 10 8 0 f\n10 8 1 1\nPUBLIC  20 y\n", 3),
    (" FUNC 10 8 0 x\n10 8 1 1\n", 1),
])
def test_tab_before_trailing_field_reports_line(text, lineno):
    with pytest.raises(SymbolParseError, match="single spaces") as ei:
        parse_symbol_file(text)
    assert ei.value.lineno == lineno


def _with_text(record, text):
    if record == "FILE":
        return SymbolFile(files=((1, text),))
    if record == "FUNC":
        return SymbolFile(funcs=(FuncRecord(0x10, 8, 0, text,
                                            (LineRecord(0x10, 8, 1, 1),)),))
    return SymbolFile(publics=((0x20, text),))


@pytest.mark.parametrize("record", ["FILE", "FUNC", "PUBLIC"])
@pytest.mark.parametrize("text", [
    "x", " x", "x ", "0 x", "a  b", "a\tb", "a\rb", "\rx", "x\r ",
])
def test_trailing_text_round_trips(record, text):
    sf = _with_text(record, text)
    assert parse_symbol_file(emit_symbol_file(sf)) == sf


@pytest.mark.parametrize("record", ["FILE", "FUNC", "PUBLIC"])
@pytest.mark.parametrize("text", ["a\nb", "x\n", "x\r", "\r", "", " ", "\t"])
def test_trailing_text_that_cannot_round_trip_is_refused(record, text):
    with pytest.raises(SymbolFormatError, match="one record line"):
        emit_symbol_file(_with_text(record, text))


def test_module_id_with_a_line_break_is_refused():
    for module_id in ("a\nb", "a\r"):
        with pytest.raises(SymbolFormatError, match="one record line"):
            emit_symbol_file(SymbolFile(module_id=module_id))
    assert parse_symbol_file(emit_symbol_file(SymbolFile(module_id="a b"))) \
        == SymbolFile(module_id="a b")
