"""The shared line-record reader and the text formats that use it.

Every text the crash server reads either parses or raises a DivsymError:
the property tests below mutate real emitted texts one line at a time
(drop, duplicate, truncate, replace a token), and a delta body one byte
at a time (flip, drop, insert, cut), and feed them to each parser.
"""

import functools
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from divsym import cfi, deltadata, image, records
from divsym.collector import (MAX_STACK_BYTES, emit_minidump, parse_minidump,
                              simulate_crash)
from divsym.diversify import (SeedTuple, build_default, build_diversified,
                              emit_opportunity_log, parse_opportunity_log)
from divsym.errors import (DeltaFormatError, DivsymError, HarnessError,
                           ModelError, SymbolParseError)
from divsym.progmodel import (BuildOptions, emit_model, generate_corpus,
                              parse_model)
from divsym.replicate import replicate
from divsym.symfile import emit_symbol_file, parse_symbol_file
from hostile import mutate, mutate_container
from modeltools import sample_call_chains

SEEDS = SeedTuple(0x51, 0x52, 0x53)
# Desync on, so the patch carries the growth of desynced blocks too.
OPTS = BuildOptions(desync_num=1, desync_den=4)


@functools.cache
def emitted(seed, size_class):
    """Every text format divsym reads back, emitted for one program:
    model, opportunity log, image (bytes), a minidump, a delta payload's
    patch and the default and diversified symbol files."""
    model = generate_corpus(seed, 1, size_class)[0]
    dres, log = build_default(model, OPTS)
    truth, dec = build_diversified(model, SEEDS, OPTS)
    blob = image.write_image(truth, dec, model.module_name)
    chain = max(sample_call_chains(model, 20, seed), key=len)
    dump = simulate_crash(image.read_image(blob), model, chain)
    patch = deltadata.diff(replicate(dres.symfile, log, SEEDS, OPTS),
                           truth.symfile)
    return dict(model=emit_model(model), opplog=emit_opportunity_log(log),
                image=blob, dump=emit_minidump(dump), patch=patch,
                default_sym=emit_symbol_file(dres.symfile),
                div_sym=emit_symbol_file(truth.symfile))


def fuzz_texts():
    return emitted(9, "small")     # 9 functions, about 650 model lines


def parses_or_raises(parse, text):
    try:
        parse(text)
    except DivsymError:
        pass


# ---------------------------------------------------------------------------
# the reader


_TEST_RECORDS = {"A": lambda seen, toks, line: seen.append(int(toks[1])),
                 "B": lambda seen, toks, line: seen[-1]}


def _collect(text, header="TEST v1"):
    seen = []
    return records.read_records(text, header, _TEST_RECORDS, seen,
                                ModelError), seen


def test_reader_header_blank_lines_and_dispatch():
    assert _collect("\n  \nTEST v1 my module\nA 1\n\n A 2 \n") == \
        ("my module", [1, 2])
    assert _collect("TEST v1") == ("", [])
    assert _collect("A 3\n", header=None) == ("", [3])


@pytest.mark.parametrize("text,message", [
    ("", "line 1: missing TEST v1 header"),
    ("\n\nTEST v2 m\n", "line 3: missing TEST v1 header"),
    ("TEST v1x\n", "line 1: missing TEST v1 header"),
    ("TEST v1 m\nA 1\n\nC 2\n", "line 4: unknown record 'C'"),
    ("TEST v1 m\nA 1\nA x\n", "line 3: A: ValueError"),
    ("TEST v1 m\nA\n", "line 2: A: IndexError"),
    ("TEST v1 m\n\nB\n", "line 3: B: IndexError"),   # child before parent
])
def test_reader_typed_line_numbered_errors(text, message):
    with pytest.raises(ModelError, match="^" + re.escape(message)):
        _collect(text)


def test_fields_runs_each_value_to_the_next_key():
    assert records.fields("F 3 a=1 b=x y c=last one", "a", "b", "c") == \
        ["1", "x y", "last one"]
    with pytest.raises(KeyError):
        records.fields("F a=1 c=2", "a", "b", "c")


# ---------------------------------------------------------------------------
# every mutated text parses or raises a DivsymError


@given(st.data())
def test_mutated_model_parses_or_raises(data):
    parses_or_raises(parse_model, mutate(data, fuzz_texts()["model"]))


@given(st.data())
def test_mutated_opportunity_log_parses_or_raises(data):
    parses_or_raises(parse_opportunity_log,
                     mutate(data, fuzz_texts()["opplog"]))


@given(st.sampled_from(("meta", "crash")), st.data())
def test_mutated_image_sections_parse_or_raise(section, data):
    sections = dict(image.iter_sections(fuzz_texts()["image"]))
    sections[section] = mutate(data, sections[section].decode()).encode()
    parses_or_raises(image.read_image,
                     image.pack_sections(list(sections.items())))


@given(st.data())
def test_mutated_minidump_parses_or_raises(data):
    parses_or_raises(parse_minidump, mutate(data, fuzz_texts()["dump"]))


@given(st.sampled_from(("default_sym", "div_sym")), st.data())
def test_mutated_symbol_file_parses_or_raises(which, data):
    try:
        parse_symbol_file(mutate(data, fuzz_texts()[which]))
    except SymbolParseError:
        pass


@given(st.data())
def test_mutated_delta_payload_parses_or_raises(data):
    patch = fuzz_texts()["patch"]
    assert patch.growth    # so mutations reach the growth records too
    # and ops of every kind, so they reach each number and the text
    patch = replace(patch, ops=patch.ops + (
        deltadata.PatchOp("S", 3, delta=-8), deltadata.PatchOp("D", 2),
        deltadata.PatchOp("R", 1, lines=("FUNC 10 8 0 f",)),
        deltadata.PatchOp("I", lines=("10 8 1 1",))))
    blob = deltadata.pack(deltadata.DeltaData(seeds=SEEDS, patch=patch))
    parses_or_raises(deltadata.unpack, mutate_container(data, blob))


# ---------------------------------------------------------------------------
# specific malformed inputs


def test_model_child_record_before_any_parent():
    with pytest.raises(ModelError, match="^line 2: SPAN: IndexError"):
        parse_model("MODEL v1 m\nSPAN 1 1 4\n")
    with pytest.raises(ModelError, match="^line 3: CONST: IndexError"):
        parse_model("MODEL v1 m\nFUNCTION align=4 fp=0 param=0 object=o "
                    "section=s name=f\nCONST 5\n")


_LOG_FUNCTION = re.compile(
    r"^FUNCTION align=\d+ local=\d+ saved=\d+ fp=\d", re.M)


def _log_with_function_fields(fields):
    """The fuzz program's opportunity log with its first FUNCTION
    record's numeric fields replaced, and that record's line number."""
    text = fuzz_texts()["opplog"]
    m = _LOG_FUNCTION.search(text)
    head = "FUNCTION align=%d local=%d saved=%d fp=%d" % fields
    return (text[:m.start()] + head + text[m.end():],
            text.count("\n", 0, m.start()) + 1)


@pytest.mark.parametrize("fields", [
    (0, 16, 2, 0), (-4, 16, 2, 0), (32, 16, 2, 0),     # align
    (4, -4, 2, 0), (4, 6, 2, 0),                       # local
    (4, 16, -1, 0), (4, 16, 10, 0), (4, 16, 99, 0),    # saved
    (4, 16, 2, 2), (4, 16, 1, 1), (4, 16, 0, 1),       # fp
])
def test_opportunity_log_function_fields_out_of_range(fields):
    # the ranges validate_model holds a model's functions to
    text, lineno = _log_with_function_fields(fields)
    with pytest.raises(ModelError,
                       match=r"^line %d: FUNCTION: ValueError " % lineno):
        parse_opportunity_log(text)


@pytest.mark.parametrize("fields", [
    (4, 0, 0, 0), (8, 4, 9, 0), (16, 16, 2, 1)])
def test_opportunity_log_function_fields_at_their_bounds(fields):
    text, _ = _log_with_function_fields(fields)
    f = parse_opportunity_log(text).functions[0]
    assert (f.alignment, f.local_size, f.saved_count, f.has_fp) == \
        (*fields[:3], bool(fields[3]))


def test_opportunity_log_function_without_identifier():
    text = fuzz_texts()["opplog"]
    start = text.index(" id=") + len(" id=")
    end = text.index("\n", start)
    lineno = text.count("\n", 0, start) + 1
    with pytest.raises(ModelError, match=r"^line %d: FUNCTION: ValueError"
                       r".*empty function identifier" % lineno):
        parse_opportunity_log(text[:start] + text[end:])


def test_image_bad_section_bytes_are_typed():
    blob = fuzz_texts()["image"]
    sections = dict(image.iter_sections(blob))
    sections["meta"] = b"IMAGE v1 \xff\n"
    with pytest.raises(DeltaFormatError, match="meta section"):
        image.read_image(image.pack_sections(list(sections.items())))
    with pytest.raises(DeltaFormatError, match="version"):
        image.read_image(image.MAGIC)
    renamed = image.pack_sections([("mXta", b"")]).replace(b"X", b"\xff")
    with pytest.raises(DeltaFormatError, match="no meta section"):
        image.read_image(renamed)
    # cut inside the first section's length field, and inside the last
    # section's payload
    with pytest.raises(DeltaFormatError, match="truncated image section header"):
        image.read_image(blob[:len(image.MAGIC) + 1 + 1 + len("meta") + 2])
    with pytest.raises(DeltaFormatError, match="truncated image section text"):
        image.read_image(blob[:-1])


def _stack_dump(n_bytes):
    dump = parse_minidump(fuzz_texts()["dump"])
    big = replace(dump, stack=cfi.StackSnapshot(dump.stack.base_address,
                                                bytes(n_bytes)))
    return emit_minidump(big)


def test_minidump_stack_limit():
    assert len(parse_minidump(_stack_dump(MAX_STACK_BYTES)).stack.data) == \
        MAX_STACK_BYTES
    with pytest.raises(HarnessError,
                       match=r"^line 17: stackdata: ValueError stack data over"):
        parse_minidump(_stack_dump(MAX_STACK_BYTES + 1))


# ---------------------------------------------------------------------------
# emit -> parse -> emit is the identity


@pytest.mark.parametrize("seed,size_class", [(9, "small"), (5, "medium")])
def test_emit_parse_emit_identity(seed, size_class):
    t = emitted(seed, size_class)
    assert emit_model(parse_model(t["model"])) == t["model"]
    assert emit_opportunity_log(parse_opportunity_log(t["opplog"])) == \
        t["opplog"]
    assert image.pack_image(image.read_image(t["image"])) == t["image"]
    assert emit_minidump(parse_minidump(t["dump"])) == t["dump"]
    for k in ("default_sym", "div_sym"):
        assert emit_symbol_file(parse_symbol_file(t[k])) == t[k]
