import re
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from divsym import deltadata, image
from divsym.cli import main
from divsym.collector import MAX_STACK_BYTES
from divsym.diversify import parse_opportunity_log
from divsym.progmodel import parse_model
from divsym.replicate import replicate
from divsym.symfile import parse_symbol_file
from hostile import (HEADER_FAULTS, PATCH_FAULTS, _plain_container,
                     bad_nop_container, edited_container, growth_faults,
                     inflation_bomb, mutate, op_faults)
from modeltools import sample_call_chains


def run(*argv):
    return main(list(argv))


def _build_and_crash(tmp_path, n_dumps, *diversify_flags):
    """Default build, one diversified build (with diversify_flags), its
    delta and n_dumps crashes of it; returns the report arguments shared
    by every dump, and the dump paths."""
    corpus = tmp_path / "corpus"
    run("gen", "--seed", "17", "--n", "1", "--out", str(corpus))
    model_path = next(corpus.glob("*.model"))
    model = parse_model(model_path.read_text())
    dflt = tmp_path / "default"
    div = tmp_path / "div"
    run("build", "--model", str(model_path), "--out", str(dflt))
    run("diversify", "--model", str(model_path), "--seeds", "1,2,3",
        "--out", str(div), *diversify_flags)
    delta = tmp_path / "delta.dbpd"
    run("delta", "--default-sym", str(dflt / "default.sym"),
        "--opplog", str(dflt / "opportunity.log"),
        "--div-sym", str(div / "diversified.sym"),
        "--seeds", "1,2,3", "--out", str(delta))
    dumps = []
    for k, chain in enumerate(sample_call_chains(model, n_dumps, 4)):
        dump = tmp_path / ("dump%d.mdl" % k)
        run("crash", "--image", str(div / "diversified.img"),
            "--model", str(model_path),
            "--chain", ",".join("%s:%d:%d" % c for c in chain),
            "--out", str(dump))
        dumps.append(str(dump))
    common = ["--delta", str(delta),
              "--default-sym", str(dflt / "default.sym"),
              "--opplog", str(dflt / "opportunity.log")]
    return common, dumps


def test_full_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run("gen", "--seed", "0x7", "--n", "2", "--class", "small",
               "--out", str(corpus)) == 0
    models = sorted(corpus.glob("*.model"))
    assert len(models) == 2
    model_path = models[0]
    model = parse_model(model_path.read_text())

    dflt = tmp_path / "default"
    assert run("build", "--model", str(model_path), "--out", str(dflt)) == 0
    assert (dflt / "default.img").exists()
    assert (dflt / "default.sym").exists()
    assert (dflt / "opportunity.log").exists()

    div = tmp_path / "div"
    assert run("diversify", "--model", str(model_path),
               "--seeds", "0x11,0x22,0x33", "--out", str(div)) == 0

    delta = tmp_path / "delta.dbpd"
    assert run("delta", "--default-sym", str(dflt / "default.sym"),
               "--opplog", str(dflt / "opportunity.log"),
               "--div-sym", str(div / "diversified.sym"),
               "--seeds", "0x11,0x22,0x33", "--out", str(delta)) == 0
    assert delta.read_bytes()[:4] == b"DBPD"
    patch = deltadata.unpack(delta.read_bytes()).patch
    assert capsys.readouterr().out.endswith(
        "(%d bytes, patch payload %d, %d growth records)\n"
        % (delta.stat().st_size, patch.payload_bytes, len(patch.growth)))

    chain = sample_call_chains(model, 4, 3)[0]
    chain_arg = ",".join("%s:%d:%d" % c for c in chain)
    dump = tmp_path / "dump.mdl"
    assert run("crash", "--image", str(div / "diversified.img"),
               "--model", str(model_path), "--chain", chain_arg,
               "--out", str(dump)) == 0
    capsys.readouterr()

    assert run("report", "--dump", str(dump), "--delta", str(delta),
               "--default-sym", str(dflt / "default.sym"),
               "--opplog", str(dflt / "opportunity.log")) == 0
    out = capsys.readouterr().out
    assert out.startswith("Crash reason: SIGSEGV")
    assert chain[-1][0] in out
    assert "(stack end: end_of_stack)" in out


def test_keyed_delta_and_auth_exit_code(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run("gen", "--seed", "9", "--n", "1", "--out", str(corpus))
    model_path = next(corpus.glob("*.model"))
    model = parse_model(model_path.read_text())
    dflt = tmp_path / "default"
    div = tmp_path / "div"
    run("build", "--model", str(model_path), "--out", str(dflt))
    run("diversify", "--model", str(model_path), "--seeds", "1,2,3",
        "--out", str(div))
    delta = tmp_path / "delta.dbpd"
    key = "aabbccdd"
    run("delta", "--default-sym", str(dflt / "default.sym"),
        "--opplog", str(dflt / "opportunity.log"),
        "--div-sym", str(div / "diversified.sym"),
        "--seeds", "1,2,3", "--out", str(delta), "--key", key)
    chain = sample_call_chains(model, 3, 1)[0]
    dump = tmp_path / "dump.mdl"
    run("crash", "--image", str(div / "diversified.img"),
        "--model", str(model_path),
        "--chain", ",".join("%s:%d:%d" % c for c in chain),
        "--out", str(dump))
    capsys.readouterr()
    # correct key works
    assert run("report", "--dump", str(dump), "--delta", str(delta),
               "--default-sym", str(dflt / "default.sym"),
               "--opplog", str(dflt / "opportunity.log"), "--key", key) == 0
    # wrong key: exit 3
    assert run("report", "--dump", str(dump), "--delta", str(delta),
               "--default-sym", str(dflt / "default.sym"),
               "--opplog", str(dflt / "opportunity.log"), "--key", "00") == 3
    # tampered container body: exit 3
    blob = bytearray(delta.read_bytes())
    blob[12] ^= 0x10
    bad = tmp_path / "bad.dbpd"
    bad.write_bytes(bytes(blob))
    assert run("report", "--dump", str(dump), "--delta", str(bad),
               "--default-sym", str(dflt / "default.sym"),
               "--opplog", str(dflt / "opportunity.log"), "--key", key) == 3


def test_patch_corrupt_exit_code(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run("gen", "--seed", "11", "--n", "2", "--out", str(corpus))
    models = sorted(corpus.glob("*.model"))
    a, b = models[0], models[1]
    model_a = parse_model(a.read_text())
    for name, path in (("da", a), ("db", b)):
        run("build", "--model", str(path), "--out", str(tmp_path / ("dflt_" + name)))
        run("diversify", "--model", str(path), "--seeds", "4,5,6",
            "--out", str(tmp_path / ("div_" + name)))
    # delta built for program B, applied to program A: patch mismatch
    delta = tmp_path / "wrong.dbpd"
    run("delta", "--default-sym", str(tmp_path / "dflt_db" / "default.sym"),
        "--opplog", str(tmp_path / "dflt_db" / "opportunity.log"),
        "--div-sym", str(tmp_path / "div_db" / "diversified.sym"),
        "--seeds", "4,5,6", "--out", str(delta))
    chain = sample_call_chains(model_a, 3, 1)[0]
    dump = tmp_path / "dump.mdl"
    run("crash", "--image", str(tmp_path / "div_da" / "diversified.img"),
        "--model", str(a), "--chain", ",".join("%s:%d:%d" % c for c in chain),
        "--out", str(dump))
    capsys.readouterr()
    code = run("report", "--dump", str(dump), "--delta", str(delta),
               "--default-sym", str(tmp_path / "dflt_da" / "default.sym"),
               "--opplog", str(tmp_path / "dflt_da" / "opportunity.log"))
    assert code in (2, 4)  # replication-input or patch-corrupt, never success
    assert code != 0


def test_report_several_dumps_in_order(tmp_path, capsys):
    common, dumps = _build_and_crash(tmp_path, 2)
    capsys.readouterr()
    singles = []
    for dump in dumps:
        assert run("report", "--dump", dump, *common) == 0
        singles.append(capsys.readouterr().out)
    assert singles[0] != singles[1]
    assert run("report", "--dump", dumps[1], dumps[0], *common) == 0
    assert capsys.readouterr().out == singles[1] + singles[0]


def test_hostile_opportunity_log_exits_2(tmp_path, capsys):
    # the log does not fit the default file: the server's plan build
    # refuses it once, for all the dumps, or the log parser does
    common, dumps = _build_and_crash(tmp_path, 2)
    opplog = Path(common[5])
    text = opplog.read_text()
    short = text[:text.rindex("\nFUNCTION ") + 1]
    long_body = re.sub(r"n=(\d+) model=\d+",
                       lambda m: "n=%s model=%d" % (m[1], int(m[1]) + 1),
                       text, count=1)
    empty = text.replace("\nBLOCK code ",
                         "\nBLOCK code 99 n=0 model=0\nBLOCK code ", 1)
    capsys.readouterr()
    for bad, message in ((short, "log has"), (long_body, "record/extras"),
                         (empty, "code block needs n >= 1")):
        opplog.write_text(bad)
        assert run("report", "--dump", *dumps, *common) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
    opplog.write_text(text)
    assert run("report", "--dump", *dumps, *common) == 0


def test_hostile_delta_exit_code(tmp_path, capsys):
    common, dumps = _build_and_crash(tmp_path, 1)
    delta = Path(common[1])
    shipped = delta.read_bytes()
    unknown_flag = shipped[:5] + b"\x02" + shipped[6:]
    for blob in (bad_nop_container(1, 0), inflation_bomb(), unknown_flag):
        delta.write_bytes(blob)
        assert run("report", "--dump", dumps[0], *common) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_payload_record_exit_codes(tmp_path, capsys):
    common, dumps = _build_and_crash(tmp_path, 1)
    delta = Path(common[1])
    for faults, code in ((PATCH_FAULTS, 4), (HEADER_FAULTS, 2)):
        for edits in faults.values():
            delta.write_bytes(edited_container(edits))
            assert run("report", "--dump", dumps[0], *common) == code
    err = capsys.readouterr().err
    assert "corrupt patch:" in err and "error:" in err
    assert "Traceback" not in err


def test_hostile_growth_records_exit_code(tmp_path, capsys):
    common, dumps = _build_and_crash(tmp_path, 1)
    args = dict(zip(common[::2], common[1::2]))
    delta = Path(args["--delta"])
    dd = deltadata.unpack(delta.read_bytes())
    approx = replicate(
        parse_symbol_file(Path(args["--default-sym"]).read_text()),
        parse_opportunity_log(Path(args["--opplog"]).read_text()),
        dd.seeds, dd.options())
    for growth, message in growth_faults(approx).values():
        delta.write_bytes(deltadata.pack(
            replace(dd, patch=replace(dd.patch, growth=growth))))
        assert run("report", "--dump", dumps[0], *common) == 4
        err = capsys.readouterr().err
        assert re.search("^corrupt patch: " + message, err), err


def test_hostile_patch_ops_exit_code(tmp_path, capsys):
    common, dumps = _build_and_crash(tmp_path, 1)
    args = dict(zip(common[::2], common[1::2]))
    delta = Path(args["--delta"])
    dd = deltadata.unpack(delta.read_bytes())
    approx = replicate(
        parse_symbol_file(Path(args["--default-sym"]).read_text()),
        parse_opportunity_log(Path(args["--opplog"]).read_text()),
        dd.seeds, dd.options())
    for patch, message in op_faults(approx).values():
        delta.write_bytes(deltadata.pack(replace(dd, patch=patch)))
        assert run("report", "--dump", dumps[0], *common) == 4
        err = capsys.readouterr().err
        assert re.search("^corrupt patch: " + message, err), err


@pytest.fixture(scope="module")
def report_argv(tmp_path_factory):
    """The report arguments of one dump of one small program, as a dict
    from option to path.  Desync leaves the delta a non-empty patch."""
    common, dumps = _build_and_crash(tmp_path_factory.mktemp("report"), 1,
                                     "--desync", "1/4")
    return {"--dump": dumps[0], **dict(zip(common[::2], common[1::2]))}


@pytest.mark.parametrize("option", ["--dump", "--delta", "--default-sym",
                                    "--opplog"])
@given(data=st.data())
def test_report_on_a_mutated_input_exits_with_a_documented_code(
        report_argv, option, data):
    # one line of one input dropped, duplicated, truncated or with a
    # token replaced; the delta's payload is mutated and re-wrapped
    path = Path(report_argv[option])
    if option == "--delta":
        payload = zlib.decompress(path.read_bytes()[deltadata.HEADER_LEN:], -15)
        mutated = _plain_container(mutate(data, payload.decode()).encode())
    else:
        mutated = mutate(data, path.read_text()).encode()
    target = path.with_name("mutated" + path.suffix)
    target.write_bytes(mutated)
    argv = ["report"]
    for opt, arg in report_argv.items():
        argv += [opt, str(target) if opt == option else arg]
    assert main(argv) in (0, 2, 3, 4)


def test_tab_in_patched_symbol_record_exit_code(tmp_path, capsys):
    common, dumps = _build_and_crash(tmp_path, 1)
    delta = Path(common[1])
    dd = deltadata.unpack(delta.read_bytes())
    tab = deltadata.PatchOp("I", lines=("FUNC ffff0 4 0\tx",))
    delta.write_bytes(deltadata.pack(
        replace(dd, patch=deltadata.Patch(dd.patch.ops + (tab,)))))
    capsys.readouterr()
    assert run("report", "--dump", dumps[0], *common) == 4
    err = capsys.readouterr().err
    assert "corrupt patch:" in err and "single spaces" in err
    assert "Traceback" not in err


def test_writer_refuses_nop_fraction_reader_rejects(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run("gen", "--seed", "21", "--n", "1", "--out", str(corpus))
    model_path = next(corpus.glob("*.model"))
    dflt = tmp_path / "default"
    run("build", "--model", str(model_path), "--out", str(dflt))
    div = tmp_path / "div"
    delta = tmp_path / "delta.dbpd"
    for ratio in ("3/2", "0/0", "-1/5", "1/0"):
        assert run("diversify", "--model", str(model_path),
                   "--seeds", "7,8,9", "--out", str(div),
                   "--nop-prob=" + ratio) == 2
        assert run("diversify", "--model", str(model_path),
                   "--seeds", "7,8,9", "--out", str(div),
                   "--desync=" + ratio) == 2
        assert run("delta", "--default-sym", str(dflt / "default.sym"),
                   "--opplog", str(dflt / "opportunity.log"),
                   "--div-sym", str(dflt / "default.sym"),
                   "--seeds", "7,8,9", "--nop-prob=" + ratio,
                   "--out", str(delta)) == 2
    assert not div.exists() and not delta.exists()
    assert "nop fraction" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["-1,2,3", "1,0x10000000000000000,3",
                                   "-1,2,0x1ffffffffffffffff", "1,2"])
def test_seeds_outside_64_bits_exit_2(tmp_path, capsys, seeds):
    # no seed is reduced modulo 2^64: -1 and 2^64 + (2^64 - 1) would
    # both build as 2^64 - 1
    corpus = tmp_path / "corpus"
    run("gen", "--seed", "21", "--n", "1", "--out", str(corpus))
    model_path = next(corpus.glob("*.model"))
    dflt = tmp_path / "default"
    run("build", "--model", str(model_path), "--out", str(dflt))
    div = tmp_path / "div"
    delta = tmp_path / "delta.dbpd"
    report = tmp_path / "report.txt"
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("1 2 3\n%s\n" % seeds.replace(",", " "))
    capsys.readouterr()
    assert run("diversify", "--model", str(model_path), "--seeds=" + seeds,
               "--out", str(div)) == 2
    assert run("delta", "--default-sym", str(dflt / "default.sym"),
               "--opplog", str(dflt / "opportunity.log"),
               "--div-sym", str(dflt / "default.sym"),
               "--seeds=" + seeds, "--out", str(delta)) == 2
    assert run("metrics", "--corpus", str(corpus),
               "--seeds-file", str(seeds_file), "--out", str(report)) == 2
    assert not div.exists() and not delta.exists() and not report.exists()
    err = capsys.readouterr().err
    assert err.count("error: ") == 3 and "Traceback" not in err


def test_input_error_exit_code(tmp_path):
    assert run("build", "--model", str(tmp_path / "missing.model"),
               "--out", str(tmp_path / "o")) == 2


def test_desync_and_nop_prob_flags(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run("gen", "--seed", "21", "--n", "1", "--out", str(corpus))
    model_path = next(corpus.glob("*.model"))
    dflt = tmp_path / "default"
    div = tmp_path / "div"
    run("build", "--model", str(model_path), "--out", str(dflt))
    assert run("diversify", "--model", str(model_path), "--seeds", "7,8,9",
               "--out", str(div), "--nop-prob", "1/4",
               "--desync", "5/100") == 0
    assert "DESYNC" in (div / "decision.log").read_text()
    delta = tmp_path / "delta.dbpd"
    assert run("delta", "--default-sym", str(dflt / "default.sym"),
               "--opplog", str(dflt / "opportunity.log"),
               "--div-sym", str(div / "diversified.sym"),
               "--seeds", "7,8,9", "--nop-prob", "1/4",
               "--out", str(delta)) == 0
    model = parse_model(model_path.read_text())
    chain = sample_call_chains(model, 3, 2)[0]
    dump = tmp_path / "dump.mdl"
    run("crash", "--image", str(div / "diversified.img"),
        "--model", str(model_path),
        "--chain", ",".join("%s:%d:%d" % c for c in chain),
        "--out", str(dump))
    capsys.readouterr()
    assert run("report", "--dump", str(dump), "--delta", str(delta),
               "--default-sym", str(dflt / "default.sym"),
               "--opplog", str(dflt / "opportunity.log")) == 0
    assert capsys.readouterr().out.startswith("Crash reason:")


def test_metrics_command(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    run("gen", "--seed", "13", "--n", "1", "--out", str(corpus))
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("1 2 3\n4 5 6\n")
    out = tmp_path / "report.txt"
    assert run("metrics", "--corpus", str(corpus),
               "--seeds-file", str(seeds_file), "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("METRICS v1")
    assert "ddata shuffle" in text
    assert "timing" in text
    shown = capsys.readouterr().out
    assert "timing" not in shown  # deterministic rendering on stdout


def _replaced(path, old, new):
    data = path.read_bytes()
    assert old in data
    return data.replace(old, new, 1)


def _resubbed(path, pattern, new):
    data, n = re.subn(pattern, new, path.read_bytes(), count=1)
    assert n == 1
    return data


def _image_replaced(path, old, new):
    sections = dict(image.iter_sections(path.read_bytes()))
    assert old in sections["crash"]
    sections["crash"] = sections["crash"].replace(old, new, 1)
    return image.pack_sections(list(sections.items()))


def test_malformed_text_inputs_exit_2_with_line_number(tmp_path, capsys):
    common, dumps = _build_and_crash(tmp_path, 1)
    model = tmp_path / "corpus" / "prog000.model"
    img = tmp_path / "div" / "diversified.img"
    opplog = Path(common[5])
    dump = Path(dumps[0])
    report = ["report", "--dump", str(dump), *common]
    # (file, its malformed bytes, command, the record named in the error)
    cases = [
        (model, _replaced(model, b"\nSPAN ", b"\nSPAN x"),
         ["build", "--model", str(model), "--out", str(tmp_path / "b")],
         "SPAN"),
        (img, _image_replaced(img, b" addr=", b" addr=zz"),
         ["crash", "--image", str(img), "--model", str(model),
          "--chain", "f:0:0", "--out", str(tmp_path / "c.mdl")],
         "CRASHBLOCK"),
        (opplog, _replaced(opplog, b" n=", b" n=-x"), report, "BLOCK"),
        # an empty code block, and a negative body count
        (opplog, _replaced(opplog, b"\nBLOCK code ",
                           b"\nBLOCK code 99 n=0 model=0\nBLOCK code "),
         report, "BLOCK"),
        (opplog, _replaced(opplog, b" model=", b" model=-"), report, "BLOCK"),
        # FUNCTION fields outside the model's ranges
        *((opplog, _resubbed(opplog, pattern, new), report, "FUNCTION")
          for pattern, new in (
              (rb" align=\d+", b" align=0"), (rb" align=\d+", b" align=-4"),
              (rb" local=\d+", b" local=-4"), (rb" saved=\d+", b" saved=-1"),
              (rb" saved=\d+", b" saved=99"),
              (rb" saved=\d+ fp=\d", b" saved=0 fp=1"))),
        (dump, _replaced(dump, b"\ncrashaddr ", b"\ncrashaddr zz"), report,
         "crashaddr"),
        (dump, _replaced(dump, b"\nstackdata ",
                         b"\nstackdata " + b"00" * (MAX_STACK_BYTES + 1)),
         report, "stackdata"),
    ]
    capsys.readouterr()
    for path, bad, argv, record in cases:
        good = path.read_bytes()
        path.write_bytes(bad)
        assert run(*argv) == 2
        path.write_bytes(good)
        err = capsys.readouterr().err
        assert re.match(r"error: line \d+: %s: " % record, err), err
        assert "Traceback" not in err
