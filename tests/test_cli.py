from pathlib import Path

from divsym.cli import main
from divsym.collector import sample_call_chains
from divsym.progmodel import parse_model
from hostile import (HEADER_FAULTS, PATCH_FAULTS, bad_nop_container,
                     edited_container, inflation_bomb)


def run(*argv):
    return main(list(argv))


def _build_and_crash(tmp_path, n_dumps):
    """Default build, one diversified build, its delta and n_dumps crashes
    of it; returns the report arguments shared by every dump, and the
    dump paths."""
    corpus = tmp_path / "corpus"
    run("gen", "--seed", "17", "--n", "1", "--out", str(corpus))
    model_path = next(corpus.glob("*.model"))
    model = parse_model(model_path.read_text())
    dflt = tmp_path / "default"
    div = tmp_path / "div"
    run("build", "--model", str(model_path), "--out", str(dflt))
    run("diversify", "--model", str(model_path), "--seeds", "1,2,3",
        "--out", str(div))
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


def test_hostile_delta_exit_code(tmp_path, capsys):
    common, dumps = _build_and_crash(tmp_path, 1)
    delta = Path(common[1])
    for blob in (bad_nop_container(1, 0), inflation_bomb()):
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
        assert run("delta", "--default-sym", str(dflt / "default.sym"),
                   "--opplog", str(dflt / "opportunity.log"),
                   "--div-sym", str(dflt / "default.sym"),
                   "--seeds", "7,8,9", "--nop-prob=" + ratio,
                   "--out", str(delta)) == 2
    assert not div.exists() and not delta.exists()
    assert "nop fraction" in capsys.readouterr().err


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
