"""Command-line front end.

Subcommands cover the whole pipeline: corpus generation, default and
diversified builds, delta-data packing, crash simulation, server-side
reporting and the evaluation harness.  Exit codes: 0 success, 2 input
error, 3 authentication failure, 4 corrupt patch.
"""

import argparse
import sys
from pathlib import Path

from divsym import collector, deltadata, image
from divsym.diversify import (SeedTuple, build_default, build_diversified,
                              emit_decision_log, emit_opportunity_log,
                              parse_opportunity_log)
from divsym.errors import (AuthenticationError, DivsymError,
                           PatchCorruptError)
from divsym.progmodel import (BuildOptions, emit_model, generate_corpus,
                              parse_model)
from divsym.replicate import replicate
from divsym.symfile import emit_symbol_file, parse_symbol_file

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_AUTH = 3
EXIT_PATCH = 4


def _parse_int(s):
    return int(s, 0)


def _parse_seeds(s):
    parts = s.split(",")
    if len(parts) != 3:
        raise ValueError("seeds must be three comma-separated integers")
    return SeedTuple(*(_parse_int(p) & 0xFFFFFFFFFFFFFFFF for p in parts))


def _parse_ratio(s):
    num, den = s.split("/")
    return int(num), int(den)


def _parse_chain(s):
    chain = []
    for part in s.split(","):
        name, bi, ii = part.rsplit(":", 2)
        chain.append((name, int(bi), int(ii)))
    return tuple(chain)


def _options(args):
    kw = {}
    if hasattr(args, "no_default_padding"):
        kw["default_padding"] = not args.no_default_padding
    if hasattr(args, "sp_fp_opt"):
        kw["sp_fp_opt"] = args.sp_fp_opt
    if getattr(args, "nop_prob", None):
        kw["nop_num"], kw["nop_den"] = _parse_ratio(args.nop_prob)
        deltadata.check_nop_fraction(kw["nop_num"], kw["nop_den"])
    if getattr(args, "desync", None):
        kw["desync_num"], kw["desync_den"] = _parse_ratio(args.desync)
    return BuildOptions(**kw)


def _add_build_flags(p, desync=False):
    p.add_argument("--no-default-padding", action="store_true",
                   help="build without the 8-byte default stack padding")
    p.add_argument("--sp-fp-opt", action="store_true",
                   help="enable the SP/FP-relative access optimization")
    p.add_argument("--nop-prob", metavar="NUM/DEN",
                   help="NOP insertion probability (default 1/5)")
    if desync:
        p.add_argument("--desync", metavar="NUM/DEN",
                       help="desync injection rate (default off)")


def cmd_gen(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus(_parse_int(args.seed), args.n, args.size_class)
    for model in corpus:
        path = out / ("%s.model" % model.module_name)
        path.write_text(emit_model(model), encoding="utf-8")
        print(path)
    return EXIT_OK


def cmd_build(args):
    model = parse_model(Path(args.model).read_text(encoding="utf-8"))
    options = _options(args)
    result, log = build_default(model, options)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "default.img").write_bytes(
        image.write_image(result, None, model.module_name))
    (out / "default.sym").write_text(emit_symbol_file(result.symfile),
                                     encoding="utf-8")
    (out / "opportunity.log").write_text(emit_opportunity_log(log),
                                         encoding="utf-8")
    print(out / "default.sym")
    return EXIT_OK


def cmd_diversify(args):
    model = parse_model(Path(args.model).read_text(encoding="utf-8"))
    options = _options(args)
    seeds = _parse_seeds(args.seeds)
    result, dec = build_diversified(model, seeds, options)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "diversified.img").write_bytes(
        image.write_image(result, dec, model.module_name))
    (out / "diversified.sym").write_text(emit_symbol_file(result.symfile),
                                         encoding="utf-8")
    (out / "decision.log").write_text(emit_decision_log(dec), encoding="utf-8")
    print(out / "diversified.sym")
    return EXIT_OK


def cmd_delta(args):
    default_sf = parse_symbol_file(Path(args.default_sym).read_text(encoding="utf-8"))
    log = parse_opportunity_log(Path(args.opplog).read_text(encoding="utf-8"))
    truth = parse_symbol_file(Path(args.div_sym).read_text(encoding="utf-8"))
    seeds = _parse_seeds(args.seeds)
    options = _options(args)
    approx = replicate(default_sf, log, seeds, options)
    patch = deltadata.diff(approx, truth)
    dd = deltadata.delta_from_options(seeds, options, patch)
    key = bytes.fromhex(args.key) if args.key else None
    blob = deltadata.pack(dd, key)
    Path(args.out).write_bytes(blob)
    print("%s (%d bytes, patch payload %d)"
          % (args.out, len(blob), patch.payload_bytes))
    return EXIT_OK


def cmd_crash(args):
    info = image.read_image(Path(args.image).read_bytes())
    model = parse_model(Path(args.model).read_text(encoding="utf-8"))
    dump = collector.simulate_crash(info, model, _parse_chain(args.chain))
    Path(args.out).write_text(collector.emit_minidump(dump), encoding="utf-8")
    print(args.out)
    return EXIT_OK


def cmd_report(args):
    dd_bytes = Path(args.delta).read_bytes()
    default_sf = parse_symbol_file(Path(args.default_sym).read_text(encoding="utf-8"))
    log = parse_opportunity_log(Path(args.opplog).read_text(encoding="utf-8"))
    key = bytes.fromhex(args.key) if args.key else None
    for path in args.dump:
        dump = collector.parse_minidump(Path(path).read_text(encoding="utf-8"))
        trace = collector.report(dump, dd_bytes, default_sf, log, key)
        sys.stdout.write(trace.text())
    return EXIT_OK


def cmd_metrics(args):
    corpus = []
    for path in sorted(Path(args.corpus).glob("*.model")):
        corpus.append(parse_model(path.read_text(encoding="utf-8")))
    if not corpus:
        raise DivsymError("no .model files in %s" % args.corpus)
    seeds = []
    for ln in Path(args.seeds_file).read_text(encoding="utf-8").splitlines():
        if ln.strip():
            p, n, f = ln.split()
            seeds.append(SeedTuple(_parse_int(p), _parse_int(n), _parse_int(f)))
    rep = collector.corpus_metrics(corpus, seeds, _options(args))
    Path(args.out).write_text(rep.text(include_timings=True), encoding="utf-8")
    sys.stdout.write(rep.text())
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="divsym")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic program corpus")
    p.add_argument("--seed", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="size_class", default="small",
                   choices=["small", "medium"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="default build: image, symbols, opportunity log")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_build_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("diversify", help="diversified build from a seed tuple")
    p.add_argument("--model", required=True)
    p.add_argument("--seeds", required=True, metavar="P,N,F")
    p.add_argument("--out", required=True)
    _add_build_flags(p, desync=True)
    p.set_defaults(func=cmd_diversify)

    p = sub.add_parser("delta", help="diff replication against truth and pack")
    p.add_argument("--default-sym", required=True)
    p.add_argument("--opplog", required=True)
    p.add_argument("--div-sym", required=True)
    p.add_argument("--seeds", required=True, metavar="P,N,F")
    p.add_argument("--out", required=True)
    p.add_argument("--key", metavar="HEX")
    _add_build_flags(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("crash", help="simulate a crash in an image")
    p.add_argument("--image", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--chain", required=True, metavar="FN:BLOCK:INSTR,...")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_crash)

    p = sub.add_parser("report",
                       help="produce a stack trace from each dump of one build")
    p.add_argument("--dump", required=True, nargs="+", metavar="DUMP")
    p.add_argument("--delta", required=True)
    p.add_argument("--default-sym", required=True)
    p.add_argument("--opplog", required=True)
    p.add_argument("--key", metavar="HEX")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("metrics", help="evaluation harness over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seeds-file", required=True)
    p.add_argument("--out", required=True)
    _add_build_flags(p)
    p.set_defaults(func=cmd_metrics)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AuthenticationError as e:
        print("authentication failure: %s" % e, file=sys.stderr)
        return EXIT_AUTH
    except PatchCorruptError as e:
        print("corrupt patch: %s" % e, file=sys.stderr)
        return EXIT_PATCH
    except (DivsymError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
