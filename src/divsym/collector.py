"""End-to-end crash pipeline: simulate, dump, reconstruct, symbolicate.

The simulator builds a thread stack bottom-up from the frame layouts of
a call chain, planting return addresses exactly where the CFI rules
will look for them; the deepest caller's planted return address is zero
(end-of-stack sentinel).  Crash sites are named in pre-NOP model
coordinates (function, block, instruction), so the same logical site
can be materialized in any diversified image.

Report: unpack delta data, replicate, patch to the exact diversified
symbol file, unwind, and map frame pcs to FUNC/line records.  Caller
frames are mapped at return address minus one instruction so the call
site's line is reported; the rendered trace text carries only
source-level information and is therefore identical across seeds.
Every crash of one shipped build carries the same delta blob, so a
SymbolServer keeps the exact symbol files it reconstructed; it
replicates through replicate(), whose one slot holds the seed-free
replication plan of the default build.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from divsym import cfi
from divsym.deltadata import apply, delta_from_options, diff, pack, unpack
from divsym.diversify import (PAD_CHOICES, build_default, build_diversified,
                              clear_gap_memo, emit_opportunity_log,
                              function_padding)
from divsym.errors import HarnessError, ReplicationInputError
from divsym.image import ImageInfo
from divsym.progmodel import (INSTR_BYTES, BuildOptions, ProgramModel,
                              function_size)
from divsym.records import read_records
from divsym.replicate import plan_for, replicate
from divsym.symfile import emit_symbol_file

STACK_TOP = 0xBF000000
JUNK_BASE = 0x40000000
CRASH_REASON = "SIGSEGV"

# The largest stack snapshot parse_minidump accepts; the simulator's
# deepest chains capture a few KiB.
MAX_STACK_BYTES = 1 << 20

REG_ORDER = ("pc", "sp", "lr", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11")


@dataclass(frozen=True)
class MinidumpLite:
    module_id: str
    crash_reason: str
    crash_address: int
    registers: dict
    stack: cfi.StackSnapshot


@dataclass(frozen=True)
class TraceFrame:
    function: str
    file: str
    line: int
    pc: int                   # raw diversified pc; excluded from text()


@dataclass(frozen=True)
class StackTrace:
    module_id: str
    reason: str
    frames: tuple
    truncation: str

    def text(self):
        """Canonical source-level rendering; identical across seeds."""
        out = ["Crash reason: %s" % self.reason,
               "Module: %s" % self.module_id]
        for i, f in enumerate(self.frames):
            out.append("%2d  %s [%s : %d]" % (i, f.function, f.file, f.line))
        out.append("(stack end: %s)" % self.truncation)
        return "\n".join(out) + "\n"


def _instr_address(info_fn, block_index, instr_index):
    for b in info_fn.blocks:
        if b.index == block_index:
            nops_before = sum(1 for g in b.gaps if g <= instr_index)
            return b.addr + INSTR_BYTES * (b.pre_extras + instr_index + nops_before)
    raise HarnessError("function %s has no code block %d"
                       % (info_fn.identifier, block_index))


def simulate_crash(info: ImageInfo, model: ProgramModel, chain):
    """Build a minidump for a crash at the end of a call chain.

    chain: ((function_name, block_index, instr_index), ...) in pre-NOP
    model coordinates; earlier elements are call sites, the last is the
    crash location.
    """
    if not chain:
        raise HarnessError("empty call chain")
    by_name = {f.name: f for f in model.functions}
    info_by_id = {f.identifier: f for f in info.functions}
    funcs = []
    for fname, bi, ii in chain:
        f = by_name.get(fname)
        if f is None:
            raise HarnessError("unknown function %s" % fname)
        if f.identifier not in info_by_id:
            raise HarnessError("function %s not in image" % fname)
        if not (0 <= bi < len(f.blocks)) or f.blocks[bi].kind != "code" \
                or not (0 <= ii < f.blocks[bi].instr_count):
            raise HarnessError("bad site %s:%d:%d" % (fname, bi, ii))
        funcs.append(f)
    for k in range(len(chain) - 1):
        fname, bi, ii = chain[k]
        callee_name = chain[k + 1][0]
        if (bi, ii, callee_name) not in funcs[k].call_sites:
            raise HarnessError("%s does not call %s at %d:%d"
                               % (fname, callee_name, bi, ii))

    totals = []
    for f in funcs:
        pad = info_by_id[f.identifier].padding
        totals.append(4 * len(f.frame.callee_saved) + f.frame.local_size + pad)
    base = STACK_TOP - sum(totals)
    buf = bytearray(sum(totals))

    def put32(addr, value):
        off = addr - base
        buf[off:off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    ctx = {r: JUNK_BASE + i * 0x101 for i, r in enumerate(REG_ORDER[3:])}
    ctx["lr"] = 0
    cfa = STACK_TOP
    for k, f in enumerate(funcs):
        saved = f.frame.callee_saved
        n = len(saved)
        for p, reg in enumerate(saved):
            put32(cfa - 4 * n + 4 * p, ctx.get(reg, 0))
        if f.has_fp:
            ctx["r11"] = cfa - 4 * n + 4
        for reg in saved:
            if reg not in ("lr", "r11"):
                ctx[reg] = JUNK_BASE + 0x10000 * (k + 1) + int(reg[1:])
        if k < len(funcs) - 1:
            site = chain[k]
            ra = _instr_address(info_by_id[f.identifier], site[1], site[2]) \
                + INSTR_BYTES
            ctx["lr"] = ra
        cfa -= totals[k]

    _, crash_bi, crash_ii = chain[-1]
    pc = _instr_address(info_by_id[funcs[-1].identifier], crash_bi, crash_ii)
    regs = {r: ctx.get(r, 0) for r in REG_ORDER}
    regs["pc"] = pc
    regs["sp"] = cfa  # == base
    return MinidumpLite(module_id=info.module_id, crash_reason=CRASH_REASON,
                        crash_address=pc, registers=regs,
                        stack=cfi.StackSnapshot(base, bytes(buf)))


# ---------------------------------------------------------------------------
# minidump-lite text format

def emit_minidump(dump):
    out = ["MDUMP v1",
           "module %s" % dump.module_id,
           "reason %s" % dump.crash_reason,
           "crashaddr %x" % dump.crash_address]
    for r in REG_ORDER:
        out.append("reg %s %x" % (r, dump.registers[r]))
    out.append("stackbase %x" % dump.stack.base_address)
    out.append("stackdata %s" % (dump.stack.data.hex() or "-"))
    return "\n".join(out) + "\n"


def _dump_text(dump, toks, line):
    dump[toks[0]] = line.split(" ", 1)[1]


def _dump_hex(dump, toks, line):
    dump[toks[0]] = int(toks[1], 16)


def _dump_reg(dump, toks, line):
    dump["reg"][toks[1]] = int(toks[2], 16)


def _dump_stack(dump, toks, line):
    if len(toks[1]) > 2 * MAX_STACK_BYTES:
        raise ValueError("stack data over %d bytes" % MAX_STACK_BYTES)
    dump["stackdata"] = b"" if toks[1] == "-" else bytes.fromhex(toks[1])


# Each handler stores its record's value under the record's keyword.
_DUMP_RECORDS = {"module": _dump_text, "reason": _dump_text,
                 "crashaddr": _dump_hex, "reg": _dump_reg,
                 "stackbase": _dump_hex, "stackdata": _dump_stack}


def parse_minidump(text):
    dump = {"module": "", "reason": "", "crashaddr": 0, "reg": {},
            "stackbase": 0, "stackdata": b""}
    read_records(text, "MDUMP v1", _DUMP_RECORDS, dump, HarnessError)
    regs = dump["reg"]
    if regs.get("pc") != dump["crashaddr"]:
        raise HarnessError("crash address does not match pc")
    return MinidumpLite(dump["module"], dump["reason"], dump["crashaddr"], regs,
                        cfi.StackSnapshot(dump["stackbase"], dump["stackdata"]))


# ---------------------------------------------------------------------------
# reporting

def _locate(sf, pc):
    i = bisect.bisect_right(sf.func_starts, pc) - 1
    if i >= 0:
        f = sf.funcs[i]
        if pc < f.address + f.size:
            for addr, size, line, filenum in f.lines:
                if addr <= pc < addr + size:
                    return f.name, filenum, line
            return f.name, None, 0
    return None, None, 0


def trace_from_dump(dump, sf):
    """Symbolicate a dump against an (exact) diversified symbol file."""
    frames, reason = cfi.unwind(dump, sf)
    files = dict(sf.files)
    out = []
    for i, fr in enumerate(frames):
        lookup = fr.pc if i == 0 else fr.pc - INSTR_BYTES
        name, filenum, line = _locate(sf, lookup)
        out.append(TraceFrame(name or "???", files.get(filenum, "<unknown>"),
                              line, fr.pc))
    return StackTrace(module_id=sf.module_id, reason=dump.crash_reason,
                      frames=tuple(out), truncation=reason)


# The number of exact symbol files a SymbolServer keeps.  It is the
# number of builds in the one measured report workload (triage-repeat
# crashes two builds of one program); one entry for its 308-function
# program holds about 2.6 MB.  No workload with more builds has been
# measured, so neither the hit rate nor the memory of a larger cache is
# known.
REPORT_CACHE_SIZE = 2


class SymbolServer:
    """A crash server for one default build.

    It holds the default symbol file and opportunity log and the exact
    symbol files of the last REPORT_CACHE_SIZE delta blobs it
    reconstructed, least recently used first, keyed by (SHA-256 of the
    blob, HMAC key).  Only a blob that unpacked under that key, HMAC
    check included, and reconstructed without error is kept, so a hit
    skips no check the blob has not passed.  It replicates through
    replicate(), so it shares the replication plan with the delta
    writer and with any server loaded with the same file and log
    objects.  The dump's module id is checked on every report.
    """

    def __init__(self, default_sf, log):
        self.default_sf = default_sf
        self.log = log
        self._exact = OrderedDict()
        self._lock = threading.Lock()

    def reconstruct(self, dd):
        """The exact symbol file of unpacked delta data."""
        return apply(replicate(self.default_sf, self.log, dd.seeds,
                               dd.options()), dd.patch)

    def report(self, dump, dd_bytes, key=None):
        """Delta data + the dump -> stack trace."""
        slot = (hashlib.sha256(dd_bytes).digest(), key)
        with self._lock:
            exact = self._exact.get(slot)
            if exact is not None:
                self._exact.move_to_end(slot)
        dd = None if exact is not None else unpack(dd_bytes, key)
        if dump.module_id != self.default_sf.module_id:
            raise ReplicationInputError(
                "dump module %r does not match symbol file" % dump.module_id)
        if exact is None:
            exact = self.reconstruct(dd)
            with self._lock:
                self._exact[slot] = exact
                while len(self._exact) > REPORT_CACHE_SIZE:
                    self._exact.popitem(last=False)
        return trace_from_dump(dump, exact)


# The server of the last report() call, or None.  It holds its default
# file and log strongly and is matched to them with `is`; a call with
# other ones replaces it in one assignment.
_server = None


def report(dump, dd_bytes, default_sf, log, key=None):
    """Full server path: delta data + default symbol file -> stack trace,
    through the SymbolServer of default_sf and log (see SymbolServer)."""
    global _server
    server = _server
    if server is None or server.default_sf is not default_sf \
            or server.log is not log:
        server = SymbolServer(default_sf, log)
        _server = server
    return server.report(dump, dd_bytes, key)


# ---------------------------------------------------------------------------
# evaluation harness

SCHEMES = ("padding", "nops", "shuffle", "combined")


def scheme_options(base, scheme):
    """Options running one diversification scheme in isolation."""
    if scheme == "padding":
        return replace(base, nop_num=0, shuffle_scheme=False, pad_scheme=True)
    if scheme == "nops":
        return replace(base, pad_scheme=False, shuffle_scheme=False)
    if scheme == "shuffle":
        return replace(base, nop_num=0, pad_scheme=False, shuffle_scheme=True)
    if scheme == "combined":
        return base
    raise ValueError("unknown scheme %r" % scheme)


@dataclass(frozen=True)
class SchemeSizes:
    avg: float
    max: int
    payload_zero_rate: float


@dataclass(frozen=True)
class ProgramMetrics:
    name: str
    n_functions: int
    default_sym_bytes: int
    div_sym_bytes_avg: float
    opplog_compressed_bytes: int
    schemes: dict             # scheme -> SchemeSizes


@dataclass(frozen=True)
class HistogramPoint:
    zero_mass: int
    total: int
    mean_abs: float


@dataclass(frozen=True)
class MetricsReport:
    programs: tuple
    hist_defpad_on: HistogramPoint
    hist_defpad_off: HistogramPoint
    hist_spfp_on: HistogramPoint
    hist_spfp_off: HistogramPoint
    timings: dict = field(default_factory=dict, compare=False)

    def text(self, include_timings=False):
        out = ["METRICS v1"]
        for p in self.programs:
            out.append("program %s functions=%d default_sym=%d div_sym_avg=%.1f "
                       "opplog_z=%d" % (p.name, p.n_functions,
                                        p.default_sym_bytes,
                                        p.div_sym_bytes_avg,
                                        p.opplog_compressed_bytes))
            for s in SCHEMES:
                z = p.schemes[s]
                out.append("  ddata %-8s avg=%.1f max=%d seeds_only_rate=%.2f"
                           % (s, z.avg, z.max, z.payload_zero_rate))
        for label, h in (("defpad_on", self.hist_defpad_on),
                         ("defpad_off", self.hist_defpad_off),
                         ("spfp_on", self.hist_spfp_on),
                         ("spfp_off", self.hist_spfp_off)):
            out.append("hist %-10s zero=%d/%d mean_abs=%.4f"
                       % (label, h.zero_mass, h.total, h.mean_abs))
        if include_timings:
            for k in sorted(self.timings):
                out.append("timing %s %.3fs" % (k, self.timings[k]))
        return "\n".join(out) + "\n"


def size_variation_histograms(corpus, options):
    """Function-size deltas across the 32 padding amounts against the
    default build's padding: (with default padding, without), from one
    pass over each function's sizes at paddings 0, 8, ..., 256."""
    defaults = [replace(options, default_padding=on) for on in (True, False)]
    zero = [0, 0]
    abs_sum = [0, 0]
    total = 0
    for model in corpus:
        for f in model.functions:
            sizes = [function_size(f, options, pad)
                     for pad in range(0, 8 * PAD_CHOICES + 1, 8)]
            total += PAD_CHOICES
            for k, dopts in enumerate(defaults):
                dflt = sizes[function_padding(f.identifier, None, dopts) // 8]
                for size in sizes[1:]:
                    d = abs(size - dflt)
                    zero[k] += d == 0
                    abs_sum[k] += d
    return tuple(HistogramPoint(z, total, a / total if total else 0.0)
                 for z, a in zip(zero, abs_sum))


def corpus_metrics(corpus, seed_tuples, options=BuildOptions()):
    """Sizes, delta-data statistics and size-variation histograms.

    The timings are summed over the corpus: `plan` is a crash server's
    one-off cost of loading a default build (plan_for, its replication
    plan), `delta_generation` the writer's replicate, diff and pack, and
    `reconstruction` the server's cold cost per crashing build: unpack,
    replicate with that plan and draws not memoised, and apply."""
    timings = {"plan": 0.0, "delta_generation": 0.0, "reconstruction": 0.0}
    programs = []
    for model in corpus:
        dres, log = build_default(model, options)
        default_bytes = len(emit_symbol_file(dres.symfile).encode())
        opp_z = len(zlib.compress(emit_opportunity_log(log).encode(), 6))
        t0 = time.perf_counter()
        plan_for(dres.symfile, log, options)
        timings["plan"] += time.perf_counter() - t0
        server = SymbolServer(dres.symfile, log)
        schemes = {}
        div_sizes = []
        for scheme in SCHEMES:
            sopts = scheme_options(options, scheme)
            sizes = []
            zero = 0
            for seeds in seed_tuples:
                truth, _ = build_diversified(model, seeds, sopts)
                t0 = time.perf_counter()
                approx = replicate(dres.symfile, log, seeds, sopts)
                patch = diff(approx, truth.symfile)
                blob = pack(delta_from_options(seeds, sopts, patch))
                timings["delta_generation"] += time.perf_counter() - t0
                sizes.append(len(blob))
                if patch.payload_bytes == 0:
                    zero += 1
                if scheme == "combined":
                    div_sizes.append(len(emit_symbol_file(truth.symfile).encode()))
                    # a crash server never ran the build: draw cold
                    clear_gap_memo()
                    t0 = time.perf_counter()
                    server.reconstruct(unpack(blob))
                    timings["reconstruction"] += time.perf_counter() - t0
            schemes[scheme] = SchemeSizes(sum(sizes) / len(sizes), max(sizes),
                                          zero / len(sizes))
        programs.append(ProgramMetrics(
            model.module_name, len(model.functions), default_bytes,
            sum(div_sizes) / len(div_sizes), opp_z, schemes))
    hist_on, hist_off = size_variation_histograms(corpus, options)
    # the sp/fp pair: hist_on, and hist_on with sp_fp_opt flipped
    flipped, _ = size_variation_histograms(
        corpus, replace(options, sp_fp_opt=not options.sp_fp_opt))
    spfp_on, spfp_off = (hist_on, flipped) if options.sp_fp_opt \
        else (flipped, hist_on)
    return MetricsReport(tuple(programs), hist_on, hist_off, spfp_on,
                         spfp_off, timings)
