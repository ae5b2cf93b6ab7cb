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
Every crash of one shipped build carries the same delta blob, so the
exact symbol file is memoised across reports (see REPORT_CACHE_SIZE).
"""

from __future__ import annotations

import bisect
import hashlib
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from divsym import cfi
from divsym.deltadata import apply, delta_from_options, diff, pack, unpack
from divsym.diversify import (build_default, build_diversified,
                              emit_opportunity_log)
from divsym.errors import HarnessError, ReplicationInputError
from divsym.image import ImageInfo
from divsym.prng import Prng
from divsym.progmodel import INSTR_BYTES, BuildOptions, ProgramModel, layout
from divsym.replicate import replicate
from divsym.symfile import emit_symbol_file

STACK_TOP = 0xBF000000
JUNK_BASE = 0x40000000
CRASH_REASON = "SIGSEGV"

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


def sample_call_chains(model, n, seed):
    """Deterministic random call chains through the model's call DAG.

    Each chain follows call sites downward and ends at a crash site
    inside the last function; single-element chains are leaf crashes.
    """
    rng = Prng(seed)
    by_name = {f.name: f for f in model.functions}
    chains = []
    for _ in range(n):
        f = model.functions[rng.below(len(model.functions))]
        chain = []
        while True:
            if not f.call_sites or len(chain) >= 5 or rng.chance(30):
                blocks = [b for b in f.blocks if b.kind == "code"]
                b = blocks[rng.below(len(blocks))]
                chain.append((f.name, b.index, rng.below(b.instr_count)))
                break
            bi, ii, callee = f.call_sites[rng.below(len(f.call_sites))]
            chain.append((f.name, bi, ii))
            f = by_name[callee]
        chains.append(tuple(chain))
    return chains


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


def parse_minidump(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "MDUMP v1":
        raise HarnessError("missing MDUMP v1 header")
    module_id = reason = ""
    crash_address = 0
    regs = {}
    stack_base = 0
    data = b""
    for ln in lines[1:]:
        toks = ln.split()
        if toks[0] == "module":
            module_id = ln.split(" ", 1)[1]
        elif toks[0] == "reason":
            reason = ln.split(" ", 1)[1]
        elif toks[0] == "crashaddr":
            crash_address = int(toks[1], 16)
        elif toks[0] == "reg":
            regs[toks[1]] = int(toks[2], 16)
        elif toks[0] == "stackbase":
            stack_base = int(toks[1], 16)
        elif toks[0] == "stackdata":
            data = b"" if toks[1] == "-" else bytes.fromhex(toks[1])
        else:
            raise HarnessError("unknown dump record %r" % toks[0])
    if regs.get("pc") != crash_address:
        raise HarnessError("crash address does not match pc")
    return MinidumpLite(module_id, reason, crash_address, regs,
                        cfi.StackSnapshot(stack_base, data))


# ---------------------------------------------------------------------------
# reporting

def _locate(sf, pc):
    i = bisect.bisect_right(sf.func_starts, pc) - 1
    if i >= 0:
        f = sf.funcs[i]
        if pc < f.address + f.size:
            for ln in f.lines:
                if ln.address <= pc < ln.address + ln.size:
                    return f.name, ln.filenum, ln.line
            return f.name, None, 0
    return None, None, 0


def trace_from_dump(dump, sf, max_frames=cfi.DEFAULT_MAX_FRAMES):
    """Symbolicate a dump against an (exact) diversified symbol file."""
    frames, reason = cfi.unwind(dump, sf, max_frames)
    files = dict(sf.files)
    out = []
    for i, fr in enumerate(frames):
        lookup = fr.pc if i == 0 else fr.pc - INSTR_BYTES
        name, filenum, line = _locate(sf, lookup)
        out.append(TraceFrame(name or "???", files.get(filenum, "<unknown>"),
                              line, fr.pc))
    return StackTrace(module_id=sf.module_id, reason=dump.crash_reason,
                      frames=tuple(out), truncation=reason)


# Exact symbol files that report() reconstructed, least recently used
# first.  Key: (SHA-256 of the delta blob, HMAC key, id(default_sf),
# id(log)); value: (default_sf, log, exact).  The value keeps default_sf
# and log alive, so while the entry exists no other object can have their
# ids, and a hit on the key means the very same objects.
# The capacity is the number of builds in the one measured report workload
# (triage-repeat crashes two builds of one program); one entry for its
# 308-function program holds about 2.6 MB.  No workload with more builds
# has been measured, so neither the hit rate nor the memory of a larger
# cache is known.
REPORT_CACHE_SIZE = 2
_report_cache = OrderedDict()


def report(dump, dd_bytes, default_sf, log, key=None):
    """Full server path: delta data + default symbol file -> stack trace.

    A cache hit needs the same blob bytes and key and the very same
    default_sf and log objects.  Only a blob that unpacked under that key,
    HMAC check included, and reconstructed without error is cached, so a
    hit skips no check the blob has not passed.  The dump's module id is
    checked on every call.
    """
    slot = (hashlib.sha256(dd_bytes).digest(), key, id(default_sf), id(log))
    entry = _report_cache.get(slot)
    hit = entry is not None
    dd = None if hit else unpack(dd_bytes, key)
    if dump.module_id != default_sf.module_id:
        raise ReplicationInputError(
            "dump module %r does not match symbol file" % dump.module_id)
    if hit:
        _report_cache.move_to_end(slot)
    else:
        approx = replicate(default_sf, log, dd.seeds, dd.options())
        entry = (default_sf, log, apply(approx, dd.patch))
        _report_cache[slot] = entry
        while len(_report_cache) > REPORT_CACHE_SIZE:
            _report_cache.popitem(last=False)
    return trace_from_dump(dump, entry[2])


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


def _function_size(func, padding, options):
    solo = replace(func, call_sites=(),
                   frame=replace(func.frame, padding=padding))
    one = ProgramModel("h", ((1, "h.c"), (2, "h2.c"), (3, "h3.c")),
                       (solo,))
    res = layout(one, [0], options)
    return res.image[0].size


def size_variation_histogram(corpus, options, default_padding):
    """Function-size deltas across the 32 padding amounts vs the default."""
    zero = 0
    total = 0
    abs_sum = 0
    for model in corpus:
        for f in model.functions:
            dflt = _function_size(f, 8 if default_padding else 0, options)
            for pad in range(8, 257, 8):
                d = _function_size(f, pad, options) - dflt
                total += 1
                if d == 0:
                    zero += 1
                abs_sum += abs(d)
    return HistogramPoint(zero, total, abs_sum / total if total else 0.0)


def corpus_metrics(corpus, seed_tuples, options=BuildOptions(),
                   histogram_corpus=None):
    """Sizes, delta-data statistics and size-variation histograms."""
    timings = {"delta_generation": 0.0, "reconstruction": 0.0}
    programs = []
    for model in corpus:
        dres, log = build_default(model, options)
        default_bytes = len(emit_symbol_file(dres.symfile).encode())
        opp_z = len(zlib.compress(emit_opportunity_log(log).encode(), 6))
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
                    t0 = time.perf_counter()
                    dd = unpack(blob)
                    approx2 = replicate(dres.symfile, log, dd.seeds, dd.options())
                    apply(approx2, dd.patch)
                    timings["reconstruction"] += time.perf_counter() - t0
            schemes[scheme] = SchemeSizes(sum(sizes) / len(sizes), max(sizes),
                                          zero / len(sizes))
        programs.append(ProgramMetrics(
            model.module_name, len(model.functions), default_bytes,
            sum(div_sizes) / len(div_sizes), opp_z, schemes))
    hc = corpus if histogram_corpus is None else histogram_corpus
    hist_on = size_variation_histogram(hc, options, True)
    hist_off = size_variation_histogram(hc, options, False)
    spfp_on = size_variation_histogram(hc, replace(options, sp_fp_opt=True), True)
    spfp_off = size_variation_histogram(hc, replace(options, sp_fp_opt=False), True)
    return MetricsReport(tuple(programs), hist_on, hist_off, spfp_on,
                         spfp_off, timings)
