"""Synthetic ARM-like program model and its deterministic layout engine.

The model describes functions as ordered code/data blocks with stack
frames; the layout engine turns a model plus a function order into a
concrete image and symbol file.  All instructions are 4 bytes (ARM, no
Thumb).  The engine reproduces the indirect effects that make
server-side replication imperfect:

* allocation constants are split greedily into rotated-8-bit-encodable
  chunks, so frame-size changes can change prologue/epilogue length;
* stack accesses whose chosen base offset exceeds the LD/ST immediate
  range cost one extra materialization instruction;
* constants are loaded from forward literal pools placed by a
  reach-limited fixpoint pass, so code growth moves pools.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, repeat
from types import SimpleNamespace
from typing import NamedTuple

from divsym._speed import mix64
from divsym.errors import LayoutError, ModelError
from divsym.prng import Prng, function_reseed
from divsym.records import fields, read_records
from divsym.symfile import CfiInitRecord, FuncRecord, LineRecord, SymbolFile

INSTR_BYTES = 4
POOL_REACH = 4096
LDST_RANGE = 4095
FP_BIAS = 4
ALIGNMENTS = (4, 8, 16)
SAVEABLE = ("r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "lr")

# All values expressible as an 8-bit constant rotated right by an even
# amount, sorted; used for the greedy allocation-constant split.
_ENCODABLE = sorted({((b >> r) | (b << (32 - r))) & 0xFFFFFFFF
                     for b in range(256) for r in range(0, 32, 2)})


@dataclass(frozen=True)
class BuildOptions:
    default_padding: bool = True
    sp_fp_opt: bool = False
    nop_num: int = 1          # NOP probability numerator
    nop_den: int = 5          # NOP probability denominator
    desync_num: int = 0       # desync injection rate numerator
    desync_den: int = 100
    pad_scheme: bool = True   # randomize stack padding
    shuffle_scheme: bool = True  # randomize function order


@dataclass(frozen=True)
class LineSpan:
    line: int
    filenum: int
    instrs: int


@dataclass(frozen=True)
class BlockModel:
    kind: str                 # "code" | "data"
    index: int
    spans: tuple = ()         # code: (LineSpan, ...)
    consts: tuple = ()        # code: 32-bit constants needing pool loads
    byte_size: int = 0        # data only
    epilogue: bool = False

    @cached_property
    def instr_count(self):
        return sum(s.instrs for s in self.spans)


@dataclass(frozen=True)
class StackAccess:
    offset: int               # bytes below the top of the local area
    count: int
    source_line: int


@dataclass(frozen=True)
class FrameModel:
    local_size: int = 0
    callee_saved: tuple = ()
    accesses: tuple = ()


@dataclass(frozen=True)
class FunctionModel:
    name: str
    object_name: str
    section_name: str
    alignment: int
    has_fp: bool
    frame: FrameModel
    blocks: tuple
    call_sites: tuple = ()    # ((block_index, instr_index, callee_name), ...)
    param_size: int = 0

    @cached_property
    def identifier(self):
        return "%s@%s:%s" % (self.name, self.object_name, self.section_name)

    @cached_property
    def access_blocks(self):
        """The code block charged with each frame access's LD/ST
        instructions, in frame.accesses order: the first code block
        with a span on the access's source line, else the last."""
        code = [b for b in self.blocks if b.kind == "code"]
        return tuple(next((b.index for b in code
                           if any(s.line == acc.source_line for s in b.spans)),
                          code[-1].index)
                     for acc in self.frame.accesses)


@dataclass(frozen=True)
class ProgramModel:
    module_name: str
    files: tuple              # ((filenum, path), ...)
    functions: tuple

    @cached_property
    def valid(self):
        """True once validate_model passed on this model; layout,
        generate_corpus and parse_model read it, so each model object is
        checked once.  A failed check is not cached: it raises
        ModelError again on the next read."""
        validate_model(self)
        return True

    @cached_property
    def gap_keys(self):
        """The NOP draw key of each code block, in model order:
        (function identifier, block index, gaps), one gap after each of
        its instructions but the last (diversify.gap_decisions)."""
        return tuple((f.identifier, b.index, b.instr_count - 1)
                     for f in self.functions for b in f.blocks
                     if b.kind == "code")

    @cached_property
    def gap_first(self):
        """The position in gap_keys of each function's first key, in
        model order, then len(gap_keys): function i's keys are
        gap_keys[gap_first[i]:gap_first[i + 1]], as replicate cuts its
        masks (ReplicationPlan.first)."""
        return tuple(accumulate((sum(b.kind == "code" for b in f.blocks)
                                 for f in self.functions), initial=0))


class Region(NamedTuple):
    address: int
    size: int
    kind: str                 # "code" | "data" | "pool"
    block_index: int | None
    model_instrs: int = 0     # code: model (body) instruction count
    pre_extras: int = 0       # code: prologue instructions before the body
    epilogue: bool = False
    consts: tuple = ()        # pool entries in placement order


@dataclass(frozen=True)
class FunctionLayout:
    func: FunctionModel       # the model's own function
    base: int
    size: int
    regions: tuple
    padding: int


@dataclass(frozen=True)
class LayoutResult:
    image: tuple              # FunctionLayout in placement order
    symfile: SymbolFile


def stack_alloc_instrs(total):
    """Number of sp-adjust instructions for a total allocation.

    Greedy split: repeatedly subtract the largest encodable value not
    above the remainder.
    """
    if total < 0 or total % 4:
        raise ModelError("allocation size %d not a non-negative multiple of 4" % total)
    count = 0
    rem = total
    while rem:
        i = bisect.bisect_right(_ENCODABLE, rem) - 1
        chunk = _ENCODABLE[i]
        if chunk == 0:
            raise LayoutError("no encodable chunk for remainder %d" % rem)
        rem -= chunk
        count += 1
    return count


def _access_cost(acc, total, has_fp, options):
    """LD/ST instructions per use of an access in a frame of `total`
    local and padding bytes."""
    sp_off = total - acc.offset
    if has_fp:
        fp_off = acc.offset + FP_BIAS
        if options.sp_fp_opt:
            if fp_off <= LDST_RANGE:
                off = fp_off          # default base wins ties
            elif sp_off <= LDST_RANGE:
                off = sp_off
            else:
                off = fp_off
        else:
            off = fp_off
    else:
        off = sp_off
    return 1 if off <= LDST_RANGE else 2


def prologue_extras(saved_count, has_fp, total):
    """(push, fp-setup, allocation) instruction counts for a prologue."""
    return (1 if saved_count else 0,
            1 if has_fp else 0,
            stack_alloc_instrs(total))


def epilogue_extras(saved_count, has_fp, total):
    """(deallocation, pop) instruction counts for one epilogue."""
    if has_fp:
        dealloc = 1 if total else 0   # sp restored from fp, size-independent
    else:
        dealloc = stack_alloc_instrs(total)
    return dealloc, (1 if saved_count else 0)


def validate_model(model):
    names = set()
    idents = set()
    callees = {}
    for f in model.functions:
        if f.identifier in idents:
            raise ModelError("duplicate identifier %s" % f.identifier)
        idents.add(f.identifier)
        names.add(f.name)
        callees[f.name] = f
    filenums = {fn for fn, _ in model.files}
    for f in model.functions:
        if f.alignment not in ALIGNMENTS:
            raise ModelError("%s: alignment %d" % (f.name, f.alignment))
        if not f.blocks or f.blocks[0].kind != "code":
            raise ModelError("%s: first block must be code" % f.name)
        if not any(b.epilogue for b in f.blocks if b.kind == "code"):
            raise ModelError("%s: no epilogue block" % f.name)
        for pos, b in enumerate(f.blocks):
            if b.index != pos:
                raise ModelError("%s: block index %d at position %d"
                                 % (f.name, b.index, pos))
            if b.kind == "code":
                if not b.spans or any(s.instrs <= 0 for s in b.spans):
                    raise ModelError("%s: block %d needs positive spans"
                                     % (f.name, b.index))
                if any(s.filenum not in filenums for s in b.spans):
                    raise ModelError("%s: span references unknown file" % f.name)
            else:
                if b.consts or b.spans or b.epilogue:
                    raise ModelError("%s: data block %d carries code fields"
                                     % (f.name, b.index))
                if b.byte_size <= 0 or b.byte_size % 4:
                    raise ModelError("%s: data block %d size %d"
                                     % (f.name, b.index, b.byte_size))
        fr = f.frame
        if fr.local_size < 0 or fr.local_size % 4:
            raise ModelError("%s: local_size %d" % (f.name, fr.local_size))
        order = [r for r in SAVEABLE if r in fr.callee_saved]
        if tuple(order) != tuple(fr.callee_saved) or len(set(fr.callee_saved)) != len(fr.callee_saved):
            raise ModelError("%s: callee_saved must be unique, in push order"
                             % f.name)
        if any(r not in SAVEABLE for r in fr.callee_saved):
            raise ModelError("%s: unknown callee-saved register" % f.name)
        if f.has_fp and ("r11" not in fr.callee_saved or "lr" not in fr.callee_saved):
            raise ModelError("%s: has_fp requires saving r11 and lr" % f.name)
        for acc in fr.accesses:
            if not (0 <= acc.offset < fr.local_size):
                raise ModelError("%s: access offset %d outside local area"
                                 % (f.name, acc.offset))
            if acc.count < 1:
                raise ModelError("%s: access count %d" % (f.name, acc.count))
        for bi, ii, callee in f.call_sites:
            if not (0 <= bi < len(f.blocks)) or f.blocks[bi].kind != "code":
                raise ModelError("%s: call site in non-code block %d" % (f.name, bi))
            if not (0 <= ii < f.blocks[bi].instr_count):
                raise ModelError("%s: call site instruction %d out of range"
                                 % (f.name, ii))
            if callee not in names:
                raise ModelError("%s: call to unknown function %s" % (f.name, callee))
        if f.call_sites and "lr" not in fr.callee_saved:
            raise ModelError("%s: calling function must save lr" % f.name)


def align_up(x, a):
    return (x + a - 1) & ~(a - 1)


def _place_function(func, options, base, forced, bodies, padding):
    """One placement attempt, with `bodies` holding the body instruction
    count of each code block in order.

    Pools are emitted after the block where the running distance from
    the earliest pending reference crosses POOL_REACH - 8, plus at any
    walk position in `forced` (retry points from the fixpoint loop).
    Returns (regions, violation) where violation is the walk position
    whose pool left a constant out of reach, or None.
    """
    fr = func.frame
    saved = len(fr.callee_saved)
    total = fr.local_size + padding
    push, fps, alloc = prologue_extras(saved, func.has_fp, total)
    dealloc, pop = epilogue_extras(saved, func.has_fp, total)
    mat = {}
    for acc, owner in zip(fr.accesses, func.access_blocks):
        cost = _access_cost(acc, total, func.has_fp, options)
        mat[owner] = mat.get(owner, 0) + acc.count * cost

    regions = []
    pending = []  # (ref_address, const) in reference order
    cursor = base
    violation = None
    threshold = POOL_REACH - 8
    bodies = iter(bodies)
    for pos, b in enumerate(func.blocks):
        if b.kind == "code":
            body = next(bodies)
            pre = (push + fps + alloc) if pos == 0 else 0
            epi = (dealloc + pop) if b.epilogue else 0
            n = pre + body + mat.get(b.index, 0) + epi
            size = INSTR_BYTES * n
            regions.append(Region(cursor, size, "code", b.index, body,
                                  pre, b.epilogue))
            for c in b.consts:
                pending.append((cursor, c))
        else:
            size = b.byte_size
            regions.append(Region(cursor, size, "data", b.index))
        cursor += size
        if pending and (pos in forced or cursor - pending[0][0] > threshold):
            cursor, bad = _emit_pool(regions, pending, cursor)
            if bad and violation is None:
                violation = pos
            pending = []
    if pending:
        cursor, bad = _emit_pool(regions, pending, cursor)
        if bad and violation is None:
            violation = len(func.blocks) - 1
    return regions, violation


def _emit_pool(regions, pending, cursor):
    vals = []
    for _, c in pending:
        if c not in vals:
            vals.append(c)
    pool = Region(cursor, INSTR_BYTES * len(vals), "pool", None,
                  consts=tuple(vals))
    regions.append(pool)
    out_of_reach = any(
        pool.address + INSTR_BYTES * pool.consts.index(c) - ref > POOL_REACH
        for ref, c in pending)
    return cursor + pool.size, out_of_reach


def _layout_function(func, options, base, masks, padding):
    """The function's regions.  masks holds the NOP mask of each code
    block in order, or is None for no NOPs: a block's body is then one
    instruction per mask byte and one more, plus one per fired gap."""
    if masks is None:
        bodies = [b.instr_count for b in func.blocks if b.kind == "code"]
    else:
        bodies = [len(mask) + 1 + mask.count(1) for mask in masks]
    forced = set()
    for _ in range(64):
        regions, violation = _place_function(func, options, base, forced,
                                             bodies, padding)
        if violation is None:
            return regions
        if violation == 0 or violation - 1 in forced:
            break
        forced.add(violation - 1)
    raise LayoutError("pool pass did not converge for %s" % func.identifier)


def _function_lines(func, regions, masks):
    """The line records of the function's code blocks.  A span holding
    instructions lo+1..hi grows by mask.count(1, lo, hi); a block's first
    span also holds any prologue, and its last runs to the block's end."""
    lines = []
    code = [b for b in func.blocks if b.kind == "code"]
    for b, region, mask in zip(code, (r for r in regions if r.kind == "code"),
                               masks or repeat(b"")):
        addr = region.address
        size = INSTR_BYTES * region.pre_extras
        hi = 0
        for span in b.spans[:-1]:
            lo, hi = hi, hi + span.instrs
            size += INSTR_BYTES * (span.instrs + mask.count(1, lo, hi))
            lines.append(LineRecord(addr, size, span.line, span.filenum))
            addr += size
            size = 0
        last = b.spans[-1]
        lines.append(LineRecord(addr, region.address + region.size - addr,
                                last.line, last.filenum))
    return tuple(lines)


def _saved_slot_rules(callee_saved):
    """Post-push rules: cfa offset of each saved register, lr feeds .ra."""
    n = len(callee_saved)
    rules = {".cfa": ("sp", 4 * n, "+")}
    for p, reg in enumerate(callee_saved):
        off = 4 * n - 4 * p
        if reg == "lr":
            rules[".ra"] = (".cfa", -off, "+", "^")
        else:
            rules[reg] = (".cfa", -off, "+", "^")
    if ".ra" not in rules:
        rules[".ra"] = ("lr",)
    return rules


def _function_cfi(func, base, size, regions, padding):
    fr = func.frame
    saved = len(fr.callee_saved)
    total = fr.local_size + padding
    push, fps, alloc = prologue_extras(saved, func.has_fp, total)
    dealloc, pop = epilogue_extras(saved, func.has_fp, total)
    init = {".cfa": ("sp", 0, "+"), ".ra": ("lr",)}
    deltas = []
    a = base
    if push:
        a += INSTR_BYTES
        deltas.append((a, _saved_slot_rules(fr.callee_saved)))
    if fps:
        a += INSTR_BYTES
        deltas.append((a, {".cfa": ("r11", 4 * saved - 4, "+")}))
    if alloc:
        a += INSTR_BYTES * alloc
        if not func.has_fp:
            deltas.append((a, {".cfa": ("sp", 4 * saved + total, "+")}))
    if not func.has_fp and total:
        code = [r for r in regions if r.kind == "code"]
        for i, r in enumerate(code):
            if not r.epilogue:
                continue
            nxt = code[i + 1].address if i + 1 < len(code) else None
            d_addr = r.address + r.size - INSTR_BYTES * pop
            # with no pop the dealloc group ends the block; a delta there
            # would collide with the restore (or fall past the function)
            if d_addr < (nxt if nxt is not None else base + size):
                deltas.append((d_addr, {".cfa": ("sp", 4 * saved, "+")}))
            if nxt is not None:
                deltas.append((nxt, {".cfa": ("sp", 4 * saved + total, "+")}))
    return CfiInitRecord(base, size, init, tuple(deltas))


def _module_id(module_name):
    h = mix64(function_reseed(module_name, 0))
    return "Linux arm %016x%016x0 %s" % (h, mix64(h), module_name)


def layout(model, order, options, paddings, nops=None):
    """Place functions in `order`; derive the image and its symbol file.

    Deterministic: identical inputs give identical results.  paddings
    holds each function's stack padding in model order
    (diversify.function_padding), and nops the NOP mask of each code
    block in model order (diversify._nop_pass), one per gap_keys entry,
    cut per function at gap_first as replicate cuts them: a span holding
    instructions lo+1..hi grows by mask.count(1, lo, hi), as a line
    record does in replicate.  A desynced block's mask is one byte
    longer, which adds its one extra instruction.  The model is laid
    out as if it carried both, without being copied.
    """
    model.valid                 # raises ModelError on a malformed model
    n = len(model.functions)
    if sorted(order) != list(range(n)):
        raise LayoutError("order is not a permutation of 0..%d" % (n - 1))
    if len(paddings) != n or any(p < 0 or p % 8 for p in paddings):
        raise ModelError("paddings must be %d multiples of 8, none negative"
                         % n)
    image = []
    funcs = []
    cfi = []
    cursor = 0
    first = model.gap_first
    for idx in order:
        f = model.functions[idx]
        masks = nops[first[idx]:first[idx + 1]] if nops else None
        padding = paddings[idx]
        fbase = align_up(cursor, f.alignment)
        regions = _layout_function(f, options, fbase, masks, padding)
        size = regions[-1].address + regions[-1].size - fbase
        image.append(FunctionLayout(f, fbase, size, tuple(regions), padding))
        funcs.append(FuncRecord(fbase, size, f.param_size, f.name,
                                _function_lines(f, regions, masks)))
        cfi.append(_function_cfi(f, fbase, size, regions, padding))
        cursor = fbase + size
    sf = SymbolFile(module_id=_module_id(model.module_name),
                    files=tuple(model.files), funcs=tuple(funcs),
                    cfi_regions=tuple(cfi))
    return LayoutResult(tuple(image), sf)


def function_size(func, options, padding):
    """The function's size in bytes laid out alone at address 0, under
    the given stack padding and without NOPs."""
    last = _layout_function(func, options, 0, None, padding)[-1]
    return last.address + last.size


# ---------------------------------------------------------------------------
# Corpus generation


def generate_corpus(seed, n_programs, size_class="small"):
    """Deterministic pseudo-random corpus of program models."""
    if n_programs < 1:
        raise ModelError("n_programs must be >= 1")
    if size_class not in ("small", "medium"):
        raise ModelError("size_class must be small or medium")
    return tuple(_generate_program(seed, i, size_class)
                 for i in range(n_programs))


def _generate_program(seed, index, size_class):
    name = "prog%03d" % index
    rng = Prng(function_reseed(name, seed))
    lo, hi = (8, 64) if size_class == "small" else (64, 512)
    n_funcs = rng.range(lo, hi)
    files = tuple((i, "src/%s_%d.c" % (name, i))
                  for i in range(1, rng.range(2, 4)))

    # Call DAG first: callers must save lr.
    edges = {i: [] for i in range(n_funcs)}
    for i in range(n_funcs):
        for j in range(i + 1, min(i + 9, n_funcs)):
            if rng.chance(25):
                edges[i].append(j)

    fnames = ["fn%03d_%04x" % (i, rng.below(1 << 16)) for i in range(n_funcs)]
    functions = []
    for i in range(n_funcs):
        functions.append(_generate_function(rng, fnames, files, i, edges[i]))
    model = ProgramModel(name, files, tuple(functions))
    model.valid                 # raises ModelError on a malformed model
    return model


def _generate_function(rng, fnames, files, i, callees):
    name = fnames[i]
    alignment = 4 if rng.chance(70) else (8 if rng.chance(67) else 16)
    filenum = rng.choice([fn for fn, _ in files])
    n_blocks = rng.range(1, 40)
    line = rng.range(1, 60)
    blocks = []
    for bi in range(n_blocks):
        if bi > 0 and rng.chance(10):
            blocks.append(BlockModel("data", bi, byte_size=4 * rng.range(1, 16)))
            continue
        spans = []
        for _ in range(rng.range(1, 3)):
            spans.append(LineSpan(line, filenum, rng.range(1, 66)))
            line += rng.range(1, 9)
        blocks.append(BlockModel("code", bi, spans=tuple(spans)))
    code_positions = [b.index for b in blocks if b.kind == "code"]
    blocks[code_positions[-1]] = replace(blocks[code_positions[-1]], epilogue=True)
    if len(code_positions) > 2 and rng.chance(10):
        extra = rng.choice(code_positions[:-1])
        blocks[extra] = replace(blocks[extra], epilogue=True)
    if rng.chance(30):
        carrier = rng.choice(code_positions)
        consts = tuple(rng.next() & 0xFFFFFFFF for _ in range(rng.range(1, 4)))
        blocks[carrier] = replace(blocks[carrier], consts=consts)

    r = rng.below(100)
    if r < 25:
        local = 0
    elif r < 90:
        local = 4 * rng.range(1, 128)
    else:
        local = rng.choice([1024, 2048, 4096, 8192, 16384])
    has_fp = rng.chance(30)
    saved = set(rng.choice(SAVEABLE[:8]) for _ in range(rng.below(6)))
    if callees or rng.chance(50):
        saved.add("lr")
    if has_fp:
        saved.update(("r11", "lr"))
    callee_saved = tuple(r for r in SAVEABLE if r in saved)

    accesses = []
    if local:
        span_lines = [s.line for b in blocks if b.kind == "code" for s in b.spans]
        for _ in range(rng.below(5)):
            accesses.append(StackAccess(4 * rng.below(local // 4),
                                        rng.range(1, 3), rng.choice(span_lines)))
        if local >= 4096:
            # accesses straddling the LD/ST range boundary, so padding
            # can flip their base choice / materialization cost
            for _ in range(2):
                off = max(0, local - 4 * rng.range(925, 1050))
                accesses.append(StackAccess(off, rng.range(1, 2),
                                            rng.choice(span_lines)))

    call_sites = []
    for j in callees:
        cb = rng.choice(code_positions)
        call_sites.append((cb, rng.below(blocks[cb].instr_count), fnames[j]))

    return FunctionModel(
        name=name, object_name=name + ".o", section_name=".text." + name,
        alignment=alignment, has_fp=has_fp,
        frame=FrameModel(local, callee_saved, tuple(accesses)),
        blocks=tuple(blocks), call_sites=tuple(call_sites),
        param_size=rng.choice([0, 0, 0, 4, 8]))


# ---------------------------------------------------------------------------
# Model text format (documented in docs/formats.md)


def emit_model(model):
    out = ["MODEL v1 %s" % model.module_name]
    for fn, path in model.files:
        out.append("FILE %d %s" % (fn, path))
    for f in model.functions:
        out.append("FUNCTION align=%d fp=%d param=%d object=%s section=%s name=%s"
                   % (f.alignment, int(f.has_fp), f.param_size,
                      f.object_name, f.section_name, f.name))
        saved = ",".join(f.frame.callee_saved) or "-"
        out.append("FRAME local=%d saved=%s" % (f.frame.local_size, saved))
        for a in f.frame.accesses:
            out.append("ACCESS %d %d %d" % (a.offset, a.count, a.source_line))
        for bi, ii, callee in f.call_sites:
            out.append("CALL %d %d %s" % (bi, ii, callee))
        for b in f.blocks:
            if b.kind == "code":
                out.append("BLOCK code %d%s" % (b.index, " epilogue" if b.epilogue else ""))
                for s in b.spans:
                    out.append("SPAN %d %d %d" % (s.line, s.filenum, s.instrs))
                for c in b.consts:
                    out.append("CONST %x" % c)
            else:
                out.append("BLOCK data %d %d" % (b.index, b.byte_size))
    return "\n".join(out) + "\n"


def _model_function(st, toks, line):
    align, fp, param, obj, section, name = fields(
        line, "align", "fp", "param", "object", "section", "name")
    st.functions.append(dict(
        name=name, object_name=obj, section_name=section,
        alignment=int(align), has_fp=bool(int(fp)), param_size=int(param),
        frame=FrameModel(), accesses=[], blocks=[], call_sites=[]))


def _model_frame(st, toks, line):
    local, saved = fields(line, "local", "saved")
    f = st.functions[-1]
    f["frame"] = replace(f["frame"], local_size=int(local),
                         callee_saved=() if saved == "-" else tuple(saved.split(",")))


def _model_block(st, toks, line):
    if toks[1] == "code" and toks[3:] in ([], ["epilogue"]):
        b = ["code", int(toks[2]), [], [], 0, len(toks) == 4]
    elif toks[1] == "data" and len(toks) == 4:
        b = ["data", int(toks[2]), [], [], int(toks[3]), False]
    else:
        raise ValueError("not a code or data block")
    st.functions[-1]["blocks"].append(b)


# Each function under construction is a dict of FunctionModel fields, and
# each block a list of BlockModel fields; lists stand for tuples.
_MODEL_RECORDS = {
    "FILE": lambda st, toks, line: st.files.append(
        (int(toks[1]), line.split(" ", 2)[2])),
    "FUNCTION": _model_function,
    "FRAME": _model_frame,
    "ACCESS": lambda st, toks, line: st.functions[-1]["accesses"].append(
        StackAccess(int(toks[1]), int(toks[2]), int(toks[3]))),
    "CALL": lambda st, toks, line: st.functions[-1]["call_sites"].append(
        (int(toks[1]), int(toks[2]), toks[3])),
    "BLOCK": _model_block,
    "SPAN": lambda st, toks, line: st.functions[-1]["blocks"][-1][2].append(
        LineSpan(int(toks[1]), int(toks[2]), int(toks[3]))),
    "CONST": lambda st, toks, line: st.functions[-1]["blocks"][-1][3].append(
        int(toks[1], 16)),
}


def parse_model(text):
    st = SimpleNamespace(files=[], functions=[])
    module_name = read_records(text, "MODEL v1", _MODEL_RECORDS, st, ModelError)
    functions = []
    for f in st.functions:
        functions.append(FunctionModel(
            frame=replace(f.pop("frame"), accesses=tuple(f.pop("accesses"))),
            blocks=tuple(BlockModel(kind, i, tuple(spans), tuple(consts), size, epi)
                         for kind, i, spans, consts, size, epi in f.pop("blocks")),
            call_sites=tuple(f.pop("call_sites")), **f))
    model = ProgramModel(module_name, tuple(st.files), tuple(functions))
    model.valid                 # raises ModelError on a malformed model
    return model
