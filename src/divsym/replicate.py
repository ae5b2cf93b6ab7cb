"""Server-side imperfect replication of a diversification run.

Transforms the default symbol file into an approximation of the
diversified one using only the opportunity log and the seeds.  Only
direct effects are modeled:

* padding replay rewrites frame-size CFI constants and resizes the
  prologue/epilogue allocation groups by the predicted sp-adjust
  instruction-count change;
* NOP replay regenerates each code block's NOP mask (one byte per
  gap, 1 where a NOP goes) and grows each line record by the count of
  ones over its own instructions, shifting everything after it;
* shuffle replay reorders functions and reassigns base addresses from
  the logged alignments.

Access-instruction cost changes, pool movement and CFG perturbations
are deliberately not modeled; the patch closes the residue.

The work splits in two.  ReplicationPlan(default_sf, log, options)
does the seed-free part once: it pairs each FUNC and CFI region with
its log function, partitions the line records by log block, derives
each record's body and the materialisation bytes of each block's last
record, the old block spans, which block each CFI delta moves with,
and the draw key of each code block in model order, the keys the
build draws too, whose draw plan (diversify.draw_plan) it builds.  All
of it depends only on the default file, the log and
options.default_padding, and every check of the inputs runs here.
plan.replicate(seeds, options) does the seeded part: the paddings, the
link order, one gap_decisions call, whose masks come in model order
and are read per function as a slice, the per-span NOP counts, the
line records, the base addresses and the CFI moves.  After a build
with the same seeds the call draws nothing.  replicate() keeps the
last plan in one slot, the only place a
plan is kept; the delta writer, report() and every SymbolServer
replicate through it, so calls with the same default file and log
objects build it once.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from divsym.diversify import (LogFunction, draw_plan, function_order,
                              function_padding, gap_decisions)
from divsym.errors import ReplicationInputError
from divsym.progmodel import (INSTR_BYTES, align_up, epilogue_extras,
                              prologue_extras)
from divsym.symfile import CfiInitRecord, FuncRecord, LineRecord, SymbolFile

# Where a CFI delta goes (_FunctionPlan.deltas): to the new end of the
# prologue's allocation, to a distance before a code block's new end,
# to an offset from a code block's new start, or nowhere (it keeps its
# offset).
_AT_ALLOC, _BEFORE_END, _FROM_START, _KEPT = range(4)


def _pair_records(default_sf, log):
    if len(default_sf.funcs) != len(log.functions):
        raise ReplicationInputError(
            "log has %d functions, symbol file has %d"
            % (len(log.functions), len(default_sf.funcs)))
    if len(default_sf.cfi_regions) != len(default_sf.funcs):
        raise ReplicationInputError("one CFI region per FUNC expected")
    pairs = []
    for func, cfi, lf in zip(default_sf.funcs, default_sf.cfi_regions,
                             log.functions):
        if not lf.identifier:
            raise ReplicationInputError(
                "log function for FUNC %s has no identifier" % func.name)
        if cfi.address != func.address or cfi.size != func.size:
            raise ReplicationInputError(
                "FUNC/CFI mismatch at %x" % func.address)
        total = sum(INSTR_BYTES * b.size if b.kind == "code" else b.size
                    for b in lf.blocks)
        if total != func.size:
            raise ReplicationInputError(
                "log blocks cover %d bytes, FUNC %s has %d"
                % (total, func.name, func.size))
        pairs.append((func, cfi, lf))
    return pairs


def _block_records(func, lf):
    """Partition a function's line records by log block, in order."""
    out = []
    lines = func.lines
    li = 0
    for b in lf.blocks:
        if b.kind != "code":
            out.append((b, ()))
            continue
        want = INSTR_BYTES * b.size
        got = 0
        start = li
        while got < want and li < len(lines):
            got += lines[li][1]
            li += 1
        if got != want:
            raise ReplicationInputError(
                "line records do not tile blocks of %s" % func.name)
        if li == start:
            raise ReplicationInputError(
                "code block %d of %s is empty" % (b.index, func.name))
        out.append((b, lines[start:li]))
    if li != len(lines):
        raise ReplicationInputError("trailing line records in %s" % func.name)
    return out


class _FunctionPlan(NamedTuple):
    """The seed-free facts of one function."""
    func: FuncRecord          # the default file's own records
    cfi: CfiInitRecord
    lf: LogFunction
    # One entry per code block: (bytes of data and pools before it,
    # ((lo, hi, base, extras), ...) for each of its line records, in the
    # order of func.lines).  A record's NOPs are the ones of its block's
    # mask in [lo, hi); its new size is base (its body, plus the
    # materialisation bytes on a block's last record) plus 4 per NOP
    # plus the seeded extras: bit 0 the prologue's, bit 1 an
    # epilogue's.  Equal entries are one object (ReplicationPlan).
    blocks: tuple
    tail: int                 # bytes of data and pools after them
    # One entry per CFI delta: (where, block, offset, rules, resize)
    # with `where` one of _AT_ALLOC.._KEPT; resize is set when its .cfa
    # rule is the default frame's, which the new padding resizes.
    deltas: tuple


def _plan_function(func, cfi, lf, options, share):
    total_def = lf.local_size + function_padding(lf.identifier, None, options)
    push, fps, alloc_def = prologue_extras(lf.saved_count, lf.has_fp, total_def)
    dealloc_def, pop = epilogue_extras(lf.saved_count, lf.has_fp, total_def)
    base = func.address
    blocks = []
    spans = []          # (old start, old end) of each code block
    epilogues = []      # the code block number of each epilogue block
    gap = 0
    for b, recs in _block_records(func, lf):
        if b.kind != "code":
            gap += b.size
            continue
        # a body longer than its block fails the placement below;
        # refusing it first bounds the draws by the symbol file's size
        if b.model_instrs > b.size:
            raise ReplicationInputError(
                "record/extras mismatch in %s block %d" % (func.name, b.index))
        pre_def = (push + fps + alloc_def) if not blocks else 0
        post_def = (dealloc_def + pop) if b.epilogue else 0
        first = 0 if spans else 1   # the first code block carries the prologue
        last = len(recs) - 1
        items = []
        lo = 0
        for j in range(last):
            body = recs[j][1] // INSTR_BYTES - (pre_def if j == 0 else 0)
            if body < 0:
                raise ReplicationInputError(
                    "record/extras mismatch in %s block %d" % (func.name, b.index))
            item = (lo, lo + body, INSTR_BYTES * body, first if j == 0 else 0)
            items.append(share(item, item))
            lo += body
        body = b.model_instrs - lo
        if body < 0:
            raise ReplicationInputError(
                "record/extras mismatch in %s block %d" % (func.name, b.index))
        mat_bytes = recs[-1][1] - INSTR_BYTES * (
            body + post_def + (pre_def if last == 0 else 0))
        if mat_bytes < 0:
            raise ReplicationInputError(
                "record/extras mismatch in %s block %d" % (func.name, b.index))
        item = (lo, lo + body, INSTR_BYTES * body + mat_bytes,
                (first if last == 0 else 0) | 2 * b.epilogue)
        items.append(share(item, item))
        if b.epilogue:
            epilogues.append(len(spans))
        spans.append((recs[0].address - base,
                       recs[-1].address + recs[-1].size - base))
        items = tuple(items)
        block = (gap, share(items, items))
        blocks.append(share(block, block))
        gap = 0

    # A CFI delta keeps its offset from its code block's start, or its
    # offset if no code block holds it.  Without a frame pointer, two
    # kinds follow the resized sp-adjust groups instead: the end of the
    # prologue's allocation, and the pop after each epilogue's
    # deallocation, which keeps its distance from the block end.
    moved = {}
    if not lf.has_fp and total_def:
        moved[INSTR_BYTES * (push + alloc_def)] = (_AT_ALLOC, 0, 0)
        for k in epilogues:
            moved[spans[k][1] - INSTR_BYTES * pop] = \
                (_BEFORE_END, k, INSTR_BYTES * pop)
    frame_cfa = ("sp", 4 * lf.saved_count + total_def, "+")
    starts = [start for start, _ in spans]    # sorted, spans disjoint
    deltas = []
    for addr, rules in cfi.deltas:
        off = addr - base
        where = moved.get(off)
        if where is None:
            k = bisect_right(starts, off) - 1
            where = (_FROM_START, k, off - starts[k]) \
                if k >= 0 and off < spans[k][1] else (_KEPT, 0, off)
        deltas.append((*where, rules,
                       bool(total_def) and rules.get(".cfa") == frame_cfa))
    return _FunctionPlan(func, cfi, lf, tuple(blocks), gap,
                         tuple(deltas))


class ReplicationPlan:
    """The seed-free part of replicating one default build.

    Built once from the default symbol file, the opportunity log and
    options.default_padding, which is all it depends on; a log that
    does not fit the file raises ReplicationInputError here.  It holds
    the file and the log themselves, and reads the file's own records
    rather than copies; of the facts it derives, equal ones are one
    object, which saves about 40% of its size.  replicate(seeds, options)
    may run any number of times, from any thread: it reads the plan and
    never changes it.
    """

    def __init__(self, default_sf, log, options):
        self.default_sf = default_sf
        self.log = log
        self.default_padding = options.default_padding
        share = {}.setdefault       # share(v, v): the first value equal to v
        self.functions = tuple(_plan_function(func, cfi, lf, options, share)
                               for func, cfi, lf in
                               _pair_records(default_sf, log))
        # the draw key of every code block, in model order, as the build
        # draws them (ProgramModel.gap_keys), and the index of each
        # function's first one; their draw plan is built here
        self.keys, _ = draw_plan((lf.identifier, b.index, b.model_instrs - 1)
                                 for lf in log.functions for b in lf.blocks
                                 if b.kind == "code")
        self.first = tuple(accumulate(
            (len(fp.blocks) for fp in self.functions), initial=0))

    def replicate(self, seeds, options):
        """Approximate diversified symbol file for seeds and options, whose
        default_padding must be the plan's."""
        if options.default_padding != self.default_padding:
            raise ReplicationInputError(
                "plan built for default_padding=%s" % self.default_padding)
        fplans = self.functions
        order = function_order(len(fplans), seeds, options)
        masks = gap_decisions(self.keys, seeds.nop_seed, options.nop_num,
                              options.nop_den)
        first = self.first
        funcs = []
        cfi_regions = []
        cursor = 0
        for idx in order:
            f, c = _replicate_function(fplans[idx], seeds, options,
                                       align_up(cursor, fplans[idx].lf.alignment),
                                       masks[first[idx]:first[idx + 1]])
            funcs.append(f)
            cfi_regions.append(c)
            cursor = f.address + f.size
        sf = self.default_sf
        return SymbolFile(module_id=sf.module_id, files=sf.files,
                          funcs=tuple(funcs), cfi_regions=tuple(cfi_regions),
                          publics=sf.publics)


def _replicate_function(fp, seeds, options, fbase, masks):
    """(FuncRecord, CfiInitRecord) of one planned function placed at
    fbase; `masks` holds the NOP mask of each of its code blocks in
    order."""
    func, cfi, lf, blocks, tail, planned_deltas = fp
    total_new = lf.local_size + function_padding(lf.identifier, seeds, options)
    push, fps, alloc_new = prologue_extras(lf.saved_count, lf.has_fp, total_new)
    dealloc_new, pop = epilogue_extras(lf.saved_count, lf.has_fp, total_new)
    pre = INSTR_BYTES * (push + fps + alloc_new)
    post = INSTR_BYTES * (dealloc_new + pop)
    extras = (0, pre, post, pre + post)

    new_lines = []
    append = new_lines.append
    spans = []          # (new start, new end) of each code block
    cursor = 0
    recs = iter(func.lines)
    for (gap, items), mask in zip(blocks, masks):
        cursor += gap
        start = cursor
        # zip takes the next item first, so recs stays at the next block
        for (lo, hi, size, extra), r in zip(items, recs):
            size += INSTR_BYTES * mask.count(1, lo, hi) + extras[extra]
            append(LineRecord(fbase + cursor, size, r[2], r[3]))
            cursor += size
        spans.append((start, cursor))
    cursor += tail

    new_cfa = ("sp", 4 * lf.saved_count + total_new, "+")
    deltas = {}   # new offset -> rules; the last delta written wins
    for where, k, off, rules, resize in planned_deltas:
        if where == _FROM_START:
            off += spans[k][0]
        elif where == _BEFORE_END:
            off = spans[k][1] - off
        elif where == _AT_ALLOC:
            off = INSTR_BYTES * (push + alloc_new)
        if off < cursor:
            rules = dict(rules)
            if resize:
                rules[".cfa"] = new_cfa
            deltas[off] = rules
    return (FuncRecord(fbase, cursor, func.param_size, func.name,
                       tuple(new_lines)),
            CfiInitRecord(fbase, cursor, dict(cfi.init_rules),
                          tuple((fbase + off, rules)
                                for off, rules in sorted(deltas.items()))))


# The plan of the last replicate() call, or None.  It holds its default
# file and log strongly and is matched to them with `is`, so an equal
# but distinct file or log builds a new plan; a call with other inputs
# replaces it in one assignment, and a plan whose build failed is never
# kept.
_last_plan = None


def plan_for(default_sf, log, options):
    """The plan of default_sf, log and options.default_padding: the last
    one built if it matches, else a new one, which is kept."""
    global _last_plan
    plan = _last_plan
    if plan is None or plan.default_sf is not default_sf \
            or plan.log is not log \
            or plan.default_padding != options.default_padding:
        plan = ReplicationPlan(default_sf, log, options)
        _last_plan = plan
    return plan


def replicate(default_sf, log, seeds, options):
    """Approximate diversified symbol file from default + log + seeds."""
    return plan_for(default_sf, log, options).replicate(seeds, options)
