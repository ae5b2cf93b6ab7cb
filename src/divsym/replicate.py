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
"""

from __future__ import annotations

from divsym.diversify import (function_order, function_padding,
                              gap_decisions, span_counts)
from divsym.errors import ReplicationInputError
from divsym.progmodel import (INSTR_BYTES, align_up, epilogue_extras,
                              prologue_extras)
from divsym.symfile import CfiInitRecord, FuncRecord, LineRecord, SymbolFile


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
    li = 0
    for b in lf.blocks:
        if b.kind != "code":
            out.append((b, ()))
            continue
        want = INSTR_BYTES * b.size
        got = 0
        recs = []
        while got < want:
            if li >= len(func.lines):
                raise ReplicationInputError(
                    "line records do not tile blocks of %s" % func.name)
            recs.append(func.lines[li])
            got += func.lines[li].size
            li += 1
        if got != want:
            raise ReplicationInputError(
                "line records do not tile blocks of %s" % func.name)
        out.append((b, tuple(recs)))
    if li != len(func.lines):
        raise ReplicationInputError("trailing line records in %s" % func.name)
    return out


def _replicate_function(func, cfi, lf, seeds, options, fbase, masks):
    """(FuncRecord, CfiInitRecord) of one function placed at fbase;
    `masks` yields the NOP mask of each of its code blocks in order."""
    total_def = lf.local_size + function_padding(lf.identifier, None, options)
    total_new = lf.local_size + function_padding(lf.identifier, seeds, options)
    push, fps, alloc_def = prologue_extras(lf.saved_count, lf.has_fp, total_def)
    _, _, alloc_new = prologue_extras(lf.saved_count, lf.has_fp, total_new)
    dealloc_def, pop = epilogue_extras(lf.saved_count, lf.has_fp, total_def)
    dealloc_new, _ = epilogue_extras(lf.saved_count, lf.has_fp, total_new)
    base = func.address

    new_lines = []
    # one entry per code block: (block, old_start, old_end, new_start,
    # new_end), relative to the function base
    placed = []
    cursor = 0
    for b, recs in _block_records(func, lf):
        if b.kind != "code":
            cursor += b.size
            continue
        pre_def = (push + fps + alloc_def) if not placed else 0
        pre_new = (push + fps + alloc_new) if not placed else 0
        post_def = (dealloc_def + pop) if b.epilogue else 0
        post_new = (dealloc_new + pop) if b.epilogue else 0

        bodies = []
        for j, r in enumerate(recs):
            if j < len(recs) - 1:
                body = r.size // INSTR_BYTES - (pre_def if j == 0 else 0)
            else:
                body = b.model_instrs - sum(bodies)
            if body < 0:
                raise ReplicationInputError(
                    "record/extras mismatch in %s block %d" % (func.name, b.index))
            bodies.append(body)
        mat_bytes = recs[-1].size - INSTR_BYTES * (
            bodies[-1] + post_def + (pre_def if len(recs) == 1 else 0))
        if mat_bytes < 0:
            raise ReplicationInputError(
                "record/extras mismatch in %s block %d" % (func.name, b.index))

        nops = span_counts(next(masks), bodies)

        new_start = cursor
        for j, r in enumerate(recs):
            size = INSTR_BYTES * (bodies[j] + nops[j])
            if j == 0:
                size += INSTR_BYTES * pre_new
            if j == len(recs) - 1:
                size += mat_bytes + INSTR_BYTES * post_new
            new_lines.append(LineRecord(fbase + cursor, size, r.line,
                                        r.filenum))
            cursor += size
        old_end = recs[-1].address + recs[-1].size - base
        placed.append((b, recs[0].address - base, old_end, new_start, cursor))

    # A CFI delta keeps its offset from its code block's start, or its
    # offset if no code block holds it.  Without a frame pointer, two
    # kinds follow the resized sp-adjust groups instead: the end of the
    # prologue's allocation, and the pop after each epilogue's
    # deallocation, which keeps its distance from the block end.
    moved = {}
    if not lf.has_fp and total_def:
        moved[INSTR_BYTES * (push + alloc_def)] = \
            INSTR_BYTES * (push + alloc_new)
        for b, _, old_end, _, new_end in placed:
            if b.epilogue:
                moved[old_end - INSTR_BYTES * pop] = new_end - INSTR_BYTES * pop
    frame_cfa = ("sp", 4 * lf.saved_count + total_def, "+")
    deltas = {}   # new offset -> rules; the last delta written wins
    for addr, rules in cfi.deltas:
        off = addr - base
        new_off = moved.get(off)
        if new_off is None:
            new_off = next((new_start + off - old_start
                            for _, old_start, old_end, new_start, _ in placed
                            if old_start <= off < old_end), off)
        if new_off < cursor:
            rules = dict(rules)
            if total_def and rules.get(".cfa") == frame_cfa:
                rules[".cfa"] = ("sp", 4 * lf.saved_count + total_new, "+")
            deltas[new_off] = rules
    return (FuncRecord(fbase, cursor, func.param_size, func.name,
                       tuple(new_lines)),
            CfiInitRecord(fbase, cursor, dict(cfi.init_rules),
                          tuple((fbase + off, rules)
                                for off, rules in sorted(deltas.items()))))


def replicate(default_sf, log, seeds, options):
    """Approximate diversified symbol file from default + log + seeds."""
    pairs = _pair_records(default_sf, log)
    order = function_order(len(pairs), seeds, options)
    keys = []
    for idx in order:
        func, _, lf = pairs[idx]
        for b in lf.blocks:
            if b.kind == "code":
                # a body longer than its block fails the placement
                # below; refusing it first bounds the draws by the
                # symbol file's size
                if b.model_instrs > b.size:
                    raise ReplicationInputError(
                        "record/extras mismatch in %s block %d"
                        % (func.name, b.index))
                keys.append((lf.identifier, b.index, b.model_instrs - 1))
    masks = iter(gap_decisions(keys, seeds.nop_seed, options.nop_num,
                               options.nop_den))
    funcs = []
    cfi_regions = []
    cursor = 0
    for idx in order:
        func, cfi, lf = pairs[idx]
        f, c = _replicate_function(func, cfi, lf, seeds, options,
                                   align_up(cursor, lf.alignment), masks)
        funcs.append(f)
        cfi_regions.append(c)
        cursor = f.address + f.size
    return SymbolFile(module_id=default_sf.module_id, files=default_sf.files,
                      funcs=tuple(funcs), cfi_regions=tuple(cfi_regions),
                      publics=default_sf.publics)
