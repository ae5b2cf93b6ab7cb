"""Server-side imperfect replication of a diversification run.

Transforms the default symbol file into an approximation of the
diversified one using only the opportunity log and the seeds.  Only
direct effects are modeled:

* padding replay rewrites frame-size CFI constants and resizes the
  prologue/epilogue allocation groups by the predicted sp-adjust
  instruction-count change;
* NOP replay regenerates the per-block gap decisions and grows the line
  record containing each gap, shifting everything after it;
* shuffle replay reorders functions and reassigns base addresses from
  the logged alignments.

Access-instruction cost changes, pool movement and CFG perturbations
are deliberately not modeled; the patch closes the residue.
"""

from __future__ import annotations

from dataclasses import dataclass

from divsym.diversify import (DEFAULT_PAD, bucket_gaps, gap_decisions,
                              pad_amount, shuffle_permutation)
from divsym.errors import ReplicationInputError
from divsym.progmodel import (INSTR_BYTES, align_up, epilogue_extras,
                              prologue_extras)
from divsym.symfile import CfiInitRecord, FuncRecord, LineRecord, SymbolFile


@dataclass(frozen=True)
class _Bundle:
    """One function rebuilt with function-relative addresses."""
    name: str
    param_size: int
    alignment: int
    size: int
    lines: tuple           # offsets relative to the function base
    init_rules: dict
    deltas: tuple


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


def _replicate_function(func, cfi, lf, seeds, options):
    ident = lf.identifier
    defpad = DEFAULT_PAD if options.default_padding else 0
    if options.pad_scheme:
        newpad = pad_amount(ident, seeds.pad_seed, False)
    else:
        newpad = defpad
    total_def = lf.local_size + defpad
    total_new = lf.local_size + newpad
    push, fps, alloc_def = prologue_extras(lf.saved_count, lf.has_fp, total_def)
    _, _, alloc_new = prologue_extras(lf.saved_count, lf.has_fp, total_new)
    dealloc_def, pop = epilogue_extras(lf.saved_count, lf.has_fp, total_def)
    dealloc_new, _ = epilogue_extras(lf.saved_count, lf.has_fp, total_new)
    base = func.address

    new_lines = []
    cursor = 0
    # per-block offset maps for CFI anchor rewriting
    first_code = True
    old_starts = {}
    new_starts = {}
    old_ends = {}
    new_ends = {}
    code_order = []
    for b, recs in _block_records(func, lf):
        if b.kind != "code":
            cursor += b.size
            continue
        pre_def = (push + fps + alloc_def) if first_code else 0
        pre_new = (push + fps + alloc_new) if first_code else 0
        post_def = (dealloc_def + pop) if b.epilogue else 0
        post_new = (dealloc_new + pop) if b.epilogue else 0
        first_code = False

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

        gaps = gap_decisions(ident, b.index, b.model_instrs - 1,
                             seeds.nop_seed, options.nop_num, options.nop_den)
        nops = bucket_gaps(gaps, bodies)

        old_starts[b.index] = recs[0].address - base
        old_ends[b.index] = recs[-1].address + recs[-1].size - base
        new_starts[b.index] = cursor
        code_order.append(b.index)
        for j, r in enumerate(recs):
            size = INSTR_BYTES * (bodies[j] + nops[j])
            if j == 0:
                size += INSTR_BYTES * pre_new
            if j == len(recs) - 1:
                size += mat_bytes + INSTR_BYTES * post_new
            new_lines.append(LineRecord(cursor, size, r.line, r.filenum))
            cursor += size
        new_ends[b.index] = cursor
    new_size = cursor

    deltas = _rewrite_cfi(func, cfi, lf, push, fps, alloc_def, alloc_new,
                          dealloc_def, dealloc_new, pop, total_def, total_new,
                          old_starts, new_starts, old_ends, new_ends,
                          code_order, new_size)
    return _Bundle(func.name, func.param_size, lf.alignment, new_size,
                   tuple(new_lines), dict(cfi.init_rules), tuple(deltas))


def _rewrite_cfi(func, cfi, lf, push, fps, alloc_def, alloc_new,
                 dealloc_def, dealloc_new, pop, total_def, total_new,
                 old_starts, new_starts, old_ends, new_ends, code_order,
                 new_size):
    base = func.address
    # structural anchors: old function-relative offset -> new offset
    anchors = {}
    if push:
        anchors[INSTR_BYTES] = INSTR_BYTES
    if fps:
        anchors[INSTR_BYTES * (push + fps)] = INSTR_BYTES * (push + fps)
    if alloc_def and not lf.has_fp:
        anchors[INSTR_BYTES * (push + fps + alloc_def)] = \
            INSTR_BYTES * (push + fps + alloc_new)
    if not lf.has_fp and total_def:
        for i, bi in enumerate(code_order):
            blk = next(b for b in lf.blocks if b.index == bi)
            if not blk.epilogue:
                continue
            anchors[old_ends[bi] - INSTR_BYTES * pop] = \
                new_ends[bi] - INSTR_BYTES * pop
            if i + 1 < len(code_order):
                nbi = code_order[i + 1]
                anchors[old_starts[nbi]] = new_starts[nbi]

    frame_const = 4 * lf.saved_count + total_def

    def rewrite_rules(rules):
        expr = rules.get(".cfa")
        if (total_def and expr == ("sp", frame_const, "+")):
            rules = dict(rules)
            rules[".cfa"] = ("sp", 4 * lf.saved_count + total_new, "+")
        return rules

    out = []
    for addr, rules in cfi.deltas:
        off = addr - base
        if off in anchors:
            new_off = anchors[off]
        else:
            # carry the block-relative position; desynced shapes are
            # closed by the patch
            new_off = off
            for bi in code_order:
                if old_starts[bi] <= off < old_ends[bi]:
                    new_off = new_starts[bi] + (off - old_starts[bi])
                    break
        if new_off < new_size:
            out.append((new_off, rewrite_rules(dict(rules))))
    out.sort(key=lambda d: d[0])
    # drop duplicate addresses introduced by fallback mapping
    dedup = []
    for addr, rules in out:
        if dedup and dedup[-1][0] == addr:
            dedup[-1] = (addr, rules)
        else:
            dedup.append((addr, rules))
    return dedup


def replicate(default_sf, log, seeds, options):
    """Approximate diversified symbol file from default + log + seeds."""
    pairs = _pair_records(default_sf, log)
    bundles = [_replicate_function(func, cfi, lf, seeds, options)
               for func, cfi, lf in pairs]
    n = len(bundles)
    if options.shuffle_scheme and n:
        order = shuffle_permutation(n, seeds.shuffle_seed)
    else:
        order = list(range(n))
    funcs = []
    cfi_regions = []
    cursor = 0
    for idx in order:
        b = bundles[idx]
        fbase = align_up(cursor, b.alignment)
        funcs.append(FuncRecord(
            fbase, b.size, b.param_size, b.name,
            tuple(LineRecord(fbase + ln.address, ln.size, ln.line, ln.filenum)
                  for ln in b.lines)))
        cfi_regions.append(CfiInitRecord(
            fbase, b.size, b.init_rules,
            tuple((fbase + off, rules) for off, rules in b.deltas)))
        cursor = fbase + b.size
    return SymbolFile(module_id=default_sf.module_id, files=default_sf.files,
                      funcs=tuple(funcs), cfi_regions=tuple(cfi_regions),
                      publics=default_sf.publics)
