"""The three diversification decision processes and the build drivers.

Padding, NOP insertion and function shuffling are driven by SplitMix64
streams.  Padding and NOP decisions reseed per function (and per block)
from a hash of the function's immutable identifier, so a decision never
depends on anything another function did: the crash server can replay
each function independently, and any desynchronization stays contained.

The default build runs the same tool chain with no diversification and
records the opportunity log; the diversified build additionally records
its decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import contains, itemgetter
from types import SimpleNamespace

from divsym._speed import FNV_PRIME, MASK64, DrawPlan, fnv1a64, mix64
from divsym.errors import ModelError
from divsym.prng import Prng
from divsym.progmodel import (ALIGNMENTS, INSTR_BYTES, SAVEABLE, BuildOptions,
                              layout)
from divsym.records import fields, read_records

__all__ = [
    "SeedTuple", "function_padding",
    "function_order", "draw_plan", "gap_decisions", "clear_gap_memo",
    "shuffle_permutation", "desync_blocks", "build_default",
    "build_diversified", "OpportunityLog", "LogFunction", "LogBlock",
    "DecisionLog", "log_from_layout", "emit_opportunity_log",
    "parse_opportunity_log", "emit_decision_log", "mask_gaps",
]

PAD_CHOICES = 32          # padding in {8, 16, ..., 256}
DEFAULT_PAD = 8


@dataclass(frozen=True)
class SeedTuple:
    pad_seed: int
    nop_seed: int
    shuffle_seed: int


@dataclass(frozen=True)
class LogBlock:
    kind: str                 # "code" | "data" | "pool"
    index: int = -1           # model block index; -1 for pools
    size: int = 0             # instructions (code) or bytes (data/pool)
    model_instrs: int = 0     # code: body instruction count driving replay
    epilogue: bool = False


@dataclass(frozen=True)
class LogFunction:
    identifier: str
    alignment: int
    local_size: int
    saved_count: int
    has_fp: bool
    blocks: tuple


@dataclass(frozen=True)
class OpportunityLog:
    module_name: str
    functions: tuple


@dataclass(frozen=True)
class DecisionLog:
    """The diversified build's decisions.  `nops` holds the NOP mask of
    each code block with at least one NOP, as gap_decisions gives it:
    byte g-1 is 1 where gap g got a NOP (mask_gaps lists those g)."""
    module_name: str
    paddings: tuple           # ((identifier, bytes), ...)
    nops: tuple               # ((identifier, block_index, mask), ...)
    order: tuple
    desyncs: tuple            # ((identifier, block_index), ...)


def function_padding(identifier, seeds, options):
    """Stack padding for one function: the padding scheme's draw, 8..256
    from the identifier and the pad seed, when `seeds` is given and the
    scheme is on; else the default build's padding, DEFAULT_PAD or 0
    without default padding.  `seeds` None means the default build.
    Never depends on compilation order."""
    if seeds is not None and options.pad_scheme:
        if not identifier:
            raise ValueError("empty function identifier")
        return 8 * (1 + _reseed(identifier, b"", seeds.pad_seed)
                    % PAD_CHOICES)
    return DEFAULT_PAD if options.default_padding else 0


# Identifiers whose hash is cached: four times the functions of the
# largest generated program, about 240 KB besides the identifiers
# themselves.
BLOCK_HASH_CACHE = 2048


@lru_cache(maxsize=BLOCK_HASH_CACHE)
def _identifier_hash(identifier):
    """FNV-1a-64 of the identifier, hashed once per function: the
    padding draw starts from it, and the hashes of its blocks' keys and
    of its desync draw continue it (_prefix)."""
    return fnv1a64(identifier.encode("utf-8"))


def _prefix(identifier, suffix):
    """FNV-1a-64 of identifier + suffix, continuing the cached identifier
    hash over the suffix bytes."""
    h = _identifier_hash(identifier)
    for b in suffix:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def _reseed(identifier, suffix, scheme_seed):
    """function_reseed(identifier + suffix, scheme_seed)."""
    return mix64(_prefix(identifier, suffix) ^ (scheme_seed & MASK64))


# The last draws: (key tuple, its DrawPlan, (nop_seed, num, den), the
# masks drawn on that plan for that triple), the last two None when
# nothing is drawn yet.  One slot, replaced in one assignment, so
# threads under the GIL never see masks tagged with the wrong keys or
# triple.
_draws = ((), None, None, None)


def _slot(keys):
    """The slot, holding `keys` and their DrawPlan.  A slot that holds an
    equal key tuple takes `keys` in its place and keeps its plan and
    masks: the build's keys are cached on its model, so the slot keeps
    no older tuple alive beside them.  Any other slot is replaced by
    `keys` with a new plan and no masks."""
    global _draws
    slot = _draws
    if slot[0] is not keys or slot[1] is None:
        if slot[1] is not None and slot[0] == keys:
            slot = (keys,) + slot[1:]
        else:
            slot = (keys, DrawPlan([_prefix(ident, b"#%d" % bi)
                                    for ident, bi, _ in keys],
                                   [n for _, _, n in keys]), None, None)
        _draws = slot
    return slot


def draw_plan(keys):
    """(key tuple, DrawPlan) of the keys (gap_decisions): the slot's
    tuple and plan if its keys are equal, so that a caller may keep that
    tuple in place of its own, else the keys with a new plan, which take
    the slot."""
    keys = tuple(keys)
    slot = _draws
    if slot[1] is not None and slot[0] == keys:
        return slot[:2]
    return _slot(keys)[:2]


def gap_decisions(keys, nop_seed, num, den, tails=()):
    """The NOP masks of code blocks, one per key, in order.

    Each key is (identifier, block_index, n_gaps); its mask has n_gaps
    bytes, byte g-1 is 1 exactly when gap g (after instruction g)
    receives a NOP.  A block reseeds from identifier '#' block_index,
    one draw per gap; a gap fires when the draw's low 32 bits are below
    num/den of 2^32.  Raises ModelError unless 0 <= num/den <= 1.

    The key at each index in `tails` is drawn one gap longer: its mask
    is the key's mask plus the draw of gap n_gaps + 1, which is how a
    desynced block (desync_blocks) gets the draws of its one phantom
    instruction more.

    The draws come from the DrawPlan of the key tuple (draw_plan), and
    the masks of the last (key tuple, nop_seed, num, den) are kept in
    one slot, before any tail draw.  The build system and the
    replicator each call this once per pass, with equal key tuples: the
    build's base keys are the replicator's, in model order, and the
    build's desynced blocks are tail draws.  So a build followed by a
    replicate with the same seeds draws each code block once, and the
    replicate draws nothing.
    """
    global _draws
    threshold = _threshold(num, den, "NOP probability")
    keys, plan, tag, masks = _slot(tuple(keys))
    if masks is None or tag != (nop_seed, num, den):
        masks = plan.masks(nop_seed, threshold)
        _draws = (keys, plan, (nop_seed, num, den), masks)
    masks = list(masks)
    for k in tails:
        masks[k] += plan.tail(k, nop_seed, threshold)
    return masks


def clear_gap_memo():
    """Drop the masks gap_decisions keeps, not the plan they were drawn
    on, so the next draws are cold (as on a crash server, which never
    ran the build)."""
    global _draws
    _draws = _draws[:2] + (None, None)


def _threshold(num, den, what):
    """num/den of 2^32, the bound a draw's low 32 bits must stay below
    to fire; raises ModelError naming `what` unless 0 <= num/den <= 1."""
    if num < 0 or den <= 0 or num > den:
        raise ModelError("%s %d/%d outside [0, 1]" % (what, num, den))
    return (num << 32) // den


def mask_gaps(mask):
    """The gaps a NOP mask fires, 1-based, in order."""
    return tuple(g for g, fired in enumerate(mask, 1) if fired)


def _nop_pass(model, nop_seed, num, den, desyncs=()):
    """(NOP masks, decision-log nops) from one gap_decisions call for
    the whole program.  The masks are the code blocks', one per
    gap_keys entry, in model order, as the replicator draws them; the
    layout cuts them per function at gap_first.  A block in `desyncs`
    (desync_blocks) is drawn one gap longer, by a tail draw: its mask's
    one byte more is one more instruction in the layout.
    """
    keys = model.gap_keys
    hit = set(desyncs)
    tails = [k for k, key in enumerate(keys) if key[:2] in hit] \
        if hit else []
    masks = gap_decisions(keys, nop_seed, num, den, tails)
    # (identifier, block index, mask) of each block a NOP goes into
    nops = tuple(compress(zip(map(itemgetter(0), keys),
                              map(itemgetter(1), keys), masks),
                          map(contains, masks, repeat(1))))
    return masks, nops


def shuffle_permutation(n, shuffle_seed):
    """Fisher-Yates over 0..n-1 with a PRNG seeded directly."""
    order = list(range(n))
    rng = Prng(shuffle_seed)
    for i in range(n - 1, 0, -1):
        j = rng.next() % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def function_order(n, seeds, options):
    """The link order of n functions: the shuffle scheme's permutation
    when it is on, else 0..n-1."""
    if options.shuffle_scheme:
        return shuffle_permutation(n, seeds.shuffle_seed)
    return list(range(n))


def desync_blocks(model, seeds, num, den):
    """((identifier, block_index), ...): the code block of each of a
    num/den fraction of functions that gains one phantom instruction,
    emulating CFG/size perturbations the replicator cannot see.  Empty
    when num is 0; raises ModelError unless 0 <= num/den <= 1."""
    threshold = _threshold(num, den, "desync probability")
    if num == 0:
        return ()
    dseed = mix64(seeds.pad_seed ^ mix64(seeds.nop_seed ^ mix64(seeds.shuffle_seed)))
    hits = []
    for f in model.functions:
        v = _reseed(f.identifier, b"#desync", dseed)
        if (v & 0xFFFFFFFF) < threshold:
            code = [b.index for b in f.blocks if b.kind == "code"]
            hits.append((f.identifier, code[Prng(v).next() % len(code)]))
    return tuple(hits)


def log_from_layout(result, module_name):
    """Post-layout block structure, one entry per function in image order."""
    functions = []
    for fl in result.image:
        blocks = []
        for r in fl.regions:
            if r.kind == "code":
                blocks.append(LogBlock("code", r.block_index,
                                       r.size // INSTR_BYTES,
                                       r.model_instrs, r.epilogue))
            elif r.kind == "data":
                blocks.append(LogBlock("data", r.block_index, r.size))
            else:
                blocks.append(LogBlock("pool", -1, r.size))
        f = fl.func
        functions.append(LogFunction(f.identifier, f.alignment,
                                     f.frame.local_size,
                                     len(f.frame.callee_saved), f.has_fp,
                                     tuple(blocks)))
    return OpportunityLog(module_name, tuple(functions))


def build_default(model, options=BuildOptions()):
    """Default (undiversified) build: image, symbol file, opportunity
    log, laid out in model order with function_padding(seeds None)."""
    paddings = tuple(function_padding(f.identifier, None, options)
                     for f in model.functions)
    result = layout(model, list(range(len(model.functions))), options,
                    paddings)
    return result, log_from_layout(result, model.module_name)


def build_diversified(model, seeds, options=BuildOptions()):
    """Diversified build: padding, then NOPs, then shuffling.

    The paddings, and each code block's NOP mask (a desynced block's
    one byte longer), go to the layout beside the model, which it lays
    out without copying; the decision log's nops come from the same
    pass, so every code block's gaps are drawn exactly once.
    """
    paddings = tuple(function_padding(f.identifier, seeds, options)
                     for f in model.functions)
    desyncs = desync_blocks(model, seeds, options.desync_num,
                            options.desync_den)
    masks, nops = _nop_pass(model, seeds.nop_seed, options.nop_num,
                            options.nop_den, desyncs)
    order = function_order(len(model.functions), seeds, options)
    result = layout(model, order, options, paddings, masks)
    dec = DecisionLog(
        module_name=model.module_name,
        paddings=tuple((f.identifier, pad)
                       for f, pad in zip(model.functions, paddings)),
        nops=nops, order=tuple(order), desyncs=desyncs)
    return result, dec


# ---------------------------------------------------------------------------
# Log text formats (documented in docs/formats.md)


def _emit_log_functions(out, functions):
    for fn in functions:
        out.append("FUNCTION align=%d local=%d saved=%d fp=%d id=%s"
                   % (fn.alignment, fn.local_size, fn.saved_count,
                      int(fn.has_fp), fn.identifier))
        for b in fn.blocks:
            if b.kind == "code":
                out.append("BLOCK code %d n=%d model=%d%s"
                           % (b.index, b.size, b.model_instrs,
                              " epilogue" if b.epilogue else ""))
            elif b.kind == "data":
                out.append("BLOCK data %d bytes=%d" % (b.index, b.size))
            else:
                out.append("POOL bytes=%d" % b.size)


def _log_function(st, toks, line):
    *nums, ident = fields(line, "align", "local", "saved", "fp", "id")
    align, local, saved, fp = map(int, nums)
    # the ranges validate_model holds a model's functions to
    if align not in ALIGNMENTS or local < 0 or local % 4 \
            or not 0 <= saved <= len(SAVEABLE):
        raise ValueError("function needs align in %s, local a multiple of 4"
                         " >= 0 and saved in 0..%d" % (ALIGNMENTS,
                                                       len(SAVEABLE)))
    if fp not in (0, 1) or fp and saved < 2:
        raise ValueError("fp must be 0, or 1 with r11 and lr saved")
    if not ident:
        raise ValueError("empty function identifier")
    st.functions.append((ident, align, local, saved, bool(fp), []))


def _log_block(st, toks, line):
    if toks[1] == "code":
        n, model = (int(v) for v in
                    fields(line.removesuffix(" epilogue"), "n", "model"))
        if n < 1 or model < 0:
            raise ValueError("code block needs n >= 1 and model >= 0")
        b = LogBlock("code", int(toks[2]), n, model,
                     line.endswith(" epilogue"))
    else:
        b = LogBlock("data", int(toks[2]), int(fields(line, "bytes")[0]))
    st.functions[-1][-1].append(b)


# Each function under construction is a tuple of LogFunction fields
# with a block list last.
_LOG_RECORDS = {
    "FUNCTION": _log_function,
    "BLOCK": _log_block,
    "POOL": lambda st, toks, line: st.functions[-1][-1].append(
        LogBlock("pool", -1, int(fields(line, "bytes")[0]))),
}


def _log_functions(st):
    return tuple(LogFunction(*f[:-1], tuple(f[-1])) for f in st.functions)


def emit_opportunity_log(log):
    out = ["OPPLOG v1 %s" % log.module_name]
    _emit_log_functions(out, log.functions)
    return "\n".join(out) + "\n"


def parse_opportunity_log(text):
    st = SimpleNamespace(functions=[])
    module_name = read_records(text, "OPPLOG v1", _LOG_RECORDS, st, ModelError)
    return OpportunityLog(module_name, _log_functions(st))


def emit_decision_log(result, dec):
    """The build's decisions, then its placed structure (the layout's
    FUNCTION/BLOCK/POOL records).  Written for the record only: no
    pipeline path reads it back."""
    out = ["DECLOG v1 %s" % dec.module_name]
    out.append("ORDER %s" % ",".join(str(i) for i in dec.order))
    for ident, pad in dec.paddings:
        out.append("PAD %d %s" % (pad, ident))
    for ident, bi, mask in dec.nops:
        out.append("NOPS %d %s %s"
                   % (bi, ",".join(map(str, mask_gaps(mask))), ident))
    for ident, bi in dec.desyncs:
        out.append("DESYNC %d %s" % (bi, ident))
    _emit_log_functions(out, log_from_layout(result, dec.module_name).functions)
    return "\n".join(out) + "\n"
