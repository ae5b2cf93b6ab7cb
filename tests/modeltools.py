"""Test-side helpers over program models and layouts: crash-site call
chains, the LD/ST total of a frame, a layout's pool placements, a
function's size from a whole layout, the seeds that desync one function
and the model a desynced build lays out."""

from dataclasses import replace

from divsym.diversify import SeedTuple, desync_blocks
from divsym.prng import Prng
from divsym.progmodel import LineSpan, ProgramModel, _access_cost, layout


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


def access_instrs(frame, options, has_fp=False, padding=0):
    """Total LD/ST instruction count for the frame's stack accesses
    under the given stack padding."""
    total = frame.local_size + padding
    return sum(acc.count * _access_cost(acc, total, has_fp, options)
               for acc in frame.accesses)


def pool_placements(result):
    """((identifier, after_block_index, byte_size), ...) of every pool a
    layout placed, in placement order, read from the pool regions."""
    out = []
    for fl in result.image:
        after = None
        for r in fl.regions:
            if r.kind == "pool":
                out.append((fl.func.identifier, after, r.size))
            else:
                after = r.block_index
    return tuple(out)


def size_laid_out_alone(func, options, padding):
    """The function's size from a whole layout of a one-function model
    holding it (its calls dropped, three placeholder source files)."""
    one = ProgramModel("h", ((1, "h.c"), (2, "h2.c"), (3, "h3.c")),
                       (replace(func, call_sites=()),))
    return layout(one, [0], options, (padding,)).image[0].size


def seeds_desyncing_only(model, identifier, num, den):
    """The first seed tuple (s, 0, 0) under which a num/den desync hits
    exactly the function `identifier`."""
    return next(seeds for seeds in (SeedTuple(s, 0, 0) for s in range(10000))
                if [h[0] for h in desync_blocks(model, seeds, num, den)]
                == [identifier])


def with_phantoms(model, hits):
    """The model with one phantom instruction appended to the last span
    of each (identifier, block_index) in `hits`: the blocks a desynced
    build lays out."""
    hit = set(hits)
    functions = []
    for f in model.functions:
        blocks = []
        for b in f.blocks:
            if (f.identifier, b.index) in hit:
                last = b.spans[-1]
                b = replace(b, spans=b.spans[:-1] + (
                    LineSpan(last.line, last.filenum, last.instrs + 1),))
            blocks.append(b)
        functions.append(replace(f, blocks=tuple(blocks)))
    return replace(model, functions=tuple(functions))
