"""Test-side helpers over program models: crash-site call chains, the
LD/ST total of a frame, and the models a padded or a desynced build
lays out."""

from dataclasses import replace

from divsym.prng import Prng
from divsym.progmodel import LineSpan, _access_cost


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


def access_instrs(frame, options, has_fp=False):
    """Total LD/ST instruction count for the frame's stack accesses."""
    total = frame.local_size + frame.padding
    return sum(acc.count * _access_cost(acc, total, has_fp, options)
               for acc in frame.accesses)


def with_padding(model, pad_for):
    """The model with each function's frame padding set to pad_for(f),
    which layout must place as it places the model with those paddings
    passed beside it."""
    functions = tuple(replace(f, frame=replace(f.frame, padding=pad_for(f)))
                      for f in model.functions)
    return replace(model, functions=functions)


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
