import random

import pytest

from divsym._speed import arm_imm_encodable
from divsym.errors import LayoutError, ModelError
from divsym.progmodel import (BlockModel, BuildOptions, FrameModel,
                              FunctionModel, LineSpan, ProgramModel,
                              StackAccess, emit_model, function_size,
                              generate_corpus, layout, parse_model,
                              stack_alloc_instrs)
from divsym.symfile import emit_symbol_file
from modeltools import access_instrs, pool_placements, size_laid_out_alone

OPTS = BuildOptions()


def rotations_oracle():
    """Brute-force enumeration of all 256 x 16 rotated-immediate values."""
    vals = set()
    for b in range(256):
        for r in range(0, 32, 2):
            vals.add(((b >> r) | (b << (32 - r))) & 0xFFFFFFFF)
    return vals


def simple_func(name="f", blocks=None, frame=None, has_fp=False, align=4,
                param=0):
    if blocks is None:
        blocks = (BlockModel("code", 0, spans=(LineSpan(10, 1, 3),),
                             epilogue=True),)
    if frame is None:
        frame = FrameModel()
    return FunctionModel(name=name, object_name=name + ".o",
                         section_name=".text." + name, alignment=align,
                         has_fp=has_fp, frame=frame, blocks=blocks,
                         param_size=param)


def one_func_model(func):
    return ProgramModel("mod", ((1, "src/mod_1.c"),), (func,))


def unpadded(model):
    """Stack padding 0 for every function of the model."""
    return (0,) * len(model.functions)


def test_imm_paper_values():
    assert arm_imm_encodable(0x3FF0) is False
    assert arm_imm_encodable(0x4000) is True
    assert arm_imm_encodable(0x000000FF) is True


def test_imm_agrees_with_rotation_enumeration():
    oracle = rotations_oracle()
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(100000):
        v = rng.getrandbits(32)
        if arm_imm_encodable(v) != (v in oracle):
            mismatches += 1
    assert mismatches == 0


def greedy_oracle(total, oracle_vals):
    chunks = 0
    rem = total
    ordered = sorted(oracle_vals)
    import bisect
    while rem:
        c = ordered[bisect.bisect_right(ordered, rem) - 1]
        rem -= c
        chunks += 1
    return chunks


def test_stack_alloc_counts():
    assert stack_alloc_instrs(0) == 0
    assert stack_alloc_instrs(0x4000) == 1
    assert stack_alloc_instrs(0x3FF0) == 2


def test_stack_alloc_matches_greedy_oracle():
    oracle_vals = rotations_oracle()
    rng = random.Random(7)
    for _ in range(300):
        total = 4 * rng.randrange(0, 20000)
        assert stack_alloc_instrs(total) == greedy_oracle(total, oracle_vals)


def test_access_small_offset_one_instr():
    frame = FrameModel(local_size=16, accesses=(StackAccess(0, 1, 10),))
    assert access_instrs(frame, OPTS, has_fp=False) == 1


def test_access_past_range_two_instrs():
    frame = FrameModel(local_size=4096, accesses=(StackAccess(0, 1, 10),))
    # sp-relative offset 4096 is one past the LD/ST immediate range
    assert access_instrs(frame, OPTS, has_fp=False) == 2


def test_access_fp_rescues_when_opt_enabled():
    # sp offset 4104 out of range; fp offset is small
    frame = FrameModel(local_size=4096, callee_saved=("r11", "lr"),
                       accesses=(StackAccess(0, 1, 10),))
    on = BuildOptions(sp_fp_opt=True)
    off = BuildOptions(sp_fp_opt=False)
    assert access_instrs(frame, on, has_fp=True, padding=8) == 1
    # fp is default base
    assert access_instrs(frame, off, has_fp=True, padding=8) == 1
    # without fp both modes stay sp-based and pay the extra instruction
    frame2 = FrameModel(local_size=4096, accesses=(StackAccess(0, 1, 10),))
    assert access_instrs(frame2, on, has_fp=False, padding=8) == 2
    assert access_instrs(frame2, off, has_fp=False, padding=8) == 2


def test_access_deep_offset_opt_changes_cost():
    # deep access: fp offset out of range, sp offset in range
    frame = FrameModel(local_size=8192, callee_saved=("r11", "lr"),
                       accesses=(StackAccess(4200, 1, 10),))
    on = BuildOptions(sp_fp_opt=True)
    off = BuildOptions(sp_fp_opt=False)
    assert access_instrs(frame, on, has_fp=True) == 1   # falls back to sp
    assert access_instrs(frame, off, has_fp=True) == 2  # stuck on fp


def test_layout_minimal_function():
    res = layout(one_func_model(simple_func()), [0], OPTS, (0,))
    sf = res.symfile
    assert sf.funcs[0].address == 0
    assert sf.funcs[0].size == 0xC
    c = sf.cfi_regions[0]
    assert c.address == 0 and c.size == 0xC
    assert c.init_rules == {".cfa": ("sp", 0, "+"), ".ra": ("lr",)}
    assert c.deltas == ()


def test_layout_paper_function2_shape():
    # push {r4-r7, lr}; sub sp, sp, #884
    frame = FrameModel(local_size=884, callee_saved=("r4", "r5", "r6", "r7", "lr"))
    blocks = (BlockModel("code", 0,
                         spans=(LineSpan(5, 1, 10), LineSpan(9, 1, 20)),
                         epilogue=True),)
    res = layout(one_func_model(simple_func(blocks=blocks, frame=frame)),
                 [0], OPTS, (0,))
    c = res.symfile.cfi_regions[0]
    assert c.init_rules == {".cfa": ("sp", 0, "+"), ".ra": ("lr",)}
    push_delta = c.deltas[0]
    assert push_delta[0] == 4
    assert push_delta[1][".cfa"] == ("sp", 20, "+")
    assert push_delta[1][".ra"] == (".cfa", -4, "+", "^")
    assert push_delta[1]["r4"] == (".cfa", -20, "+", "^")
    assert push_delta[1]["r7"] == (".cfa", -8, "+", "^")
    alloc_delta = c.deltas[1]
    assert alloc_delta[1][".cfa"] == ("sp", 904, "+")  # 20 + 884


def test_layout_fp_function_rules():
    # push {fp, lr}; add fp, sp, #4; sub sp, sp, #16
    frame = FrameModel(local_size=16, callee_saved=("r11", "lr"))
    res = layout(one_func_model(simple_func(frame=frame, has_fp=True)),
                 [0], OPTS, (0,))
    c = res.symfile.cfi_regions[0]
    assert c.deltas[0][1][".cfa"] == ("sp", 8, "+")
    assert c.deltas[1][1] == {".cfa": ("r11", 4, "+")}
    # fp-based cfa rule is stable across the allocation: no more deltas
    assert len(c.deltas) == 2


def test_layout_pool_placement_and_nop_motion():
    # one constant referenced in block 0; blocks exceed the pool reach
    spans = lambda n: (LineSpan(10, 1, n),)

    def build(block0_instrs):
        blocks = [BlockModel("code", 0, spans=spans(block0_instrs),
                             consts=(0xDEADBEEF,))]
        for i in range(1, 8):
            blocks.append(BlockModel("code", i, spans=spans(145),
                                     epilogue=(i == 7)))
        return one_func_model(simple_func(blocks=tuple(blocks)))

    def brute_latest_boundary(block_sizes):
        # reach rule oracle: latest block boundary whose cumulative
        # size keeps the (single) pool entry within 4096 of the
        # block-0 reference
        best = None
        cursor = 0
        for i, s in enumerate(block_sizes):
            cursor += s
            if cursor <= 4096:
                best = i
        return best

    res = layout(build(145), [0], OPTS, (0,))
    pools = [r for fl in res.image for r in fl.regions if r.kind == "pool"]
    assert len(pools) == 1
    placed = pool_placements(res)
    assert placed[0][2] == 4
    assert placed[0][1] == brute_latest_boundary([580] * 8)
    # entry stays within reach of the block-0 reference
    assert pools[0].address - res.image[0].base <= 4096

    # 20 extra instructions in block 0 move the pool one block earlier
    res2 = layout(build(165), [0], OPTS, (0,))
    expected2 = brute_latest_boundary([660] + [580] * 7)
    assert pool_placements(res2)[0][1] == expected2
    assert expected2 < placed[0][1]


def test_pool_constraint_holds_across_corpus():
    # every constant's pool entry is within reach of its block start
    for model in generate_corpus(71, 3):
        res = layout(model, list(range(len(model.functions))), OPTS,
                     unpadded(model))
        for f, fl in zip(model.functions, res.image):
            regions = {r.block_index: r for r in fl.regions if r.kind == "code"}
            walk = list(fl.regions)
            for b in f.blocks:
                if b.kind != "code" or not b.consts:
                    continue
                ref = regions[b.index].address
                for c in b.consts:
                    entry = None
                    for r in walk:
                        if r.kind == "pool" and r.address >= ref and c in r.consts:
                            entry = r.address + 4 * r.consts.index(c)
                            break
                    assert entry is not None, (f.name, b.index)
                    assert entry - ref <= 4096, (f.name, b.index, entry - ref)


def test_layout_is_pure():
    corpus = generate_corpus(42, 2)
    for model in corpus:
        order = list(range(len(model.functions)))
        a = layout(model, order, OPTS, unpadded(model))
        b = layout(model, order, OPTS, unpadded(model))
        assert emit_symbol_file(a.symfile) == emit_symbol_file(b.symfile)
        assert a.image == b.image


def test_layout_line_records_cover_exactly_code_bytes():
    model = generate_corpus(7, 1)[0]
    res = layout(model, list(range(len(model.functions))), OPTS,
                 unpadded(model))
    for fl, func in zip(res.image, res.symfile.funcs):
        code_bytes = sum(r.size for r in fl.regions if r.kind == "code")
        line_bytes = sum(ln.size for ln in func.lines)
        assert line_bytes == code_bytes
        # line records tile the code regions in order
        it = iter(func.lines)
        for r in fl.regions:
            if r.kind != "code":
                continue
            addr = r.address
            covered = 0
            while covered < r.size:
                ln = next(it)
                assert ln.address == addr
                addr += ln.size
                covered += ln.size
            assert covered == r.size


def test_layout_rejects_bad_order():
    model = one_func_model(simple_func())
    with pytest.raises(LayoutError):
        layout(model, [0, 1], OPTS, (0,))


def test_corpus_deterministic_and_seed_sensitive():
    a = generate_corpus(99, 3)
    b = generate_corpus(99, 3)
    c = generate_corpus(100, 3)
    assert a == b
    assert a != c


def test_corpus_power_of_two_locals_present():
    corpus = generate_corpus(5, 40, "small")
    funcs = [f for m in corpus for f in m.functions]
    funcs = funcs[:1000] if len(funcs) >= 1000 else funcs
    assert len(funcs) >= 800
    pow2 = [f for f in funcs
            if f.frame.local_size >= 1024
            and f.frame.local_size & (f.frame.local_size - 1) == 0]
    assert len(pow2) / len(funcs) >= 0.05


def test_corpus_line_records_outnumber_cfi_records():
    for model in generate_corpus(21, 4):
        res = layout(model, list(range(len(model.functions))), OPTS,
                     unpadded(model))
        sf = res.symfile
        n_lines = sum(len(f.lines) for f in sf.funcs)
        n_cfi = sum(1 + len(c.deltas) for c in sf.cfi_regions)
        assert n_lines > n_cfi


def test_model_text_round_trip():
    for model in generate_corpus(13, 3):
        text = emit_model(model)
        assert parse_model(text) == model
        assert emit_model(parse_model(text)) == text


def test_validate_rejects_duplicate_identifier():
    f = simple_func()
    with pytest.raises(ModelError):
        layout(ProgramModel("m", ((1, "a.c"),), (f, f)), [0, 1], OPTS,
               (0, 0))


def test_invalid_model_raises_on_every_layout():
    # a failed check is not cached: each call checks and raises again
    f = simple_func()
    model = ProgramModel("m", ((1, "a.c"),), (f, f))
    for _ in range(3):
        with pytest.raises(ModelError, match="duplicate identifier"):
            layout(model, [0, 1], OPTS, (0, 0))


@pytest.mark.parametrize("options", [
    OPTS, BuildOptions(sp_fp_opt=True), BuildOptions(default_padding=False)])
def test_function_size_is_the_size_laid_out_alone(options):
    # the direct size agrees with a whole layout of a one-function model
    # at every padding amount
    for model in generate_corpus(0x9AD, 3) + generate_corpus(0xBE7C, 1,
                                                             "medium"):
        for f in model.functions:
            for pad in range(0, 257, 8):
                assert function_size(f, options, pad) == \
                    size_laid_out_alone(f, options, pad), (f.name, pad)


def test_model_frame_with_pad_is_refused():
    # padding is a build decision, not a model field
    text = emit_model(generate_corpus(13, 1)[0])
    lineno = text.split("\n").index(next(
        ln for ln in text.split("\n") if ln.startswith("FRAME "))) + 1
    bad = text.replace(" saved=", " pad=8 saved=", 1)
    with pytest.raises(ModelError, match=r"^line %d: FRAME: " % lineno):
        parse_model(bad)


@pytest.mark.parametrize("paddings", [
    (), (8,), (8, 8, 8), (8, -8), (8, 4), (12, 8)])
def test_layout_rejects_bad_paddings(paddings):
    model = ProgramModel("m", ((1, "a.c"),), (simple_func(), simple_func("g")))
    assert layout(model, [0, 1], OPTS, paddings=(8, 16)).image[1].padding \
        == 16
    with pytest.raises(ModelError, match="paddings"):
        layout(model, [0, 1], OPTS, paddings=paddings)
