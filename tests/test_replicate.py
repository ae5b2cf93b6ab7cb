import hashlib
import sys
import threading
from dataclasses import replace

import pytest

from divsym.diversify import (SeedTuple, build_default, build_diversified,
                              function_padding)
from divsym.errors import ModelError, ReplicationInputError
from divsym.progmodel import (BlockModel, BuildOptions, FrameModel,
                              FunctionModel, LineSpan, ProgramModel,
                              generate_corpus)
from divsym import replicate as replicate_module
from divsym.replicate import ReplicationPlan, plan_for, replicate
from divsym.symfile import LineRecord, emit_symbol_file
from hostile import hostile_logs
from modeltools import access_instrs, seeds_desyncing_only

OPTS = BuildOptions()
SEEDS = SeedTuple(0xA1A1, 0xB2B2, 0xC3C3)


def benign_model(n=4):
    """Functions whose direct effects fully determine diversified layout:
    no constants (no pools), small frames, in-range accesses."""
    funcs = []
    for i in range(n):
        name = "benign%02d" % i
        blocks = (
            BlockModel("code", 0, spans=(LineSpan(10, 1, 6), LineSpan(12, 1, 9))),
            BlockModel("code", 1, spans=(LineSpan(20, 1, 12),), epilogue=True),
        )
        funcs.append(FunctionModel(
            name=name, object_name=name + ".o", section_name=".text." + name,
            alignment=(4, 8, 16)[i % 3], has_fp=(i % 2 == 0),
            frame=FrameModel(local_size=16 * (i + 1),
                             callee_saved=("r4", "r11", "lr") if i % 2 == 0 else ("r4", "lr"),
                             accesses=()),
            blocks=blocks))
    return ProgramModel("benign", ((1, "src/benign_1.c"),), tuple(funcs))


def function_records(sf):
    """name -> (func record, cfi record) in a comparable, rebased form."""
    out = {}
    for f, c in zip(sf.funcs, sf.cfi_regions):
        lines = tuple((ln.address - f.address, ln.size, ln.line, ln.filenum)
                      for ln in f.lines)
        deltas = tuple((a - f.address, tuple(sorted((k, v) for k, v in r.items())))
                       for a, r in c.deltas)
        out[f.name] = (f.size, f.param_size, lines,
                       tuple(sorted((k, v) for k, v in c.init_rules.items())),
                       deltas)
    return out


def test_identity_replication_returns_default():
    model = generate_corpus(17, 1)[0]
    res, log = build_default(model, OPTS)
    noop = BuildOptions(nop_num=0, pad_scheme=False, shuffle_scheme=False)
    approx = replicate(res.symfile, log, SEEDS, noop)
    assert emit_symbol_file(approx) == emit_symbol_file(res.symfile)


def test_benign_model_replicates_exactly():
    model = benign_model()
    res, log = build_default(model, OPTS)
    for seed in range(5):
        seeds = SeedTuple(seed * 17 + 1, seed * 23 + 2, seed * 31 + 3)
        truth, _ = build_diversified(model, seeds, OPTS)
        approx = replicate(res.symfile, log, seeds, OPTS)
        assert emit_symbol_file(approx) == emit_symbol_file(truth.symfile)


@pytest.mark.parametrize("options", [
    BuildOptions(default_padding=False),
    BuildOptions(default_padding=False, pad_scheme=False)])
def test_replay_without_default_padding_pads_nothing(options):
    # the replay's default frames carry padding 0, as the default
    # build's do, and with the padding scheme off so do its new ones
    model = benign_model()
    res, log = build_default(model, options)
    for seed in range(5):
        seeds = SeedTuple(seed * 17 + 1, seed * 23 + 2, seed * 31 + 3)
        truth, _ = build_diversified(model, seeds, options)
        approx = replicate(res.symfile, log, seeds, options)
        assert emit_symbol_file(approx) == emit_symbol_file(truth.symfile)
        if options.pad_scheme:
            continue
        frames = {f.name: f for f in model.functions}
        for func, region in zip(approx.funcs, approx.cfi_regions):
            f = frames[func.name]
            if not f.has_fp:
                unpadded = 4 * len(f.frame.callee_saved) + f.frame.local_size
                assert ("sp", unpadded, "+") in [
                    rules.get(".cfa") for _, rules in region.deltas]


def test_frame_constant_shift_for_pow2_local():
    # local 4088: default total 4096 is a single encodable chunk
    name = "pow2fn"
    f = FunctionModel(
        name=name, object_name=name + ".o", section_name=".text." + name,
        alignment=4, has_fp=False,
        frame=FrameModel(local_size=4088, callee_saved=("r4", "lr")),
        blocks=(BlockModel("code", 0, spans=(LineSpan(5, 1, 20),),
                           epilogue=True),))
    model = ProgramModel("pow2", ((1, "src/p.c"),), (f,))
    nonop = BuildOptions(nop_num=0)
    res, log = build_default(model, nonop)
    init_const = 8 + 4096  # saved area + default total
    assert any(d[1].get(".cfa") == ("sp", init_const, "+")
               for d in res.symfile.cfi_regions[0].deltas)

    # find a seed whose padding for this function is 16
    seeds = next(SeedTuple(s, 0, 0) for s in range(1000)
                 if function_padding(f.identifier, SeedTuple(s, 0, 0),
                                     nonop) == 16)
    approx = replicate(res.symfile, log, seeds, nonop)
    truth, _ = build_diversified(model, seeds, nonop)
    want = ("sp", 8 + 4088 + 16, "+")
    assert any(d[1].get(".cfa") == want for d in approx.cfi_regions[0].deltas)
    assert any(d[1].get(".cfa") == want for d in truth.symfile.cfi_regions[0].deltas)
    # padding 16 makes the total unencodable: both sides grow by one
    # sp-adjust in prologue and epilogue
    assert truth.symfile.funcs[0].size == res.symfile.funcs[0].size + 8
    assert approx.funcs[0].size == truth.symfile.funcs[0].size
    assert emit_symbol_file(approx) == emit_symbol_file(truth.symfile)


def _pool_signature(result):
    """identifier -> pool placements relative to the block sequence."""
    sig = {}
    for fl in result.image:
        pools = []
        prev_code = None
        for r in fl.regions:
            if r.kind == "pool":
                pools.append((prev_code, r.size))
            elif r.block_index is not None:
                prev_code = r.block_index
        sig[fl.identifier] = tuple(pools)
    return sig


def test_direct_effect_functions_replicate_exactly():
    model = generate_corpus(29, 2)[0]
    dres, log = build_default(model, OPTS)
    truth, _ = build_diversified(model, SEEDS, OPTS)
    approx = replicate(dres.symfile, log, SEEDS, OPTS)
    t_rec = function_records(truth.symfile)
    a_rec = function_records(approx)
    pool_def = _pool_signature(dres)
    pool_div = _pool_signature(truth)

    checked = 0
    for f in model.functions:
        pad = function_padding(f.identifier, SEEDS, OPTS)
        mat_def = access_instrs(f.frame, OPTS, f.has_fp, padding=8)
        mat_div = access_instrs(f.frame, OPTS, f.has_fp, padding=pad)
        if mat_def != mat_div:
            continue
        if pool_def[f.identifier] != pool_div[f.identifier]:
            continue
        assert a_rec[f.name] == t_rec[f.name], f.name
        checked += 1
    assert checked >= len(model.functions) // 2


def test_desync_contained_to_its_function():
    model = benign_model(6)
    dres, log = build_default(model, OPTS)
    target = model.functions[2].identifier

    # diversified build with a phantom instruction in one function
    desync = replace(OPTS, desync_num=1, desync_den=6)
    seeds = seeds_desyncing_only(model, target, 1, 6)
    truth, dec = build_diversified(model, seeds, desync)
    assert [h[0] for h in dec.desyncs] == [target]

    approx = replicate(dres.symfile, log, seeds, OPTS)
    t_rec = function_records(truth.symfile)
    a_rec = function_records(approx)
    for f in model.functions:
        if f.identifier == target:
            assert a_rec[f.name] != t_rec[f.name]
        else:
            # identical up to the base shift that rebasing removed
            assert a_rec[f.name] == t_rec[f.name], f.name


@pytest.mark.parametrize("num,den", [(1, 0), (-1, 5), (7, 5)])
def test_nop_fraction_outside_zero_one_is_refused(num, den):
    # the replicator refuses what the build refuses, in the same words
    model = benign_model()
    res, log = build_default(model, OPTS)
    options = replace(OPTS, nop_num=num, nop_den=den)
    for side in (lambda: build_diversified(model, SEEDS, options),
                 lambda: replicate(res.symfile, log, SEEDS, options)):
        with pytest.raises(ModelError, match="NOP probability"):
            side()


def test_a_body_longer_than_its_block_is_refused_before_drawing():
    # a log whose block claims a billion body instructions would draw a
    # billion gaps if replicate drew before checking the placement
    model = benign_model()
    res, log = build_default(model, OPTS)
    lf = log.functions[1]
    big = replace(lf.blocks[0], model_instrs=10 ** 9)
    broken = replace(log, functions=(
        log.functions[0], replace(lf, blocks=(big, *lf.blocks[1:])),
        *log.functions[2:]))
    with pytest.raises(ReplicationInputError, match="record/extras"):
        replicate(res.symfile, broken, SEEDS, OPTS)


def test_mismatched_log_rejected():
    model = generate_corpus(31, 1)[0]
    res, log = build_default(model, OPTS)
    broken = replace(log, functions=log.functions[:-1])
    with pytest.raises(ReplicationInputError):
        replicate(res.symfile, broken, SEEDS, OPTS)


def test_approximation_soundness():
    # function set and per-function record kinds always match the truth,
    # even for desynced functions; only addresses/sizes/constants differ
    model = generate_corpus(29, 1)[0]
    dres, log = build_default(model, OPTS)
    opts = BuildOptions(desync_num=20, desync_den=100)
    truth, _ = build_diversified(model, SEEDS, opts)
    approx = replicate(dres.symfile, log, SEEDS, OPTS)
    t_names = [f.name for f in truth.symfile.funcs]
    a_names = [f.name for f in approx.funcs]
    assert sorted(t_names) == sorted(a_names)
    assert t_names == a_names  # same shuffle replay, same order
    assert len(approx.cfi_regions) == len(truth.symfile.cfi_regions)
    for af, tf in zip(approx.funcs, truth.symfile.funcs):
        assert af.name == tf.name
        assert bool(af.lines) == bool(tf.lines)


def test_replicate_is_deterministic():
    model = generate_corpus(37, 1)[0]
    res, log = build_default(model, OPTS)
    a = replicate(res.symfile, log, SEEDS, OPTS)
    b = replicate(res.symfile, log, SEEDS, OPTS)
    assert emit_symbol_file(a) == emit_symbol_file(b)


def _fallback_sites(sf, log):
    """(function index, code block start, its first line record's index,
    a data or pool offset) for the first function with a code block of at
    least 4 instructions after its first code block and a data or pool
    block of at least 8 bytes; offsets are function-relative."""
    for i, (func, lf) in enumerate(zip(sf.funcs, log.functions)):
        off = 0
        code = []
        outside = None
        for b in lf.blocks:
            if b.kind == "code":
                code.append((b, off))
                off += 4 * b.size
            else:
                if b.size >= 8 and outside is None:
                    outside = off
                off += b.size
        grown = [(b, start) for b, start in code[1:]
                 if b.size >= 4 and not b.epilogue]
        if grown and outside is not None:
            start = grown[0][1]
            rec = next(k for k, ln in enumerate(func.lines)
                       if ln.address - func.address == start)
            return i, start, rec, outside
    raise AssertionError("no function with a grown block and a data block")


def test_cfi_deltas_off_the_layout_take_the_fallback():
    # A delta the layout engine never emits keeps its offset from its
    # code block's start, or its offset if no code block holds it.
    opts = BuildOptions(nop_num=1, nop_den=1, pad_scheme=False,
                        shuffle_scheme=False)
    model = generate_corpus(29, 1)[0]
    res, log = build_default(model, opts)
    i, start, rec, outside = _fallback_sites(res.symfile, log)
    region = res.symfile.cfi_regions[i]
    inside_rules = {".cfa": ("r7", 0, "+")}
    outside_rules = {".cfa": ("r6", 0, "+")}
    extra = {region.address + start + 4: inside_rules,
             region.address + outside + 4: outside_rules}
    assert not extra.keys() & dict(region.deltas).keys()
    deltas = tuple(sorted((*region.deltas, *extra.items()),
                          key=lambda d: d[0]))
    regions = list(res.symfile.cfi_regions)
    regions[i] = replace(region, deltas=deltas)
    sf = replace(res.symfile, cfi_regions=tuple(regions))

    approx = replicate(sf, log, SEEDS, opts)
    func = approx.funcs[i]
    new_start = func.lines[rec].address - func.address
    assert new_start > start  # NOPs grew the blocks before it
    got = {a - func.address: r for a, r in approx.cfi_regions[i].deltas}
    assert got[new_start + 4] == inside_rules
    assert got[outside + 4] == outside_rules


# The replicate() outputs of prog000 and three small programs under
# four seed tuples, one digest per option set, pinned: a change to the
# replay shows here.  Desync is the build's alone, so its digest is the
# default options'.
PLAN_OPTIONS = {
    "default": BuildOptions(),
    "no-default-padding": BuildOptions(default_padding=False),
    "spfp-nop-2/3": BuildOptions(sp_fp_opt=True, nop_num=2, nop_den=3),
    "desync-1/4": BuildOptions(desync_num=1, desync_den=4),
    "pad-shuffle-off": BuildOptions(pad_scheme=False, shuffle_scheme=False),
}
PLAN_SEEDS = (SeedTuple(11, 22, 33), SeedTuple(44, 55, 66),
              SeedTuple(0xA1A1, 0xB2B2, 0xC3C3),
              SeedTuple((1 << 64) - 1, 0, 1 << 63))


@pytest.fixture(scope="module")
def plan_programs():
    return generate_corpus(0xBE7C, 1, "medium") + \
        generate_corpus(0x51, 3, "small")


@pytest.mark.parametrize("name,digest", [
    ("default",
     "9f5e4f05e71c4d18a47ea4b2fe72703255228ec476429ed77e47052b79e11f9b"),
    ("no-default-padding",
     "53f460351717290acddc04273341d615ac7132b7af66d4593ea3f0c16c9c1b2d"),
    ("spfp-nop-2/3",
     "fd8ecfa9360782ee16f21a81c9677e1c6ac2be896f02965fea55444c6ddcea2e"),
    ("desync-1/4",
     "9f5e4f05e71c4d18a47ea4b2fe72703255228ec476429ed77e47052b79e11f9b"),
    ("pad-shuffle-off",
     "040c2c7a38fe116fd40e16c0158081f16c3be33b6a9c821ad7e730564de243a5"),
])
def test_plan_replicates_as_a_fresh_plan_and_as_pinned(plan_programs, name,
                                                       digest):
    options = PLAN_OPTIONS[name]
    h = hashlib.sha256()
    for model in plan_programs:
        res, log = build_default(model, options)
        plan = ReplicationPlan(res.symfile, log, options)
        for seeds in PLAN_SEEDS:
            text = emit_symbol_file(plan.replicate(seeds, options))
            fresh = ReplicationPlan(res.symfile, log, options)
            assert emit_symbol_file(fresh.replicate(seeds, options)) == text
            assert emit_symbol_file(replicate(res.symfile, log, seeds,
                                              options)) == text
            h.update(text.encode())
    assert h.hexdigest() == digest


def test_one_plan_serves_fifty_seed_tuples():
    model = generate_corpus(0x51, 1, "small")[0]
    res, log = build_default(model, OPTS)
    plan = ReplicationPlan(res.symfile, log, OPTS)
    functions = plan.functions
    for k in range(50):
        seeds = SeedTuple(k * 0x9E37 + 1, k * 0x79B9 + 2, k * 0x7F4A + 3)
        fresh = ReplicationPlan(res.symfile, log, OPTS)
        approx = plan.replicate(seeds, OPTS)
        assert approx == fresh.replicate(seeds, OPTS)
        assert emit_symbol_file(approx) == emit_symbol_file(
            replicate(res.symfile, log, seeds, OPTS))
    assert plan.functions is functions


def test_plan_reads_the_default_records_and_shares_equal_facts():
    model = generate_corpus(0x51, 1, "small")[0]
    res, log = build_default(model, OPTS)
    plan = ReplicationPlan(res.symfile, log, OPTS)
    assert plan.default_sf is res.symfile and plan.log is log
    assert all(fp.func is f and fp.cfi is c and fp.lf is lf
               for fp, f, c, lf in zip(plan.functions, res.symfile.funcs,
                                       res.symfile.cfi_regions,
                                       log.functions))
    # one planned entry per line record, none of them a record
    for fp in plan.functions:
        items = [it for _, block in fp.blocks for it in block]
        assert len(items) == len(fp.func.lines)
        assert not any(isinstance(x, LineRecord) for it in items for x in it)
    items = [it for fp in plan.functions for _, block in fp.blocks
             for it in block]
    assert len({id(it) for it in items}) == len(set(items)) < len(items)


@pytest.mark.parametrize("options", [OPTS, BuildOptions(default_padding=False)])
def test_hostile_logs_fail_at_plan_build_and_no_plan_is_kept(options):
    model = benign_model()
    res, log = build_default(model, options)
    good = plan_for(res.symfile, log, options)
    for bad, message in hostile_logs(log):
        for _ in range(2):
            with pytest.raises(ReplicationInputError, match=message):
                ReplicationPlan(res.symfile, bad, options)
            with pytest.raises(ReplicationInputError, match=message):
                replicate(res.symfile, bad, SEEDS, options)
            assert replicate_module._last_plan is good
    assert plan_for(res.symfile, log, options) is good


def test_plan_refuses_another_default_padding():
    model = benign_model()
    res, log = build_default(model, OPTS)
    plan = ReplicationPlan(res.symfile, log, OPTS)
    with pytest.raises(ReplicationInputError, match="default_padding"):
        plan.replicate(SEEDS, BuildOptions(default_padding=False))


def test_the_slot_matches_its_inputs_by_identity():
    model = benign_model()
    res, log = build_default(model, OPTS)
    plan = plan_for(res.symfile, log, OPTS)
    assert plan_for(res.symfile, log, replace(OPTS, nop_num=0)) is plan
    # an equal but distinct log, or file, builds a new plan
    twin = replace(log)
    assert twin == log and twin is not log
    other = plan_for(res.symfile, twin, OPTS)
    assert other is not plan and other.log is twin
    assert plan_for(replace(res.symfile), twin, OPTS) is not other
    # so does another default_padding
    off = BuildOptions(default_padding=False)
    res_off, log_off = build_default(model, off)
    assert plan_for(res_off.symfile, log_off, off).default_padding is False


def test_four_threads_share_the_slot():
    # each thread alternates between two default builds, so the slot is
    # replaced under the others; every approximation stays exact
    builds = []
    for model in generate_corpus(0x51, 2, "small"):
        res, log = build_default(model, OPTS)
        builds.append((res.symfile, log))
    tuples = [SeedTuple(k + 1, 2 * k + 3, 3 * k + 5) for k in range(6)]
    want = {(b, k): emit_symbol_file(
                ReplicationPlan(sf, log, OPTS).replicate(seeds, OPTS))
            for b, (sf, log) in enumerate(builds)
            for k, seeds in enumerate(tuples)}
    errors = []

    def work(t):
        try:
            for r in range(12):
                b = (t + r) % 2
                k = (t * 5 + r) % len(tuples)
                sf, log = builds[b]
                got = replicate(sf, log, tuples[k], OPTS)
                if emit_symbol_file(got) != want[b, k]:
                    errors.append((t, r))
        except Exception as e:   # reported below
            errors.append(e)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
