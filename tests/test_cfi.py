import pytest

from divsym import cfi
from divsym.cfi import StackSnapshot, eval_postfix, rules_at, unwind
from divsym.errors import MalformedExpression, MemoryOutOfRange, NoUnwindInfo
from divsym.symfile import parse_symbol_file

CFI_TEXT = ("STACK CFI INIT 1bdc f0 .cfa: sp 0 + .ra: lr\n"
            "STACK CFI 1be0 .cfa: sp 8 + .ra: .cfa -4 + ^ r11: .cfa -8 + ^\n"
            "STACK CFI 1be4 .cfa: r11 4 +\n")


class DumpStub:
    def __init__(self, registers, stack):
        self.registers = registers
        self.stack = stack


def snapshot(base, words):
    data = b"".join(w.to_bytes(4, "little") for w in words)
    return StackSnapshot(base, data)


def regs(**kw):
    r = {n: 0 for n in ("pc", "sp", "lr", "r4", "r5", "r6", "r7",
                        "r8", "r9", "r10", "r11")}
    r.update(kw)
    return r


def test_eval_sp_plus_literal():
    mem = snapshot(0xBEFF0000, [0])
    assert eval_postfix(("sp", 8, "+"), regs(sp=0xBEFF0000), None, mem) == 0xBEFF0008


def test_eval_cfa_dereference():
    mem = snapshot(0xBEFF000C, [0x15D0])
    got = eval_postfix((".cfa", -4, "+", "^"), regs(), 0xBEFF0010, mem)
    assert got == 0x15D0


def test_eval_frame_pointer_rule():
    mem = snapshot(0xBEFF0000, [0])
    assert eval_postfix(("r11", 4, "+"), regs(r11=0xBEFFFE00), None, mem) == 0xBEFFFE04


def test_eval_modular_arithmetic():
    mem = snapshot(0, [0])
    assert eval_postfix(("sp", 8, "+"), regs(sp=0xFFFFFFFC), None, mem) == 4


def test_eval_underflow_and_leftover():
    mem = snapshot(0, [0])
    with pytest.raises(MalformedExpression):
        eval_postfix(("+",), regs(), None, mem)
    with pytest.raises(MalformedExpression):
        eval_postfix(("sp", 4), regs(), None, mem)


def test_eval_deref_out_of_range():
    mem = snapshot(0x1000, [1, 2])
    with pytest.raises(MemoryOutOfRange):
        eval_postfix((0x900, "^"), regs(), None, mem)
    with pytest.raises(MemoryOutOfRange):
        eval_postfix((0x1005, "^"), regs(), None, mem)


def test_rules_at_init_region():
    sf = parse_symbol_file(CFI_TEXT)
    assert rules_at(sf, 0x1BDC) == {".cfa": ("sp", 0, "+"), ".ra": ("lr",)}


def test_rules_at_overlay():
    sf = parse_symbol_file(CFI_TEXT)
    r = rules_at(sf, 0x1BE4)
    assert r[".cfa"] == ("r11", 4, "+")
    assert r[".ra"] == (".cfa", -4, "+", "^")
    assert r["r11"] == (".cfa", -8, "+", "^")


def test_rules_at_before_first_delta_is_init():
    sf = parse_symbol_file(CFI_TEXT)
    region = sf.cfi_regions[0]
    for pc in (0x1BDC, 0x1BDD, 0x1BDF):
        assert rules_at(sf, pc) == dict(region.init_rules)


def test_rules_at_past_region_end():
    sf = parse_symbol_file(CFI_TEXT)
    with pytest.raises(NoUnwindInfo):
        rules_at(sf, 0x1BDC + 0xF0)
    with pytest.raises(NoUnwindInfo):
        rules_at(sf, 0x100)


def test_unwind_leaf_frame_pc_is_lr():
    sf = parse_symbol_file("STACK CFI INIT 100 40 .cfa: sp 0 + .ra: lr\n")
    dump = DumpStub(regs(pc=0x110, sp=0xBEFF0000, lr=0x55550000),
                    snapshot(0xBEFF0000, [0] * 8))
    frames, reason = unwind(dump, sf)
    assert len(frames) == 2
    assert frames[0].pc == 0x110
    assert frames[1].pc == 0x55550000
    assert reason == cfi.NO_UNWIND_INFO


def test_unwind_leaf_null_lr_ends_stack():
    sf = parse_symbol_file("STACK CFI INIT 100 40 .cfa: sp 0 + .ra: lr\n")
    dump = DumpStub(regs(pc=0x110, sp=0xBEFF0000, lr=0),
                    snapshot(0xBEFF0000, [0] * 8))
    frames, reason = unwind(dump, sf)
    assert len(frames) == 1
    assert reason == cfi.END_OF_STACK


def test_unwind_sp_below_snapshot():
    sf = parse_symbol_file("STACK CFI INIT 100 40 .cfa: sp 0 + .ra: lr\n")
    dump = DumpStub(regs(pc=0x110, sp=0xBEFE0000, lr=1),
                    snapshot(0xBEFF0000, [0] * 8))
    frames, reason = unwind(dump, sf)
    assert len(frames) == 1
    assert reason == cfi.MEMORY_OUT_OF_RANGE


@pytest.mark.parametrize("ra_rule,reason", [
    (".ra: .cfa 64 + ^", cfi.MEMORY_OUT_OF_RANGE),   # past the snapshot
    (".ra: r12", cfi.MALFORMED_EXPRESSION),          # no such register
])
def test_unwind_stops_on_a_rule_it_cannot_evaluate(ra_rule, reason):
    # the walk keeps the frame whose rules failed, at the last good cfa
    sf = parse_symbol_file("STACK CFI INIT 100 40 .cfa: sp 0 + %s\n"
                           % ra_rule)
    dump = DumpStub(regs(pc=0x110, sp=0xBEFF0000, lr=1),
                    snapshot(0xBEFF0000, [0] * 8))
    frames, got = unwind(dump, sf)
    assert got == reason
    assert [(f.pc, f.cfa) for f in frames] == [(0x110, 0)]


def test_unwind_two_frames_via_stack():
    # callee [100,140) and caller [200,240) both push lr at cfa-4
    text = ("STACK CFI INIT 100 40 .cfa: sp 0 + .ra: lr\n"
            "STACK CFI 104 .cfa: sp 8 + .ra: .cfa -4 + ^\n"
            "STACK CFI INIT 200 40 .cfa: sp 0 + .ra: lr\n"
            "STACK CFI 204 .cfa: sp 8 + .ra: .cfa -4 + ^\n")
    sf = parse_symbol_file(text)
    # callee: sp=0xBEFF0000, cfa=0xBEFF0008, ra planted at 0xBEFF0004;
    # caller: cfa=0xBEFF0010, planted ra 0 at 0xBEFF000C ends the walk.
    dump = DumpStub(regs(pc=0x120, sp=0xBEFF0000, lr=0xDEAD),
                    snapshot(0xBEFF0000, [0x1111, 0x210, 0x2222, 0]))
    frames, reason = unwind(dump, sf)
    assert [f.pc for f in frames] == [0x120, 0x210]
    assert frames[0].cfa == 0xBEFF0008
    assert frames[1].cfa == 0xBEFF0010
    assert reason == cfi.END_OF_STACK


def test_unwind_monotone_cfa_terminates():
    # Self-referential region: ra points back into the same region with
    # the same sp, so the second cfa is not greater than the first.
    text = ("STACK CFI INIT 100 40 .cfa: sp 0 + .ra: .cfa 4 + ^\n")
    sf = parse_symbol_file(text)
    dump = DumpStub(regs(pc=0x110, sp=0xBEFF0000),
                    snapshot(0xBEFF0000, [0, 0x112, 0x112, 0x112]))
    frames, reason = unwind(dump, sf)
    assert reason == cfi.CFA_NOT_INCREASING
    # the violating frame is dropped; produced cfas strictly increase
    assert [f.pc for f in frames] == [0x110]
    cfas = [f.cfa for f in frames]
    assert all(b > a for a, b in zip(cfas, cfas[1:]))


def test_unwind_max_frames():
    text = "STACK CFI INIT 100 40 .cfa: sp 8 + .ra: .cfa -4 + ^\n"
    sf = parse_symbol_file(text)
    # ra at cfa-4 always 0x110, keeps walking; each frame takes 2 words
    words = [0x110] * (2 * cfi.DEFAULT_MAX_FRAMES + 8)
    dump = DumpStub(regs(pc=0x110, sp=0xBEFF0000),
                    snapshot(0xBEFF0000, words))
    frames, reason = unwind(dump, sf)
    assert len(frames) == cfi.DEFAULT_MAX_FRAMES
    assert reason == cfi.MAX_FRAMES
