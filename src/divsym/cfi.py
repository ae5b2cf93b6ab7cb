"""CFI postfix evaluation and stack unwinding against a SymbolFile.

Expressions are evaluated on a stack machine with 32-bit modular
arithmetic; ``^`` dereferences a little-endian 32-bit word from the
captured stack.  The walk recovers one Frame per call level and stops
with an explicit reason instead of raising: a planted return address of
zero is the clean end-of-stack sentinel.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from divsym.errors import MalformedExpression, MemoryOutOfRange, NoUnwindInfo

MASK32 = 0xFFFFFFFF
DEFAULT_MAX_FRAMES = 256

# Walk termination reasons (reported in-band, never raised).
END_OF_STACK = "end_of_stack"
NO_UNWIND_INFO = "no_unwind_info"
CFA_NOT_INCREASING = "cfa_not_increasing"
MAX_FRAMES = "max_frames"
MEMORY_OUT_OF_RANGE = "memory_out_of_range"
MALFORMED_EXPRESSION = "malformed_expression"

UNWIND_REGS = ("r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "sp", "lr")


@dataclass(frozen=True)
class StackSnapshot:
    base_address: int
    data: bytes

    def read_u32(self, addr):
        off = addr - self.base_address
        if off < 0 or off + 4 > len(self.data):
            raise MemoryOutOfRange("read at %#x outside captured stack" % addr)
        return int.from_bytes(self.data[off:off + 4], "little")


@dataclass(frozen=True)
class Frame:
    pc: int
    cfa: int
    recovered: dict = field(default_factory=dict)


def eval_postfix(expr, regs, cfa, mem):
    """Evaluate a postfix expression to a single 32-bit value."""
    stack = []
    for tok in expr:
        if isinstance(tok, int):
            stack.append(tok & MASK32)
        elif tok == "+" or tok == "-":
            if len(stack) < 2:
                raise MalformedExpression("operator %r underflows" % tok)
            b = stack.pop()
            a = stack.pop()
            stack.append((a + b if tok == "+" else a - b) & MASK32)
        elif tok == "^":
            if not stack:
                raise MalformedExpression("dereference underflows")
            stack.append(mem.read_u32(stack.pop()))
        elif tok == ".cfa":
            if cfa is None:
                raise MalformedExpression(".cfa used but no CFA available")
            stack.append(cfa & MASK32)
        else:
            if tok not in regs:
                raise MalformedExpression("unknown register %r" % tok)
            stack.append(regs[tok] & MASK32)
    if len(stack) != 1:
        raise MalformedExpression("expression leaves %d operands" % len(stack))
    return stack[0]


def rules_at(sf, pc):
    """Effective RuleMap at pc: INIT rules overlaid with deltas at <= pc."""
    i = bisect.bisect_right(sf.cfi_starts, pc) - 1
    if i < 0:
        raise NoUnwindInfo("pc %#x before any CFI region" % pc)
    region = sf.cfi_regions[i]
    if pc >= region.address + region.size:
        raise NoUnwindInfo("pc %#x in no CFI region" % pc)
    rules = dict(region.init_rules)
    for addr, delta in region.deltas:
        if addr > pc:
            break
        rules.update(delta)
    return rules


def unwind(dump, sf, max_frames=DEFAULT_MAX_FRAMES):
    """Walk the stack of a MinidumpLite-shaped dump.

    Returns (frames, reason).  Frame 0 comes from the crash registers;
    each further frame is recovered by evaluating the .cfa/.ra and
    callee-saved rules for the current pc.  Registers with no rule
    propagate unchanged.  For frames above the crash frame the rule
    region is looked up 4 bytes before the return address, so the call
    instruction itself selects the rules.
    """
    regs = dict(dump.registers)
    mem = dump.stack
    frames = []
    sp = regs.get("sp", 0)
    if not (mem.base_address <= sp <= mem.base_address + len(mem.data)):
        frames.append(Frame(pc=regs.get("pc", 0), cfa=0, recovered=regs))
        return frames, MEMORY_OUT_OF_RANGE
    pc = regs["pc"]
    prev_cfa = None
    while True:
        if len(frames) >= max_frames:
            return frames, MAX_FRAMES
        lookup = pc if not frames else (pc - 4) & MASK32
        try:
            rules = rules_at(sf, lookup)
        except NoUnwindInfo:
            frames.append(Frame(pc=pc, cfa=prev_cfa or 0, recovered=dict(regs)))
            return frames, NO_UNWIND_INFO
        try:
            cfa = eval_postfix(rules[".cfa"], regs, None, mem)
            if prev_cfa is not None and cfa <= prev_cfa:
                # The computed cfa is not sane; drop the frame so the
                # produced list keeps strictly increasing cfa values.
                return frames, CFA_NOT_INCREASING
            ra = eval_postfix(rules[".ra"], regs, cfa, mem)
            new_regs = dict(regs)
            for reg, expr in rules.items():
                if reg in (".cfa", ".ra"):
                    continue
                new_regs[reg] = eval_postfix(expr, regs, cfa, mem)
        except MemoryOutOfRange:
            frames.append(Frame(pc=pc, cfa=prev_cfa or 0, recovered=dict(regs)))
            return frames, MEMORY_OUT_OF_RANGE
        except MalformedExpression:
            frames.append(Frame(pc=pc, cfa=prev_cfa or 0, recovered=dict(regs)))
            return frames, MALFORMED_EXPRESSION
        frames.append(Frame(pc=pc, cfa=cfa, recovered=dict(regs)))
        if ra == 0:
            return frames, END_OF_STACK
        new_regs["sp"] = cfa
        new_regs["pc"] = ra
        regs = new_regs
        pc = ra
        prev_cfa = cfa
