"""Branch taxonomy and the dynamic ``BranchEvent`` trace record.

The paper (Section 2) distinguishes conditional direct branches,
unconditional direct branches (calls, ``goto``), unconditional indirect
branches (indirect calls/jumps), and returns (served by the return
address stack rather than the BTB).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BranchKind(enum.IntEnum):
    """Classification of a control-flow-changing instruction."""

    #: Loop back-edges, if-then-else: taken/not-taken, target in the insn.
    COND_DIRECT = 0
    #: Always-taken jumps with the target encoded in the instruction.
    UNCOND_DIRECT = 1
    #: Direct function calls (always taken, push a return address).
    CALL_DIRECT = 2
    #: Indirect jumps (switch tables, tail dispatch) -- target at runtime.
    UNCOND_INDIRECT = 3
    #: Indirect function calls (virtual dispatch, function pointers).
    CALL_INDIRECT = 4
    #: Returns -- handled by the RAS, not the BTB (except Section 5.7).
    RETURN = 5

    @property
    def is_conditional(self) -> bool:
        return self is BranchKind.COND_DIRECT

    @property
    def is_unconditional(self) -> bool:
        return self is not BranchKind.COND_DIRECT

    @property
    def is_direct(self) -> bool:
        return self in (
            BranchKind.COND_DIRECT,
            BranchKind.UNCOND_DIRECT,
            BranchKind.CALL_DIRECT,
        )

    @property
    def is_indirect(self) -> bool:
        return self in (BranchKind.UNCOND_INDIRECT, BranchKind.CALL_INDIRECT)

    @property
    def is_call(self) -> bool:
        return self in (BranchKind.CALL_DIRECT, BranchKind.CALL_INDIRECT)

    @property
    def is_return(self) -> bool:
        return self is BranchKind.RETURN


#: Per-kind flags indexed by ``int(kind)``, for the loops that carry a
#: branch's kind as a plain int.
IS_DIRECT = [kind.is_direct for kind in BranchKind]
IS_INDIRECT = [kind.is_indirect for kind in BranchKind]
IS_CALL = [kind.is_call for kind in BranchKind]


@dataclass(slots=True)
class BranchEvent:
    """One dynamic branch instance in a trace.

    Attributes:
        pc: virtual address of the branch instruction.
        kind: static classification of the branch.
        taken: dynamic outcome (always True for unconditional kinds).
        target: virtual address control flow moves to when taken; for a
            not-taken conditional this is the fall-through address.
        instr_gap: count of non-branch instructions retired since the
            previous branch event (used for MPKI and IPC accounting).
    """

    pc: int
    kind: BranchKind
    taken: bool
    target: int
    instr_gap: int

    def __post_init__(self) -> None:
        if self.kind.is_unconditional and not self.taken:
            raise ValueError(f"{self.kind.name} branches are always taken")
        if self.instr_gap < 0:
            raise ValueError("instr_gap must be non-negative")

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction (approximate)."""
        return self.pc + 4
