"""Two-level BTB hierarchy (Section 5.9).

A small Level-0 BTB answers in 1 cycle; on an L0 miss a larger Level-1
BTB answers in 2 cycles and fills the L0.  Section 5.9 keeps a
conventional L0 and re-architects only the L1 with PDede, which is why
this wrapper is generic over any two :class:`BranchTargetPredictor`
instances -- the paper's configuration is
``TwoLevelBTB(BaselineBTB(l0_entries), PDedeBTB(...))``.

The hierarchy cannot share one tag match across lookup and update (the
L1 is only *looked up* on an L0 miss but always *updated*), so the
fresh-run engine runs the base class's loop over the composed pair.
"""

from __future__ import annotations

from repro.btb.base import BranchTargetPredictor
from repro.checks.sanitizer import sanitizer_step


class TwoLevelBTB(BranchTargetPredictor):
    """L0 + L1 hierarchy with fill-on-L1-hit.

    Args:
        level0: the fast first-level predictor.
        level1: the large second-level predictor.
        l1_extra_latency: cycles added on top of ``level1``'s own lookup
            latency to model the hierarchy traversal (paper: L1 answers
            at 2 cycles total for a conventional L1).
    """

    def __init__(
        self,
        level0: BranchTargetPredictor,
        level1: BranchTargetPredictor,
        l1_extra_latency: int = 1,
    ) -> None:
        super().__init__()
        self.level0 = level0
        self.level1 = level1
        self.l1_extra_latency = l1_extra_latency
        self.l0_hits = 0
        self.l1_hits = 0

    def lookup_fast(self, pc: int, hashed: int) -> tuple[int | None, bool, int, str]:
        target, hit, latency, provider = self.level0.lookup_fast(pc, hashed)
        if hit:
            self.l0_hits += 1
            return (target, True, latency, "l0." + provider)
        target, hit, latency, provider = self.level1.lookup_fast(pc, hashed)
        latency += self.l1_extra_latency
        if hit or target is not None:
            self.l1_hits += 1
            return (target, hit, latency, "l1." + provider)
        return (None, False, latency, "miss")

    def update_fast(
        self, pc: int, target: int, taken: bool, kind: int, hashed: int, is_same_page: bool
    ) -> None:
        self.stats.updates += 1
        sanitizer_step(self)
        # The resolved branch trains both levels; the L0 thereby serves as
        # a fill target for anything the L1 can provide next time.
        self.level0.update_fast(pc, target, taken, kind, hashed, is_same_page)
        self.level1.update_fast(pc, target, taken, kind, hashed, is_same_page)

    def storage_bits(self) -> int:
        return self.level0.storage_bits() + self.level1.storage_bits()

    @property
    def name(self) -> str:
        return f"TwoLevel({self.level0.name}+{self.level1.name})"
