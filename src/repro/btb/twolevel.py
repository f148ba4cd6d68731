"""Two-level BTB hierarchy (Section 5.9).

A small Level-0 BTB answers in 1 cycle; on an L0 miss a larger Level-1
BTB answers in 2 cycles and fills the L0.  Section 5.9 keeps a
conventional L0 and re-architects only the L1 with PDede, which is why
this wrapper is generic over any two :class:`BranchTargetPredictor`
instances -- the paper's configuration is
``TwoLevelBTB(BaselineBTB(l0_entries), PDedeBTB(...))``.
"""

from __future__ import annotations

from repro.branch.types import BranchEvent
from repro.btb.base import NO_TARGET, BTBLookup, BranchTargetPredictor
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

    def lookup(self, pc: int) -> BTBLookup:
        l0_result = self.level0.lookup(pc)
        if l0_result.hit:
            self.l0_hits += 1
            return BTBLookup(
                hit=True,
                target=l0_result.target,
                latency=l0_result.latency,
                provider="l0." + l0_result.provider,
            )
        l1_result = self.level1.lookup(pc)
        if l1_result.hit or l1_result.target is not None:
            self.l1_hits += 1
            return BTBLookup(
                hit=l1_result.hit,
                target=l1_result.target,
                latency=l1_result.latency + self.l1_extra_latency,
                provider="l1." + l1_result.provider,
            )
        return BTBLookup(
            hit=False,
            target=None,
            latency=l1_result.latency + self.l1_extra_latency,
            provider="miss",
        )

    def update(self, event: BranchEvent) -> None:
        self.stats.updates += 1
        sanitizer_step(self)
        # The resolved branch trains both levels; the L0 thereby serves as
        # a fill target for anything the L1 can provide next time.
        self.level0.update(event)
        self.level1.update(event)

    # -- scalar hooks used by the fresh-run engine's BTB pass ----------------

    @property
    def has_pass_hook(self) -> bool:
        # The hook composes each level's lookup_fast / update_fast, which
        # equal its lookup / update wherever the level declares a hook.
        return all(
            level.has_pass_hook and hasattr(level, "lookup_fast")
            for level in (self.level0, self.level1)
        )

    def observe_fast(self, columns, start: int, stop: int, results) -> None:
        """The fresh-run engine's BTB pass over active events ``start:stop``.

        Same contract as ``PDedeBTB.observe_fast``: ``columns`` are the
        active events' ``(pcs, targets, takens, is_indirect, hashes,
        same_page, is_direct)`` columns, and each lookup's ``(target, hit,
        latency)`` is appended to the three ``results`` lists.  The
        hierarchy cannot share one tag match across lookup and update (the
        L1 is only *looked up* on an L0 miss but always *updated*), so each
        event composes the levels' ``lookup_fast`` / ``update_fast`` in
        the seed call order.
        """
        pcs, targets, takens, is_indirect, hashes, same_page, _ = columns
        out_target, out_hit, out_latency = (column.append for column in results)
        lookup0, update0 = self.level0.lookup_fast, self.level0.update_fast
        lookup1, update1 = self.level1.lookup_fast, self.level1.update_fast
        extra = self.l1_extra_latency
        l0_hits = l1_hits = 0
        for i in range(start, stop):
            pc = pcs[i]
            hashed = hashes[i]
            ltarget, lhit, latency, _ = lookup0(pc, hashed)
            if lhit:
                l0_hits += 1
            else:
                ltarget, lhit, latency, _ = lookup1(pc, hashed)
                latency += extra
                if lhit or ltarget is not None:
                    l1_hits += 1
            out_target(NO_TARGET if ltarget is None else ltarget)
            out_hit(lhit)
            out_latency(latency)
            target, taken, indirect, page = targets[i], takens[i], is_indirect[i], same_page[i]
            update0(pc, target, taken, indirect, hashed, page)
            update1(pc, target, taken, indirect, hashed, page)
        self.l0_hits += l0_hits
        self.l1_hits += l1_hits
        self.stats.updates += stop - start

    def storage_bits(self) -> int:
        return self.level0.storage_bits() + self.level1.storage_bits()

    @property
    def name(self) -> str:
        return f"TwoLevel({self.level0.name}+{self.level1.name})"
