"""Struct-of-arrays lookup kernels of the former chunked BTB pass.

No simulation engine uses this module any more: the fresh-run engine
(:mod:`repro.frontend.vector`) now makes one scalar ``observe_fast`` (or
``lookup`` + ``update``) call per event.  It stays only because the
per-layer benchmark tracer (``benchmarks/perf/tracing.py``) imports it
and wraps ``lookup_block`` / ``commit`` in every traced run; it goes,
with the ``_vec_journal`` hooks on :class:`BaselineBTB`,
:class:`PDedeBTB` and :class:`DedupValueTable`, once the tracer stops
importing it.

The chunked pass replayed a trace in chunks: one vectorised BTB lookup
over a whole chunk, a scan for the first *boundary* event (one whose
update would change lookup-visible state), bulk replication of the
clean prefix's update side effects, and a scalar ``observe_fast``
replay of the boundary itself.  This module supplied the per-design
machinery that made that sound:

* **Mirrors** -- numpy copies of exactly the state a lookup *reads*
  (tags, targets / delta-offset-pointer fields, dedup-table values and
  generations).  The Python lists stay authoritative; mirrors are
  patched from the mutation journals the structures keep while a vector
  run is active (``_vec_journal`` on :class:`BaselineBTB`,
  :class:`PDedeBTB` and :class:`DedupValueTable`).
* **Boundary masks** -- conservative per-event predicates.  An event is
  clean only when its ``observe_fast`` provably leaves lookup-visible
  state untouched: a hit whose stored prediction already equals the
  resolved target (training saturates confidence instead of rewriting),
  or an update that does not allocate.  Everything else -- allocations,
  target rewrites, confidence drains (which *may* rewrite), multi-target
  tag misses (which consume the pending next-target register) -- is
  replayed through the real scalar code path.
* **Commit** -- exact replication of the clean events' non-lookup
  side effects (update counters, replacement touches, confidence
  saturation, dedup-table hit statistics, multi-target chaining) in
  trace order, so the authoritative structures never diverge from a
  scalar run.

"""

from __future__ import annotations

import numpy as np

from repro.branch.address import OFFSET_BITS, PAGE_IN_REGION_BITS
from repro.btb.baseline import BaselineBTB
from repro.btb.replacement import LruPolicy, SrripPolicy
from repro.btb.twolevel import TwoLevelBTB
from repro.core.config import PDedeMode
from repro.core.pdede import PDedeBTB

#: ``None`` lookup target as an int64 sentinel (targets are 57-bit
#: non-negative addresses, so -1 never collides with a real target).
NO_TARGET = -1

#: ``page_base`` as an int64 mask (addresses stay below 2**57, so the
#: 57-bit address mask of the scalar helper is redundant in int64).
_PAGE_MASK = ~0xFFF

#: Fused BTB-write keys: ``set_index * stride + tag``.  A BTB write only
#: perturbs a later lookup of the *same tag in the same set* (the -1
#: empty-slot sentinel folds in without colliding -- real tags are at
#: most 40 bits).  Matching fused keys instead of bare set indices keeps
#: blocks alive across almost every replayed boundary.
_KEY_STRIDE = 1 << 41


def vector_supported(btb) -> bool:
    """Whether :func:`make_vector_ops` has an exact kernel for ``btb``.

    Exact types only: a subclass may override update behaviour the
    kernels replicate (``GhrpBTB`` does), so anything unrecognised falls
    back to the general engine.
    """
    if type(btb) is BaselineBTB or type(btb) is PDedeBTB:
        return True
    if type(btb) is TwoLevelBTB:
        return type(btb.level0) is BaselineBTB and type(btb.level1) in (
            BaselineBTB,
            PDedeBTB,
        )
    return False


def make_vector_ops(btb, trace, returns_use_ras: bool):
    """Build the per-design vector ops for ``btb`` over ``trace``."""
    decoded = trace.decoded()
    cols = decoded.vector_columns()
    if returns_use_ras:
        active = ~cols["is_return"]
    else:
        active = np.ones(decoded.n_events, dtype=np.bool_)
    if type(btb) is BaselineBTB:
        return BaselineOps(btb, trace, decoded, active)
    if type(btb) is PDedeBTB:
        return PDedeOps(btb, trace, decoded, active)
    if type(btb) is TwoLevelBTB:
        return TwoLevelOps(btb, trace, decoded, active)
    raise ValueError(f"no vector ops for {type(btb).__name__}")


# -- replacement-touch fast paths -------------------------------------------


def _policy_touch(policies):
    """A ``touch(set_index, way)`` closure for one policy list (or None).

    The scalar hot path touches replacement state on every hit; SRRIP
    collapses to one list store, LRU keeps the real ``on_hit`` call
    (order matters), FIFO/random need nothing (``on_hit`` is a no-op).
    """
    if not policies:
        return None
    first = policies[0]
    if isinstance(first, SrripPolicy):
        rrpv = [policy.rrpv for policy in policies]

        def touch(set_index, way, _rrpv=rrpv):
            _rrpv[set_index][way] = 0

        return touch
    if isinstance(first, LruPolicy):

        def touch(set_index, way, _policies=policies):
            _policies[set_index].on_hit(way)

        return touch
    return None


def _split_policy_touch(btb):
    """Touch closure for :class:`PDedeBTB` (handles multi-entry splits)."""
    if btb._policies is not None:
        return _policy_touch(btb._policies)
    first = btb._long_policies[0]
    short_base = btb._short_base
    if isinstance(first, SrripPolicy):
        long_rrpv = [policy.rrpv for policy in btb._long_policies]
        short_rrpv = [policy.rrpv for policy in btb._short_policies]

        def touch(set_index, way):
            if way >= short_base:
                short_rrpv[set_index][way - short_base] = 0
            else:
                long_rrpv[set_index][way] = 0

        return touch
    if isinstance(first, LruPolicy):
        longs = btb._long_policies
        shorts = btb._short_policies

        def touch(set_index, way):
            if way >= short_base:
                shorts[set_index].on_hit(way - short_base)
            else:
                longs[set_index].on_hit(way)

        return touch
    return None


def _table_rrpv(table):
    """SRRIP rrpv matrix of a :class:`DedupValueTable` (else ``None``)."""
    if isinstance(table._policies[0], SrripPolicy):
        return [policy.rrpv for policy in table._policies]
    return None


def _table_touch(table):
    """A ``touch(pointer)`` closure for a :class:`DedupValueTable`."""
    policies = table._policies
    first = policies[0]
    ways = table.ways
    if isinstance(first, SrripPolicy):
        rrpv = [policy.rrpv for policy in policies]

        def touch(pointer, _rrpv=rrpv, _ways=ways):
            _rrpv[pointer // _ways][pointer % _ways] = 0

        return touch
    if isinstance(first, LruPolicy):

        def touch(pointer, _policies=policies, _ways=ways):
            _policies[pointer // _ways].on_hit(pointer % _ways)

        return touch
    return None


# -- block container --------------------------------------------------------


class VectorBlock:
    """One chunk's lookup outcomes plus the columns commit needs.

    ``lt``/``lh``/``lat`` are the per-event ``observe_fast`` return
    values (target as int64 with :data:`NO_TARGET` for None), valid at
    every *clean* index; ``bounds`` lists the absolute indices of
    boundary events in ascending order.  ``lists`` materialises a data
    column as a Python list once per block -- the scalar commit loops
    index lists, not ndarrays.
    """

    __slots__ = ("lo", "hi", "lt", "lh", "lat", "bounds", "data", "_lists")

    def __init__(self, lo, hi, lt, lh, lat, bounds, data):
        self.lo = lo
        self.hi = hi
        self.lt = lt
        self.lh = lh
        self.lat = lat
        self.bounds = bounds
        self.data = data
        self._lists = {}

    def lists(self, key):
        cached = self._lists.get(key)
        if cached is None:
            cached = self.data[key].tolist()
            self._lists[key] = cached
        return cached


# -- mirror cores -----------------------------------------------------------


class _BaselineCore:
    """Lookup mirror of one :class:`BaselineBTB` (also a TwoLevel level)."""

    def __init__(self, btb, decoded):
        self.btb = btb
        self.ways = btb.ways
        self.index_col, self.tag_col = decoded.btb_index_tag(btb.sets, btb.tag_bits)
        self.key_col = self.index_col * _KEY_STRIDE + self.tag_col
        self.tags_flat = np.array(btb._tags, dtype=np.int64)
        self.tags2d = self.tags_flat.reshape(btb.sets, btb.ways)
        self.targets_flat = np.array(btb._targets, dtype=np.int64)
        self.touch = _policy_touch(btb._policies)

    def raw_lookup(self, lo, hi):
        index = self.index_col[lo:hi]
        # Invalid slots hold the -1 tag sentinel and real tags are
        # non-negative, so the first boolean match is exactly the
        # scalar ``list.index`` way.
        match = self.tags2d[index] == self.tag_col[lo:hi, None]
        hit = match.any(axis=1)
        way = match.argmax(axis=1)
        slot = index * self.ways + way
        pred = self.targets_flat[slot]
        return index, hit, way, slot, pred

    def patch(self, journal):
        tags = self.btb._tags
        targets = self.btb._targets
        tags_flat = self.tags_flat
        targets_flat = self.targets_flat
        ways = self.ways
        written = set()
        for slot in journal:
            base_key = (slot // ways) * _KEY_STRIDE
            # Both the evicted tag (a lane that would have hit it) and
            # the new tag (a lane that now hits) are perturbed.
            written.add(base_key + int(tags_flat[slot]))
            tags_flat[slot] = tags[slot]
            targets_flat[slot] = targets[slot]
            written.add(base_key + tags[slot])
        return written


class _PDedeCore:
    """Lookup mirror of one :class:`PDedeBTB` (BTBM plus dedup tables)."""

    def __init__(self, btb, decoded):
        cfg = btb.config
        self.btb = btb
        self.ways = btb._ways
        self.index_col, self.tag_col = decoded.btb_index_tag(btb._sets, cfg.tag_bits)
        self.key_col = self.index_col * _KEY_STRIDE + self.tag_col
        self.tags_flat = np.array(btb._tags, dtype=np.int64)
        self.tags2d = self.tags_flat.reshape(btb._sets, btb._ways)
        self.delta_flat = np.array(btb._delta, dtype=np.bool_)
        self.off_flat = np.array(btb._offsets, dtype=np.int64)
        self.pptr_flat = np.array(btb._page_ptr, dtype=np.int64)
        self.rptr_flat = np.array(btb._region_ptr, dtype=np.int64)
        self.pgen_flat = np.array(btb._page_gen, dtype=np.int64)
        self.rgen_flat = np.array(btb._region_gen, dtype=np.int64)
        self.page_vals = np.array(btb.page_btb._values, dtype=np.int64).reshape(-1)
        self.page_gens = np.array(btb.page_btb._generations, dtype=np.int64).reshape(-1)
        self.region_vals = np.array(btb.region_btb._values, dtype=np.int64).reshape(-1)
        self.region_gens = np.array(
            btb.region_btb._generations, dtype=np.int64
        ).reshape(-1)
        self.touch = _split_policy_touch(btb)
        self.page_touch = _table_touch(btb.page_btb)
        self.region_touch = _table_touch(btb.region_btb)
        self.page_rrpv = _table_rrpv(btb.page_btb)
        self.region_rrpv = _table_rrpv(btb.region_btb)
        self.page_ways = btb.page_btb.ways
        self.region_ways = btb.region_btb.ways
        self.always_two_cycle = bool(cfg.always_two_cycle)

    def raw_lookup(self, lo, hi, pcs_col):
        index = self.index_col[lo:hi]
        match = self.tags2d[index] == self.tag_col[lo:hi, None]
        hit = match.any(axis=1)
        way = match.argmax(axis=1)
        slot = index * self.ways + way
        delta = self.delta_flat[slot]
        offset = self.off_flat[slot]
        page_ptr = self.pptr_flat[slot]
        region_ptr = self.rptr_flat[slot]
        # Pointer gathers with the -1 sentinel wrap to the last table
        # slot -- harmless, those lanes are masked by ``delta``/``hit``.
        page_value = self.page_vals[page_ptr]
        region_value = self.region_vals[region_ptr]
        pred = np.where(
            delta,
            (pcs_col[lo:hi] & _PAGE_MASK) | offset,
            (((region_value << PAGE_IN_REGION_BITS) | page_value) << OFFSET_BITS)
            | offset,
        )
        stale = (
            hit
            & ~delta
            & (
                (self.page_gens[page_ptr] != self.pgen_flat[slot])
                | (self.region_gens[region_ptr] != self.rgen_flat[slot])
            )
        )
        if self.always_two_cycle:
            lat = np.where(hit, 2, 1)
        else:
            lat = np.where(hit & ~delta, 2, 1)
        return index, hit, way, slot, pred, delta, stale, page_ptr, region_ptr, lat

    def patch_btbm(self, journal):
        btb = self.btb
        tags, delta, offsets = btb._tags, btb._delta, btb._offsets
        page_ptr, region_ptr = btb._page_ptr, btb._region_ptr
        page_gen, region_gen = btb._page_gen, btb._region_gen
        ways = self.ways
        written = set()
        for slot in journal:
            base_key = (slot // ways) * _KEY_STRIDE
            written.add(base_key + int(self.tags_flat[slot]))
            self.tags_flat[slot] = tags[slot]
            self.delta_flat[slot] = delta[slot]
            self.off_flat[slot] = offsets[slot]
            self.pptr_flat[slot] = page_ptr[slot]
            self.rptr_flat[slot] = region_ptr[slot]
            self.pgen_flat[slot] = page_gen[slot]
            self.rgen_flat[slot] = region_gen[slot]
            written.add(base_key + tags[slot])
        return written

    def patch_page(self, journal):
        table = self.btb.page_btb
        for pointer in journal:
            set_index, way = divmod(pointer, table.ways)
            self.page_vals[pointer] = table._values[set_index][way]
            self.page_gens[pointer] = table._generations[set_index][way]
        return set(journal)

    def patch_region(self, journal):
        table = self.btb.region_btb
        for pointer in journal:
            set_index, way = divmod(pointer, table.ways)
            self.region_vals[pointer] = table._values[set_index][way]
            self.region_gens[pointer] = table._generations[set_index][way]
        return set(journal)


# -- per-design ops ---------------------------------------------------------


class _OpsBase:
    """Journal lifecycle shared by all designs.

    ``begin``/``end`` install and remove the mutation journals on every
    journaled structure; ``absorb`` patches the mirrors from whatever
    the replayed boundary wrote and reports whether anything changed.
    After a mutation, :meth:`first_affected` tells the engine how far
    the current block's precomputed lookups are still valid: a write
    only perturbs events that read the written BTB set (associative
    match) or dedup-table slot (pointer read), so the scan usually keeps
    consuming the same block instead of re-looking everything up.
    """

    _journaled = ()

    def begin(self):
        for obj, _ in self._journaled:
            obj._vec_journal = []
        self._written = [set() for _ in self._journaled]

    def end(self):
        for obj, _ in self._journaled:
            obj._vec_journal = None

    def absorb(self):
        mutated = False
        for k, (obj, patch) in enumerate(self._journaled):
            journal = obj._vec_journal
            if journal:
                self._written[k] |= patch(journal)
                del journal[:]
                mutated = True
        return mutated

    @staticmethod
    def _first_hit(mask, lo, hi):
        # argmax on bool stops at the first True; a zero result is
        # ambiguous, so check the flag it points at.
        k = int(mask.argmax())
        return lo + k if mask[k] else hi

    @staticmethod
    def _match_any(col, written):
        # Written sets are tiny (usually one slot per replay), so a few
        # equality passes beat ``np.isin``'s setup cost by a wide margin.
        values = iter(written)
        mask = col == next(values)
        for value in values:
            mask = mask | (col == value)
        return mask


class BaselineOps(_OpsBase):
    """Vector kernel for :class:`BaselineBTB`."""

    def __init__(self, btb, trace, decoded, active):
        cols = decoded.vector_columns()
        self.btb = btb
        self.core = _BaselineCore(btb, decoded)
        self.active = active
        taken = cols["taken"]
        if btb.allocate_indirect:
            self.trained = taken
        else:
            self.trained = taken & ~cols["is_indirect"]
        self.targets_col = cols["targets"]
        policies = btb._policies
        self.rrpv = (
            [policy.rrpv for policy in policies]
            if policies and isinstance(policies[0], SrripPolicy)
            else None
        )
        self._journaled = [(btb, self.core.patch)]

    def lookup_block(self, lo, hi):
        index, hit, way, slot, pred = self.core.raw_lookup(lo, hi)
        act = self.active[lo:hi]
        trained = self.trained[lo:hi]
        # Training only mutates on an allocation (tag miss) or a target
        # rewrite; a trained hit whose prediction already matches only
        # saturates confidence.  Confidence drains are conservatively
        # boundaries too (pred != target with conf > 0 does not rewrite,
        # but conf is not mirrored -- the replay decides).
        boundary = act & trained & (~hit | (pred != self.targets_col[lo:hi]))
        lt = np.where(hit, pred, NO_TARGET)
        lat = np.full(hi - lo, self.btb.latency, dtype=np.int64)
        bounds = (np.flatnonzero(boundary) + lo).tolist()
        # Commit side effects, precomputed once per block: relative
        # positions (for searchsorted range narrowing) plus the exact
        # set/way/slot the loop bodies need, as plain lists.
        act_hit = act & hit
        touch_mask = act_hit
        conf_mask = act_hit & trained
        pre = (
            np.cumsum(act),
            np.cumsum(touch_mask),
            index[touch_mask].tolist(),
            way[touch_mask].tolist(),
            np.cumsum(conf_mask),
            slot[conf_mask].tolist(),
        )
        data = {"index": index, "pre": pre}
        return VectorBlock(lo, hi, lt, hit, lat, bounds, data)

    def commit(self, blk, start, end):
        btb = self.btb
        lo = blk.lo
        a = start - lo
        last = end - lo - 1
        act_cum, tcnt, tsets, tways, ccnt, cslots = blk.data["pre"]
        if a:
            am1 = a - 1
            btb.stats.updates += int(act_cum[last] - act_cum[am1])
            j0 = int(tcnt[am1])
            c0 = int(ccnt[am1])
        else:
            btb.stats.updates += int(act_cum[last])
            j0 = c0 = 0
        # Touches before confidence bumps: the two streams are disjoint
        # state, and each stream keeps trace order, so splitting the
        # original per-event interleave is observation-equivalent.
        rrpv = self.rrpv
        if rrpv is not None:
            for k in range(j0, int(tcnt[last])):
                rrpv[tsets[k]][tways[k]] = 0
        elif self.core.touch is not None:
            touch = self.core.touch
            for k in range(j0, int(tcnt[last])):
                touch(tsets[k], tways[k])
        conf = btb._conf
        conf_max = btb._conf_max
        for k in range(c0, int(ccnt[last])):
            # Clean + trained implies pred == target: training saturates
            # the confidence counter instead of rewriting.
            s = cslots[k]
            if conf[s] < conf_max:
                conf[s] += 1

    def first_affected(self, blk, lo, hi):
        written = self._written[0]
        if not written or lo >= hi:
            written.clear()
            return hi
        mask = self._match_any(self.core.key_col[lo:hi], written)
        written.clear()
        return self._first_hit(mask, lo, hi)


class PDedeOps(_OpsBase):
    """Vector kernel for :class:`PDedeBTB` (all modes)."""

    def __init__(self, btb, trace, decoded, active):
        cfg = btb.config
        cols = decoded.vector_columns()
        self.btb = btb
        self.core = _PDedeCore(btb, decoded)
        self.active = active
        self.taken = cols["taken"]
        if cfg.allocate_indirect:
            self.trained = self.taken
        else:
            self.trained = self.taken & ~cols["is_indirect"]
        self.pcs_col = cols["pcs"]
        self.targets_col = cols["targets"]
        self.multi_target = cfg.mode is PDedeMode.MULTI_TARGET
        self.pcs_list = trace.pcs
        self.targets_list = trace.targets
        self.same_page_list = decoded.same_page
        # SRRIP touch fast path: direct rrpv stores instead of the
        # closure call.  Multi-entry splits fold into one matrix (long
        # policies first, short policies after, ways rebased).
        if btb._policies is not None:
            self.split = None
            self.rrpv = (
                [policy.rrpv for policy in btb._policies]
                if isinstance(btb._policies[0], SrripPolicy)
                else None
            )
        elif isinstance(btb._long_policies[0], SrripPolicy):
            longs = btb._long_policies
            shorts = btb._short_policies
            self.split = (btb._short_base, len(longs))
            self.rrpv = [policy.rrpv for policy in longs] + [
                policy.rrpv for policy in shorts
            ]
        else:
            self.split = None
            self.rrpv = None
        self._journaled = [
            (btb, self.core.patch_btbm),
            (btb.page_btb, self.core.patch_page),
            (btb.region_btb, self.core.patch_region),
        ]

    def lookup_block(self, lo, hi):
        (
            index,
            hit,
            way,
            slot,
            pred,
            delta,
            stale,
            page_ptr,
            region_ptr,
            lat,
        ) = self.core.raw_lookup(lo, hi, self.pcs_col)
        act = self.active[lo:hi]
        trained = self.trained[lo:hi]
        wrong = trained & (pred != self.targets_col[lo:hi])
        if self.multi_target:
            # A multi-target tag miss consumes (and may provision from)
            # the pending next-target register -- but the register is
            # only ever non-empty right after a delta-hit lookup, so an
            # untrained miss whose previous active event provably could
            # not stage is a no-op and stays clean.  The first active
            # event reads the authoritative register (nothing has run
            # since this block was looked up).
            act_pos = np.flatnonzero(act)
            pend = np.zeros(hi - lo, dtype=np.bool_)
            if act_pos.size:
                staged = hit & delta
                pend[act_pos[0]] = self.btb._pending_next_offset is not None
                pend[act_pos[1:]] = staged[act_pos[:-1]]
            boundary = act & (wrong | (trained & ~hit) | (~hit & pend))
        else:
            boundary = act & trained & (~hit | wrong)
        lt = np.where(hit, pred, NO_TARGET)
        bounds = (np.flatnonzero(boundary) + lo).tolist()
        # Commit side effects, precomputed once per block: cumulative
        # counter weights (a trained clean hit reconstructs twice --
        # lookup half plus training's own reconstruct -- an untrained
        # hit once), and position arrays + plain-list operands for the
        # touch / confidence / chain streams.
        act_hit = act & hit
        weight = act_hit.astype(np.int64) + (act_hit & trained)
        tset_arr = index[act_hit]
        tway_arr = way[act_hit]
        if self.split is not None:
            short_base, n_sets = self.split
            is_short = tway_arr >= short_base
            tset_arr = tset_arr + is_short * n_sets
            tway_arr = tway_arr - is_short * short_base
        table_mask = act_hit & ~delta
        core = self.core
        pp = page_ptr[table_mask]
        rp = region_ptr[table_mask]
        if core.page_rrpv is not None:
            page_a = (pp // core.page_ways).tolist()
            page_b = (pp % core.page_ways).tolist()
        else:
            page_a = pp.tolist()
            page_b = None
        if core.region_rrpv is not None:
            region_a = (rp // core.region_ways).tolist()
            region_b = (rp % core.region_ways).tolist()
        else:
            region_a = rp.tolist()
            region_b = None
        conf_mask = act_hit & trained
        pre = [
            np.cumsum(act),
            np.cumsum(weight * delta),
            np.cumsum(weight * ~delta),
            np.cumsum(weight * stale),
            np.cumsum(act_hit),
            tset_arr.tolist(),
            tway_arr.tolist(),
            np.cumsum(table_mask),
            page_a,
            page_b,
            region_a,
            region_b,
            np.cumsum(conf_mask),
            slot[conf_mask].tolist(),
        ]
        if self.multi_target:
            taken_mask = act & self.taken[lo:hi]
            taken_r = np.flatnonzero(taken_mask)
            pre += [
                act_pos,
                np.cumsum(taken_mask),
                (taken_r + lo).tolist(),
                trained[taken_mask].tolist(),
                index[taken_mask].tolist(),
                way[taken_mask].tolist(),
            ]
        data = {
            "hit": hit,
            "index": index,
            "slot": slot,
            "delta": delta,
            "page_ptr": page_ptr,
            "region_ptr": region_ptr,
            "pre": pre,
        }
        return VectorBlock(lo, hi, lt, hit, lat, bounds, data)

    def commit(self, blk, start, end):
        btb = self.btb
        lo = blk.lo
        a = start - lo
        b = end - lo
        pre = blk.data["pre"]
        (
            act_cum,
            delta_cum,
            pointer_cum,
            stale_cum,
            tcnt,
            tsets,
            tways,
            prcnt,
            page_a,
            page_b,
            region_a,
            region_b,
            ccnt,
            cslots,
        ) = pre[:14]
        last = b - 1
        if a:
            am1 = a - 1
            n0 = int(act_cum[am1])
            btb.stats.updates += int(act_cum[last]) - n0
            btb.delta_hits += int(delta_cum[last] - delta_cum[am1])
            btb.pointer_hits += int(pointer_cum[last] - pointer_cum[am1])
            btb.stale_pointer_reads += int(stale_cum[last] - stale_cum[am1])
            j0 = int(tcnt[am1])
            t0 = int(prcnt[am1])
            c0 = int(ccnt[am1])
        else:
            n0 = 0
            btb.stats.updates += int(act_cum[last])
            btb.delta_hits += int(delta_cum[last])
            btb.pointer_hits += int(pointer_cum[last])
            btb.stale_pointer_reads += int(stale_cum[last])
            j0 = t0 = c0 = 0
        # The per-event interleave splits into independent streams (BTBM
        # touches, table touches, confidence, chain/pending); each keeps
        # trace order, and the streams share no state.
        core = self.core
        rrpv = self.rrpv
        if rrpv is not None:
            for k in range(j0, int(tcnt[last])):
                rrpv[tsets[k]][tways[k]] = 0
        elif core.touch is not None:
            touch = core.touch
            for k in range(j0, int(tcnt[last])):
                touch(tsets[k], tways[k])
        t1 = int(prcnt[last])
        if page_b is not None:
            prr = core.page_rrpv
            for k in range(t0, t1):
                prr[page_a[k]][page_b[k]] = 0
        elif core.page_touch is not None:
            page_touch = core.page_touch
            for k in range(t0, t1):
                page_touch(page_a[k])
        if region_b is not None:
            rrr = core.region_rrpv
            for k in range(t0, t1):
                rrr[region_a[k]][region_b[k]] = 0
        elif core.region_touch is not None:
            region_touch = core.region_touch
            for k in range(t0, t1):
                region_touch(region_a[k])
        conf = btb._conf
        conf_max = btb._conf_max
        for k in range(c0, int(ccnt[last])):
            s = cslots[k]
            if conf[s] < conf_max:
                conf[s] += 1
        if not self.multi_target:
            return
        act_pos, tkcnt, tk_abs, tk_trained, tk_sets, tk_ways = pre[14:]
        n1 = int(act_cum[last])
        if n1 == n0:
            return  # no active events: nothing consumed or staged
        f = int(act_pos[n1 - 1])
        k0 = int(tkcnt[a - 1]) if a else 0
        k1 = int(tkcnt[last])
        kf = int(tkcnt[f - 1]) if f else 0
        chain = btb._chain_next_target
        pcs = self.pcs_list
        targets = self.targets_list
        same_page = self.same_page_list
        for k in range(k0, kf):
            if tk_trained[k]:
                i = tk_abs[k]
                chain(tk_sets[k], tk_ways[k], pcs[i], targets[i], same_page[i])
            else:
                btb._last_btbm_slot = None
        # The pending next-target register ends the segment in the state
        # the *final* active event's lookup left it (each lookup consumes
        # the previous staging, so only the last one is observable).
        # Staged before that event's own chain runs -- the chain may set
        # ``next_valid`` on the very slot the staging reads.
        data = blk.data
        if data["hit"][f]:
            s = int(data["slot"][f])
            if data["delta"][f] and btb._next_valid[s]:
                btb._pending_next_offset = btb._next_offset[s]
                btb._pending_next_tag = btb._next_tag[s]
            else:
                btb._pending_next_offset = None
        else:
            # A clean tag miss: the pending register was provably empty
            # before it, and the consume leaves it empty.
            btb._pending_next_offset = None
        for k in range(kf, k1):
            if tk_trained[k]:
                i = tk_abs[k]
                chain(tk_sets[k], tk_ways[k], pcs[i], targets[i], same_page[i])
            else:
                btb._last_btbm_slot = None

    def first_affected(self, blk, lo, hi):
        written_sets, written_page, written_region = self._written
        if lo >= hi:
            for written in self._written:
                written.clear()
            return hi
        base = blk.lo
        s = slice(lo - base, hi - base)
        mask = None
        if written_sets:
            mask = self._match_any(self.core.key_col[lo:hi], written_sets)
        if written_page or written_region:
            # Only pointer-format hits read the tables; delta entries and
            # misses never see a table write.
            reads = blk.data["hit"][s] & ~blk.data["delta"][s]
            tmask = False
            if written_page:
                tmask = self._match_any(blk.data["page_ptr"][s], written_page)
            if written_region:
                tmask = tmask | self._match_any(
                    blk.data["region_ptr"][s], written_region
                )
            tmask = tmask & reads
            mask = tmask if mask is None else mask | tmask
        for written in self._written:
            written.clear()
        if mask is None:
            return hi
        return self._first_hit(mask, lo, hi)


class TwoLevelOps(_OpsBase):
    """Vector kernel for :class:`TwoLevelBTB` (Baseline L0, either L1).

    Clean events are L0 hits (every L0 miss is replayed: the miss looks
    up -- and on a fill path allocates into -- both levels), so the
    lookup outcome columns come from the L0 mirror alone and commit
    replicates both levels' ``update_fast``.
    """

    def __init__(self, btb, trace, decoded, active):
        cols = decoded.vector_columns()
        self.btb = btb
        level0 = btb.level0
        level1 = btb.level1
        self.l0core = _BaselineCore(level0, decoded)
        self.l1_is_pdede = type(level1) is PDedeBTB
        self.active = active
        self.taken = cols["taken"]
        is_indirect = cols["is_indirect"]
        self.trained0 = (
            self.taken
            if level0.allocate_indirect
            else self.taken & ~is_indirect
        )
        if self.l1_is_pdede:
            self.l1core = _PDedeCore(level1, decoded)
            allocate1 = level1.config.allocate_indirect
            self.l1_multi_target = level1.config.mode is PDedeMode.MULTI_TARGET
            journaled = [
                (level0, self.l0core.patch),
                (level1, self.l1core.patch_btbm),
                (level1.page_btb, self.l1core.patch_page),
                (level1.region_btb, self.l1core.patch_region),
            ]
        else:
            self.l1core = _BaselineCore(level1, decoded)
            allocate1 = level1.allocate_indirect
            self.l1_multi_target = False
            journaled = [(level0, self.l0core.patch), (level1, self.l1core.patch)]
        self.trained1 = self.taken if allocate1 else self.taken & ~is_indirect
        self.pcs_col = cols["pcs"]
        self.targets_col = cols["targets"]
        self.pcs_list = trace.pcs
        self.targets_list = trace.targets
        self.same_page_list = decoded.same_page
        self._journaled = journaled

    def lookup_block(self, lo, hi):
        level0 = self.btb.level0
        extra = self.btb.l1_extra_latency
        index0, hit0, way0, slot0, pred0 = self.l0core.raw_lookup(lo, hi)
        if self.l1_is_pdede:
            (
                index1,
                hit1,
                way1,
                slot1,
                pred1,
                delta1,
                stale1,
                page_ptr1,
                region_ptr1,
                lat1,
            ) = self.l1core.raw_lookup(lo, hi, self.pcs_col)
            lat1 = lat1 + extra
        else:
            index1, hit1, way1, slot1, pred1 = self.l1core.raw_lookup(lo, hi)
            lat1 = np.full(hi - lo, self.btb.level1.latency + extra, dtype=np.int64)
        act = self.active[lo:hi]
        trained0 = self.trained0[lo:hi]
        trained1 = self.trained1[lo:hi]
        target = self.targets_col[lo:hi]
        # Either level mutates only when it would train: an untrained L0
        # miss (the common not-taken case) just reads the L1 and counts.
        mut0 = trained0 & (~hit0 | (pred0 != target))
        mut1 = trained1 & (~hit1 | (pred1 != target))
        boundary = act & (mut0 | mut1)
        if self.l1_multi_target:
            # Multi-target L1 lookups consume/stage the pending register
            # on every L0 miss, so those are always replayed.
            boundary = boundary | (act & ~hit0)
        lt = np.where(hit0, pred0, np.where(hit1, pred1, NO_TARGET))
        lh = hit0 | hit1
        lat = np.where(hit0, level0.latency, lat1)
        bounds = (np.flatnonzero(boundary) + lo).tolist()
        data = {
            "act": act,
            "hit0": hit0,
            "hit1": hit1,
            "trained0": trained0,
            "trained1": trained1,
            "taken": self.taken[lo:hi],
            "index0": index0,
            "way0": way0,
            "slot0": slot0,
            "index1": index1,
            "way1": way1,
            "slot1": slot1,
        }
        if self.l1_is_pdede:
            data["delta1"] = delta1
            data["stale1"] = stale1
            data["page_ptr1"] = page_ptr1
            data["region_ptr1"] = region_ptr1
        return VectorBlock(lo, hi, lt, lh, lat, bounds, data)

    def commit(self, blk, start, end):
        btb = self.btb
        level0 = btb.level0
        level1 = btb.level1
        lo = blk.lo
        a = start - lo
        b = end - lo
        act = blk.lists("act")
        hit0 = blk.lists("hit0")
        hit1 = blk.lists("hit1")
        trained0 = blk.lists("trained0")
        trained1 = blk.lists("trained1")
        taken = blk.lists("taken")
        index0 = blk.lists("index0")
        way0 = blk.lists("way0")
        slot0 = blk.lists("slot0")
        index1 = blk.lists("index1")
        way1 = blk.lists("way1")
        slot1 = blk.lists("slot1")
        touch0 = self.l0core.touch
        touch1 = self.l1core.touch
        conf0 = level0._conf
        conf0_max = level0._conf_max
        conf1 = level1._conf
        conf1_max = level1._conf_max
        pdede1 = self.l1_is_pdede
        if pdede1:
            delta1 = blk.lists("delta1")
            stale1 = blk.lists("stale1")
            page_ptr1 = blk.lists("page_ptr1")
            region_ptr1 = blk.lists("region_ptr1")
            page_touch = self.l1core.page_touch
            region_touch = self.l1core.region_touch
            chain1 = level1._chain_next_target
            multi_target1 = self.l1_multi_target
            pcs = self.pcs_list
            targets = self.targets_list
            same_page = self.same_page_list
            delta_hits = pointer_hits = stale_reads = 0
        count = 0
        l0_hits = 0
        l1_hits = 0
        for r in range(a, b):
            if not act[r]:
                continue
            count += 1
            if hit0[r]:
                # L0 hit: lookup touch plus trained confidence
                # saturation; the L1 is not looked up at all.
                l0_hits += 1
                if touch0 is not None:
                    touch0(index0[r], way0[r])
                if trained0[r]:
                    s = slot0[r]
                    if conf0[s] < conf0_max:
                        conf0[s] += 1
            elif hit1[r]:
                # Clean L0 miss (untrained, or it would have replayed):
                # the L1 lookup runs for real -- hit counter, reconstruct
                # counters, replacement and table touches.
                l1_hits += 1
                if pdede1:
                    if delta1[r]:
                        delta_hits += 1
                    else:
                        pointer_hits += 1
                        if stale1[r]:
                            stale_reads += 1
                        if page_touch is not None:
                            page_touch(page_ptr1[r])
                        if region_touch is not None:
                            region_touch(region_ptr1[r])
                if touch1 is not None:
                    touch1(index1[r], way1[r])
            # The L1 always trains (``update_fast``): clean + trained1
            # implies an L1 tag hit whose prediction matches, so the
            # training saturates confidence without rewriting.
            if pdede1:
                if trained1[r]:
                    if delta1[r]:
                        delta_hits += 1
                    else:
                        pointer_hits += 1
                        if stale1[r]:
                            stale_reads += 1
                        if page_touch is not None:
                            page_touch(page_ptr1[r])
                        if region_touch is not None:
                            region_touch(region_ptr1[r])
                    if touch1 is not None:
                        touch1(index1[r], way1[r])
                    s = slot1[r]
                    if conf1[s] < conf1_max:
                        conf1[s] += 1
                    if multi_target1:
                        i = lo + r
                        chain1(index1[r], way1[r], pcs[i], targets[i], same_page[i])
                elif taken[r]:
                    # Taken but not allocatable (indirect with
                    # allocate_indirect off): ``update_fast`` clears the
                    # multi-target chain anchor.
                    level1._last_btbm_slot = None
            else:
                if trained1[r]:
                    if touch1 is not None:
                        touch1(index1[r], way1[r])
                    s = slot1[r]
                    if conf1[s] < conf1_max:
                        conf1[s] += 1
        btb.l0_hits += l0_hits
        btb.l1_hits += l1_hits
        btb.stats.updates += count
        level0.stats.updates += count
        level1.stats.updates += count
        if pdede1:
            level1.delta_hits += delta_hits
            level1.pointer_hits += pointer_hits
            level1.stale_pointer_reads += stale_reads

    def first_affected(self, blk, lo, hi):
        if lo >= hi:
            for written in self._written:
                written.clear()
            return hi
        base = blk.lo
        s = slice(lo - base, hi - base)
        mask = None
        written0 = self._written[0]
        written1 = self._written[1]
        if written0:
            mask = self._match_any(self.l0core.key_col[lo:hi], written0)
        if written1:
            mask1 = self._match_any(self.l1core.key_col[lo:hi], written1)
            mask = mask1 if mask is None else mask | mask1
        if self.l1_is_pdede:
            written_page = self._written[2]
            written_region = self._written[3]
            if written_page or written_region:
                reads = blk.data["hit1"][s] & ~blk.data["delta1"][s]
                tmask = False
                if written_page:
                    tmask = self._match_any(blk.data["page_ptr1"][s], written_page)
                if written_region:
                    tmask = tmask | self._match_any(
                        blk.data["region_ptr1"][s], written_region
                    )
                tmask = tmask & reads
                mask = tmask if mask is None else mask | tmask
        for written in self._written:
            written.clear()
        if mask is None:
            return hi
        return self._first_hit(mask, lo, hi)
