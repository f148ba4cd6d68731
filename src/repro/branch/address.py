"""57-bit virtual-address arithmetic: region / page / offset partitioning.

PDede (Section 3.3) splits a branch-target address into three components:

* ``offset``  -- the low 12 bits (position inside a 4 KiB page),
* ``page``    -- the next 16 bits (position of the page inside a region),
* ``region``  -- the remaining 29 high bits.

A *region* is a multi-page address cluster: the paper observes that
dynamically-mapped libraries land in clusters separated by >65K pages, so
a region spans ``2**16`` pages (256 MiB).  Addresses are 57 bits wide to
match five-level paging (Section 2).

All helpers are pure functions on ``int`` so they can be used both by the
BTB models and by the workload generator; :func:`vmix64` is the one
whole-column variant, for the trace-pure columns computed in numpy.
"""

from __future__ import annotations

import numpy as np

#: Width of a virtual address with 5-level paging.
ADDRESS_BITS = 57

#: Bits addressing a byte inside a 4 KiB page.
OFFSET_BITS = 12

#: Bits addressing a page inside a region (regions span 2**16 pages).
PAGE_IN_REGION_BITS = 16

#: Bits identifying the region itself.
REGION_BITS = ADDRESS_BITS - OFFSET_BITS - PAGE_IN_REGION_BITS

#: Total page-number width (region + page-in-region).
PAGE_BITS = ADDRESS_BITS - OFFSET_BITS

#: Number of pages covered by one region.
REGION_SPAN_PAGES = 1 << PAGE_IN_REGION_BITS

ADDRESS_MASK = (1 << ADDRESS_BITS) - 1

_OFFSET_MASK = (1 << OFFSET_BITS) - 1
_PAGE_IN_REGION_MASK = (1 << PAGE_IN_REGION_BITS) - 1
_REGION_MASK = (1 << REGION_BITS) - 1


def page_offset(addr: int) -> int:
    """Return the 12-bit offset of ``addr`` inside its page."""
    return addr & _OFFSET_MASK


def page_number(addr: int) -> int:
    """Return the full 45-bit page number of ``addr``."""
    return (addr >> OFFSET_BITS) & ((1 << PAGE_BITS) - 1)


def page_base(addr: int) -> int:
    """Return ``addr`` with its page offset cleared."""
    return addr & ~_OFFSET_MASK & ADDRESS_MASK


def page_in_region(addr: int) -> int:
    """Return the 16-bit page index of ``addr`` inside its region."""
    return (addr >> OFFSET_BITS) & _PAGE_IN_REGION_MASK


def region_id(addr: int) -> int:
    """Return the 29-bit region identifier of ``addr``."""
    return (addr >> (OFFSET_BITS + PAGE_IN_REGION_BITS)) & _REGION_MASK


def split_target(addr: int) -> tuple[int, int, int]:
    """Split ``addr`` into ``(region, page_in_region, offset)``.

    The inverse of :func:`join_target`.
    """
    return region_id(addr), page_in_region(addr), page_offset(addr)


def join_target(region: int, page: int, offset: int) -> int:
    """Reassemble an address from its region / page / offset components.

    Components wider than their fields raise ``ValueError`` -- that would
    silently corrupt targets inside a BTB model otherwise.
    """
    if region >> REGION_BITS:
        raise ValueError(f"region {region:#x} exceeds {REGION_BITS} bits")
    if page >> PAGE_IN_REGION_BITS:
        raise ValueError(f"page {page:#x} exceeds {PAGE_IN_REGION_BITS} bits")
    if offset >> OFFSET_BITS:
        raise ValueError(f"offset {offset:#x} exceeds {OFFSET_BITS} bits")
    return (((region << PAGE_IN_REGION_BITS) | page) << OFFSET_BITS) | offset


def same_page(a: int, b: int) -> bool:
    """True when ``a`` and ``b`` lie in the same 4 KiB page.

    PDede's delta encoding applies exactly to branches for which
    ``same_page(pc, target)`` holds (Section 3.5).
    """
    return (a >> OFFSET_BITS) == (b >> OFFSET_BITS)


def page_distance(a: int, b: int) -> int:
    """Distance between the pages of ``a`` and ``b``, in pages (signed).

    Used by the Figure 8 characterisation (branch-PC-to-target distance).
    """
    return (b >> OFFSET_BITS) - (a >> OFFSET_BITS)


_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """64-bit avalanche mix (murmur3 finalizer)."""
    x = value & _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x


_MIX_SHIFT = np.uint64(33)
_MIX_MUL1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_MUL2 = np.uint64(0xC4CEB9FE1A85EC53)


def vmix64(values: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a ``uint64`` column.

    uint64 array arithmetic wraps modulo 2**64, which is exactly the
    scalar version's ``& _MASK64`` after each multiply.
    """
    x = values ^ (values >> _MIX_SHIFT)
    x = x * _MIX_MUL1
    x = x ^ (x >> _MIX_SHIFT)
    x = x * _MIX_MUL2
    x = x ^ (x >> _MIX_SHIFT)
    return x


def hash_pc(pc: int) -> int:
    """64-bit avalanche hash of a branch PC.

    BTB indices and partial tags must come from *decorrelated* bits:
    code addresses are highly structured (fixed region bases, 4-byte
    alignment, dense pages), and a plain XOR-fold leaves systematic
    index+tag collisions between unrelated branches.  This is the "good
    hashing technique" the paper assumes when arguing that short-tag
    aliasing resteers are negligible (Section 2).  Structures take the
    index and tag from disjoint bit ranges of this hash.
    """
    return mix64(pc >> 1)


def fold_bits(value: int, width: int) -> int:
    """XOR-fold ``value`` down to ``width`` bits.

    This is the "good hashing technique" the paper assumes for partial
    tags: every source bit influences the folded result, so branches that
    differ only in high address bits rarely alias.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    mask = (1 << width) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= width
    return folded
