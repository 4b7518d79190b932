"""The physical memory manager: zones + extents + per-block accounting.

This is the substrate's equivalent of the Linux mm core that GreenDIMM's
daemon talks to: it satisfies allocations from the zone buddy allocators,
keeps the ``mem_map`` (extent metadata), maintains per-memory-block usage
counters that back the sysfs ``removable`` flag, migrates pages out of
blocks being off-lined, and renders ``/proc/meminfo``-style snapshots.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import AllocationError, ConfigurationError
from repro.os.buddy import MAX_ORDER, BuddyAllocator
from repro.os.page import BlockAccounting, OwnerKind, PageExtent
from repro.os.zones import Zone, ZoneKind, ZoneLayout
from repro.soa import BlockStateStore
from repro.units import DEFAULT_MEMORY_BLOCK_SIZE, PAGE_SIZE


@dataclass(frozen=True)
class Meminfo:
    """A ``/proc/meminfo``-style snapshot, in pages.

    ``total_pages`` counts only *on-lined* memory — exactly as the real
    file shrinks when blocks go offline — while ``offlined_pages`` reports
    what GreenDIMM has removed.
    """

    total_pages: int
    free_pages: int
    used_pages: int
    offlined_pages: int

    @property
    def total_bytes(self) -> int:
        return self.total_pages * PAGE_SIZE

    @property
    def used_bytes(self) -> int:
        return self.used_pages * PAGE_SIZE

    @property
    def utilization(self) -> float:
        """Used fraction of on-lined capacity."""
        return self.used_pages / self.total_pages if self.total_pages else 0.0

    def render(self) -> str:
        """Text rendering in the style of /proc/meminfo (kB units)."""
        def kb(pages: int) -> int:
            return pages * PAGE_SIZE // 1024
        return (f"MemTotal:       {kb(self.total_pages):>12} kB\n"
                f"MemFree:        {kb(self.free_pages):>12} kB\n"
                f"MemUsed:        {kb(self.used_pages):>12} kB\n"
                f"MemOffline:     {kb(self.offlined_pages):>12} kB\n")


class PhysicalMemoryManager:
    """Owns the frame space: allocation, freeing, migration, accounting.

    Parameters
    ----------
    total_bytes:
        Installed physical memory.
    block_bytes:
        Memory-block size for on/off-lining accounting (Linux default
        128MiB; configurable like ``block_size_bytes`` in sysfs).
    movable_fraction:
        Fraction of the top of memory placed in ZONE_MOVABLE
        (``movablecore``).
    """

    def __init__(self, total_bytes: int,
                 block_bytes: int = DEFAULT_MEMORY_BLOCK_SIZE,
                 movable_fraction: float = 0.75):
        if total_bytes % block_bytes:
            raise ConfigurationError("capacity must be a multiple of block size")
        if block_bytes % ((1 << MAX_ORDER) * PAGE_SIZE):
            raise ConfigurationError(
                "block size must be a multiple of the max buddy block")
        self.total_pages = total_bytes // PAGE_SIZE
        self.block_pages = block_bytes // PAGE_SIZE
        self.num_blocks = self.total_pages // self.block_pages
        self.zones: List[Zone] = ZoneLayout(
            self.total_pages, movable_fraction,
            alignment_pages=self.block_pages).build()
        #: (start_pfn, end_pfn, zone) spans for the pfn -> zone lookup,
        #: avoiding per-call property/method dispatch on the free path.
        self._zone_spans: List[Tuple[int, int, Zone]] = [
            (z.start_pfn, z.end_pfn, z) for z in self.zones]
        normal = [z for z in self.zones if z.kind is ZoneKind.NORMAL]
        movable = [z for z in self.zones if z.kind is ZoneKind.MOVABLE]
        #: Zone allocation orders (see :meth:`_zones_for`), built once.
        self._kernel_route: Tuple[Zone, ...] = tuple(normal)
        self._user_route: Tuple[Zone, ...] = tuple(movable + normal)
        #: Every zone's allocator, for the per-epoch :attr:`free_pages`.
        self._allocators = tuple(z.allocator for z in self.zones)
        self._extents: Dict[int, PageExtent] = {}
        self._owners: Dict[str, Set[int]] = {}
        #: Per-owner max-heap of extent pfns (negated), maintained beside
        #: ``_owners`` with lazy deletion: every registration pushes, and
        #: :meth:`free_pages_of` pops stale entries as it meets them.
        #: Replaces the full ``sorted(owner_set, reverse=True)`` rebuild
        #: each shrink performed — the visit order (descending live
        #: pfns) is identical.
        self._owner_maxheaps: Dict[str, List[int]] = {}
        #: Incremental per-owner resident-page totals; kept in lock-step
        #: with ``_owners`` so ``owner_pages`` is O(1) instead of an
        #: O(extents) scan on the per-epoch resize path.
        self._owner_pages: Dict[str, int] = {}
        #: Recycling pool of extents freed by :meth:`free_pages_of`, keyed
        #: by pfn.  PageExtent is immutable and identity-free (no
        #: __eq__/__hash__ overrides are relied on), so an allocation
        #: whose (pfn, order, owner, kind, mergeable) matches a previously
        #: freed extent can reuse the object instead of constructing a new
        #: one — workloads that oscillate re-acquire the same frames
        #: constantly.  :meth:`free_all` pools nothing: a departed owner
        #: does not grow back.
        self._extent_pool: Dict[int, PageExtent] = {}
        self._blocks: List[BlockAccounting] = [
            BlockAccounting() for _ in range(self.num_blocks)]
        #: Write-back numpy mirror of the per-block counters; the extent
        #: hot path only marks blocks dirty, scans call ``soa_view()``.
        self.soa = BlockStateStore(self.num_blocks)
        self._offlined_pages = 0
        self._isolated_blocks: Set[int] = set()

    # --- zone routing -----------------------------------------------------

    def _zones_for(self, kind: OwnerKind) -> Tuple[Zone, ...]:
        """Allocation order of zones for an owner kind.

        Kernel memory is confined to ZONE_NORMAL.  User memory prefers
        ZONE_MOVABLE.  Pinned allocations also prefer ZONE_MOVABLE — that
        is precisely the leak (Section 5.2) that puts unmovable pages into
        nominally movable blocks.
        """
        if kind is OwnerKind.KERNEL:
            return self._kernel_route
        return self._user_route

    # --- allocation / freeing -------------------------------------------------

    def allocate(self, owner_id: str, n_pages: int,
                 kind: OwnerKind = OwnerKind.USER,
                 mergeable: bool = False) -> List[PageExtent]:
        """Allocate *n_pages* for *owner_id* as a list of extents.

        All-or-nothing across zones; raises :class:`AllocationError` when
        the online free memory cannot satisfy the request.
        """
        if n_pages <= 0:
            raise AllocationError("n_pages must be positive")
        plan = []
        remaining = n_pages
        for zone in self._zones_for(kind):
            if remaining == 0:
                break
            allocator = zone.allocator
            take = min(remaining, allocator.free_pages)
            if take <= 0:
                continue
            plan.append((allocator, *allocator.alloc_run(take)))
            remaining -= take
        if remaining > 0:
            for allocator, run, rest in plan:
                allocator.free_max_order_blocks(run)
                for pfn, order in rest:
                    allocator.free_block(pfn, order)
            raise AllocationError(
                f"cannot allocate {n_pages} pages for {owner_id!r}: "
                f"{remaining} short")
        # Each zone hands back an ascending run of max-order blocks plus a
        # few smaller blocks in address order; both are registered as
        # bulk runs (allocations routinely span thousands of extents).
        extents: List[PageExtent] = []
        for allocator, run, rest in plan:
            if run:
                extents += self._place(run, repeat(allocator.max_order),
                                       owner_id, kind, mergeable)
            if rest:
                small_pfns, small_orders = zip(*rest)
                extents += self._place(small_pfns, small_orders, owner_id,
                                       kind, mergeable)
        pfns = [extent.pfn for extent in extents]
        self._extents.update(zip(pfns, extents))
        owner_set = self._owners.setdefault(owner_id, set())
        owner_set.update(pfns)
        owner_heap = self._owner_maxheaps.setdefault(owner_id, [])
        # The heap's contents alone determine its pop sequence (repeated
        # heappop yields ascending order whatever the tree shape), so any
        # insertion strategy is equivalent: k pushes cost O(k log n) and
        # win for the small ramp-epoch deltas, one heapify costs O(n)
        # and wins for bulk loads.
        if len(pfns) * 8 < len(owner_heap):
            for pfn in pfns:
                heapq.heappush(owner_heap, -pfn)
        else:
            owner_heap.extend(map(int.__neg__, pfns))
            heapq.heapify(owner_heap)
        # Every zone contributed exactly its ``take``, so the extent
        # pages sum to n_pages by construction.
        self._owner_pages[owner_id] = (
            self._owner_pages.get(owner_id, 0) + n_pages)
        return extents

    def _place(self, pfns: Sequence[int], orders: Iterable[int],
               owner_id: str, kind: OwnerKind,
               mergeable: bool) -> List[PageExtent]:
        """Extents for freshly allocated blocks (*pfns* ascending),
        accounted to their memory blocks.

        The allocation takes the pool's entries at its frames: one whose
        (order, owner, kind, mergeable) matches is reused instead of
        constructing a new extent, and the rest are dropped, so an extent
        in use is never also pooled.
        """
        pool_pop = self._extent_pool.pop
        extents = [
            cached if (cached is not None and cached.order == order
                       and cached.owner_id == owner_id
                       and cached.kind is kind
                       and cached.mergeable == mergeable
                       and not cached.ksm_shared)
            else PageExtent(pfn, order, owner_id, kind, mergeable)
            for pfn, order, cached in zip(
                pfns, orders, map(pool_pop, pfns, repeat(None)))]
        self._account(pfns, extents, 1)
        return extents

    def _account(self, pfns: Sequence[int], extents: Sequence[PageExtent],
                 sign: int) -> None:
        """Add (*sign* 1) or remove (-1) extents in the per-block counters.

        *pfns* are the extents' first frames, ascending, so each memory
        block's share is one slice whose end a bisect finds: each block's
        counters and extent set change once.
        """
        blocks = self._blocks
        block_pages = self.block_pages
        dirty = self.soa._dirty
        i, n = 0, len(pfns)
        while i < n:
            block = pfns[i] // block_pages
            j = bisect_left(pfns, (block + 1) * block_pages, i)
            used = unmovable = 0
            for extent in extents[i:j]:
                used += extent.pages
                if not extent.movable:
                    unmovable += extent.pages
            acct = blocks[block]
            acct.used_pages += sign * used
            acct.unmovable_pages += sign * unmovable
            if sign > 0:
                acct.extents.update(pfns[i:j])
            else:
                acct.extents.difference_update(pfns[i:j])
            dirty.add(block)
            i = j

    def _register(self, extent: PageExtent) -> None:
        self._extents[extent.pfn] = extent
        self._owners.setdefault(extent.owner_id, set()).add(extent.pfn)
        heapq.heappush(
            self._owner_maxheaps.setdefault(extent.owner_id, []),
            -extent.pfn)
        self._owner_pages[extent.owner_id] = (
            self._owner_pages.get(extent.owner_id, 0) + extent.pages)
        block = extent.pfn // self.block_pages
        acct = self._blocks[block]
        acct.used_pages += extent.pages
        acct.extents.add(extent.pfn)
        if not extent.movable:
            acct.unmovable_pages += extent.pages
        self.soa.mark_dirty(block)

    def _unregister(self, extent: PageExtent) -> None:
        del self._extents[extent.pfn]
        owner_set = self._owners[extent.owner_id]
        owner_set.remove(extent.pfn)
        if owner_set:
            self._owner_pages[extent.owner_id] -= extent.pages
        else:
            self._drop_owner(extent.owner_id)
        block = extent.pfn // self.block_pages
        acct = self._blocks[block]
        acct.used_pages -= extent.pages
        acct.extents.remove(extent.pfn)
        if not extent.movable:
            acct.unmovable_pages -= extent.pages
        self.soa.mark_dirty(block)

    def _zone_of(self, pfn: int) -> Zone:
        for start, end, zone in self._zone_spans:
            if start <= pfn < end:
                return zone
        raise AllocationError(f"pfn {pfn} outside all zones")

    def free_extent(self, pfn: int) -> int:
        """Free one extent by its first pfn; returns pages freed."""
        extent = self._extents.get(pfn)
        if extent is None:
            raise AllocationError(f"no extent at pfn {pfn}")
        self._unregister(extent)
        self._zone_of(pfn).allocator.free_block(pfn, extent.order)
        return extent.pages

    def free_pages_of(self, owner_id: str, n_pages: int) -> int:
        """Free *n_pages* of *owner_id*'s memory, highest addresses first.

        Splits the final extent when needed so exactly *n_pages* (or the
        owner's entire holding, if smaller) are returned.  Freeing highest
        addresses first models a process unmapping its most recently grown
        regions and keeps high blocks empty — which is what gives the
        GreenDIMM daemon blocks it can off-line without migration.
        """
        if n_pages <= 0:
            return 0
        owner_set = self._owners.get(owner_id)
        if not owner_set:
            return 0
        # Highest-address-first order comes from the owner's lazy
        # max-heap: popping it yields exactly the descending sequence
        # ``sorted(owner_set, reverse=True)`` once stale entries (pfns no
        # longer owned) are skipped, without re-sorting the whole owner
        # set on every shrink.
        heap = self._owner_maxheaps[owner_id]
        if len(heap) > 4 * len(owner_set) + 64:
            # A sorted list of negated pfns is a valid min-heap.
            heap[:] = sorted(-pfn for pfn in owner_set)
        extent_map = self._extents
        heappop = heapq.heappop
        victims: List[int] = []
        freed = 0
        partial = None
        while heap and freed < n_pages:
            # Pop immediately: a stale entry is discarded either way, and
            # the partial-case break below may consume its entry too (the
            # split in _free_partial re-registers the kept piece, which
            # re-pushes its pfn).
            pfn = -heappop(heap)
            if pfn not in owner_set:
                continue
            pages = extent_map[pfn].pages
            if freed + pages > n_pages:
                partial = extent_map[pfn]
                break
            # Leaving the set here also makes a duplicate heap entry of
            # this pfn stale.
            owner_set.remove(pfn)
            victims.append(pfn)
            freed += pages
        if victims:
            victims.reverse()
            self._release(victims, self._extent_pool)
            if owner_set:
                self._owner_pages[owner_id] -= freed
            else:
                self._drop_owner(owner_id)
        if partial is not None:
            freed += self._free_partial(partial, n_pages - freed)
        return freed

    def free_all(self, owner_id: str) -> int:
        """Free every extent of *owner_id*; returns pages freed.

        A departed owner never grows back, so its extents are not pooled
        for reuse.
        """
        owner_set = self._owners.get(owner_id)
        if not owner_set:
            return 0
        freed = self._owner_pages[owner_id]
        self._release(sorted(owner_set), None)
        self._drop_owner(owner_id)
        return freed

    def _drop_owner(self, owner_id: str) -> None:
        del self._owners[owner_id]
        del self._owner_pages[owner_id]
        self._owner_maxheaps.pop(owner_id, None)

    def _release(self, pfns: List[int],
                 pool: Optional[Dict[int, PageExtent]]) -> None:
        """Free the whole extents at *pfns* (ascending) to their zones.

        The caller settles the owner indexes; *pool*, when given, keeps
        the freed extents for reuse.  With eager coalescing the buddy
        state after a set of frees does not depend on their order, so
        the extents leave as bulk runs: per memory block in
        :meth:`_account`, and max-order blocks (which never coalesce) in
        one ``free_max_order_blocks`` call per zone.
        """
        extents = list(map(self._extents.pop, pfns))
        if pool is not None:
            pool.update(zip(pfns, extents))
        self._account(pfns, extents, -1)
        for start, end, zone in self._zone_spans:
            i = bisect_left(pfns, start)
            j = bisect_left(pfns, end, i)
            if i == j:
                continue
            allocator = zone.allocator
            max_order = allocator.max_order
            top = []
            for pfn, extent in zip(pfns[i:j], extents[i:j]):
                if extent.order == max_order:
                    top.append(pfn)
                else:
                    allocator.free_block(pfn, extent.order)
            if top:
                allocator.free_max_order_blocks(top)

    def _free_partial(self, extent: PageExtent, n_pages: int) -> int:
        """Free the top *n_pages* of one extent by splitting it.

        Caller guarantees ``0 < n_pages < extent.pages``; the loop keeps
        the invariant ``remaining < current.pages``, so it always
        terminates with a kept low remainder registered to the owner.
        """
        zone = self._zone_of(extent.pfn)
        self._unregister(extent)
        allocator = zone.allocator
        pfn = extent.pfn
        order = extent.order
        remaining = n_pages
        # Track the current piece as (pfn, order) and only materialize a
        # PageExtent for pieces that are actually kept — the freed high
        # halves and the still-splitting piece never need one.
        while remaining > 0:
            allocator.split_allocated(pfn, order)
            order -= 1
            half_pages = 1 << order
            if remaining >= half_pages:
                allocator.free_block(pfn + half_pages, order)
                remaining -= half_pages
            else:
                self._register(PageExtent(pfn, order, extent.owner_id,
                                          extent.kind, extent.mergeable,
                                          extent.ksm_shared))
                pfn += half_pages
        self._register(PageExtent(pfn, order, extent.owner_id,
                                  extent.kind, extent.mergeable,
                                  extent.ksm_shared))
        return n_pages

    # --- queries -----------------------------------------------------------

    @property
    def free_pages(self) -> int:
        # Read every epoch: a plain loop over the zone allocators' own
        # counters, with no generator or per-zone property call.
        total = 0
        for allocator in self._allocators:
            total += allocator._free_pages
        return total

    @property
    def online_pages(self) -> int:
        return self.total_pages - self._offlined_pages

    @property
    def used_pages(self) -> int:
        return self.online_pages - self.free_pages

    def owner_pages(self, owner_id: str) -> int:
        return self._owner_pages.get(owner_id, 0)

    def owners(self) -> Iterable[str]:
        return self._owners.keys()

    def extents_of(self, owner_id: str) -> List[PageExtent]:
        return [self._extents[p] for p in sorted(self._owners.get(owner_id, ()))]

    def soa_view(self) -> BlockStateStore:
        """The per-block SoA mirror, with dirty counters flushed."""
        return self.soa.sync(self._blocks)

    def meminfo(self) -> Meminfo:
        return Meminfo(total_pages=self.online_pages,
                       free_pages=self.free_pages,
                       used_pages=self.used_pages,
                       offlined_pages=self._offlined_pages)

    # --- per-block interface used by hot-plug --------------------------------

    def block_range(self, index: int) -> Tuple[int, int]:
        """(start_pfn, page_count) of memory block *index*."""
        if not 0 <= index < self.num_blocks:
            raise ConfigurationError(f"block {index} out of range")
        return index * self.block_pages, self.block_pages

    def block_accounting(self, index: int) -> BlockAccounting:
        return self._blocks[index]

    def block_is_removable(self, index: int) -> bool:
        """The sysfs ``removable`` flag: no unmovable pages in the block."""
        return not self._blocks[index].has_unmovable

    def block_is_free(self, index: int) -> bool:
        """True when no allocated pages remain in the block."""
        return self._blocks[index].is_empty

    def block_extents(self, index: int) -> List[PageExtent]:
        return [self._extents[p] for p in sorted(self._blocks[index].extents)]

    def zone_kind_of_block(self, index: int) -> ZoneKind:
        start, _count = self.block_range(index)
        return self._zone_of(start).kind

    # --- migration (for off-lining) -------------------------------------------

    def migrate_block_out(self, index: int,
                          isolated: List[Tuple[int, int]]) -> int:
        """Move every movable extent out of block *index*.

        The block's free pages must already be isolated so new allocations
        cannot land there; *isolated* is the running list of (pfn, order)
        blocks held out of the free lists, and each migrated source extent
        is appended to it (migrated-away frames are free but must stay
        isolated).  Returns pages migrated; raises
        :class:`AllocationError` when destination memory is insufficient
        (the off-lining EAGAIN path) — the caller then undoes the whole
        isolation with the accumulated list.

        Extents move in ascending pfn order, each to the lowest frames its
        zone route offers.  A run of n max-order extents whose destination
        zone has at least n free max-order blocks moves in bulk: one grab
        of the n lowest, which is what n single grabs would take.
        """
        source = self._zone_of(self.block_range(index)[0]).allocator
        extent_map = self._extents
        pfns = sorted(self._blocks[index].extents)
        migrated = 0
        i, n = 0, len(pfns)
        while i < n:
            extent = extent_map[pfns[i]]
            if not extent.movable:
                raise AllocationError(
                    f"block {index} has unmovable extent at {extent.pfn}")
            route = self._zones_for(extent.kind)
            j = i + 1
            if extent.order == source.max_order:
                while j < n:
                    head = extent_map[pfns[j]]
                    if head.order != source.max_order or not head.movable:
                        break
                    j += 1
                # A single grab uses the first zone with room for one
                # extent; that zone keeps the lead for the whole run as
                # long as its max-order blocks last.
                dest = next((z.allocator for z in route
                             if z.allocator.free_pages >= extent.pages), None)
                if (dest is not None
                        and dest.free_block_count(dest.max_order) >= j - i):
                    migrated += self._move_run(pfns[i:j], source, dest,
                                               isolated)
                    i = j
                    continue
            for pfn in pfns[i:j]:
                migrated += self._move_one(extent_map[pfn], route, source,
                                           isolated)
            i = j
        return migrated

    def _move_one(self, extent: PageExtent, route: Sequence[Zone],
                  source: BuddyAllocator,
                  isolated: List[Tuple[int, int]]) -> int:
        """Migrate one extent to the first zone of *route* with room."""
        new_blocks = None
        for zone in route:
            try:
                new_blocks = zone.allocator.alloc_pages(extent.pages)
                break
            except AllocationError:
                continue
        if new_blocks is None:
            raise AllocationError(
                f"no destination frames to migrate block "
                f"{extent.pfn // self.block_pages}")
        self._unregister(extent)
        source.remove_allocated(extent.pfn, extent.order)
        isolated.append((extent.pfn, extent.order))
        for pfn, order in new_blocks:
            self._register(PageExtent(pfn, order, extent.owner_id,
                                      extent.kind, extent.mergeable,
                                      extent.ksm_shared))
        return extent.pages

    def _move_run(self, pfns: List[int], source: BuddyAllocator,
                  dest: BuddyAllocator,
                  isolated: List[Tuple[int, int]]) -> int:
        """Migrate the max-order extents at *pfns* (ascending) to the
        lowest free max-order blocks of *dest*, pairing them in order."""
        order = source.max_order
        targets = dest.alloc_max_order_run(len(pfns))
        movers = list(map(self._extents.pop, pfns))
        source.remove_allocated_run(pfns, order)
        isolated.extend(zip(pfns, repeat(order)))
        self._account(pfns, movers, -1)
        moved = [PageExtent(pfn, order, e.owner_id, e.kind, e.mergeable,
                            e.ksm_shared) for pfn, e in zip(targets, movers)]
        self._extents.update(zip(targets, moved))
        self._account(targets, moved, 1)
        # The single-grab path drops and re-creates an owner whose only
        # extent moves; keeping it instead leaves the same owner sets.
        owners = self._owners
        heaps = self._owner_maxheaps
        for old, new, extent in zip(pfns, targets, movers):
            owner_set = owners[extent.owner_id]
            owner_set.remove(old)
            owner_set.add(new)
            heapq.heappush(heaps[extent.owner_id], -new)
        return len(pfns) << order

    # --- offline bookkeeping (driven by MemoryBlockManager) -------------------

    def isolate_block(self, index: int) -> List[Tuple[int, int]]:
        start, count = self.block_range(index)
        removed = self._zone_of(start).allocator.isolate_range(start, count)
        self._isolated_blocks.add(index)
        return removed

    def undo_isolate_block(self, index: int,
                           removed: List[Tuple[int, int]]) -> None:
        start, _count = self.block_range(index)
        self._zone_of(start).allocator.undo_isolation(removed)
        self._isolated_blocks.discard(index)

    def complete_offline(self, index: int) -> None:
        """Finalize: the block's pages leave the online total entirely."""
        if index not in self._isolated_blocks:
            raise AllocationError(f"block {index} was not isolated")
        if not self.block_is_free(index):
            raise AllocationError(f"block {index} still has used pages")
        self._isolated_blocks.remove(index)
        self._offlined_pages += self.block_pages
        self.soa.mark_offline(index)

    def complete_online(self, index: int) -> None:
        """Give an off-lined block's frames back to its zone's allocator."""
        start, count = self.block_range(index)
        self._zone_of(start).allocator.add_range(start, count)
        self._offlined_pages -= self.block_pages
        self.soa.mark_online(index)

    # --- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Live references to the whole mm state tree.

        Everything lands in one pickle (see :mod:`repro.sim.snapshot`),
        which is what preserves the cross-structure sharing the restore
        depends on: the same :class:`PageExtent` objects appear in
        ``_extents``, the per-block ``extents`` sets, and the recycling
        pool, and the owner max-heaps keep their lazy stale entries so
        the post-restore pop order is bit-identical.
        """
        return {
            "zones": [zone.allocator.state_dict() for zone in self.zones],
            "extents": self._extents,
            "owners": self._owners,
            "owner_maxheaps": self._owner_maxheaps,
            "owner_pages": self._owner_pages,
            "extent_pool": self._extent_pool,
            "blocks": self._blocks,
            "soa": self.soa.state_dict(),
            "offlined_pages": self._offlined_pages,
            "isolated_blocks": self._isolated_blocks,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Adopt a captured state tree in place (zones/spans keep their
        identity; only allocator internals and the index containers are
        replaced)."""
        for zone, allocator_state in zip(self.zones, state["zones"]):
            zone.allocator.load_state_dict(allocator_state)
        self._extents = state["extents"]
        self._owners = state["owners"]
        self._owner_maxheaps = state["owner_maxheaps"]
        self._owner_pages = state["owner_pages"]
        self._extent_pool = state["extent_pool"]
        self._blocks = state["blocks"]
        self.soa.load_state_dict(state["soa"])
        self._offlined_pages = state["offlined_pages"]
        self._isolated_blocks = state["isolated_blocks"]
