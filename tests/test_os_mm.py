"""Physical memory manager: allocation, zones, accounting, migration."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.errors import AllocationError, ConfigurationError
from repro.os.buddy import MAX_ORDER
from repro.os.mm import PhysicalMemoryManager
from repro.os.page import OwnerKind, PageExtent
from repro.os.zones import ZoneKind
from repro.units import GIB, MIB, PAGE_SIZE


def make_mm(total=4 * GIB, movable=0.75) -> PhysicalMemoryManager:
    return PhysicalMemoryManager(total_bytes=total, block_bytes=128 * MIB,
                                 movable_fraction=movable)


class TestConstruction:
    def test_block_and_page_counts(self, small_mm):
        assert small_mm.total_pages == 4 * GIB // PAGE_SIZE
        assert small_mm.num_blocks == 32
        assert small_mm.block_pages == 32768

    def test_rejects_misaligned_capacity(self):
        with pytest.raises(ConfigurationError):
            PhysicalMemoryManager(total_bytes=4 * GIB + MIB,
                                  block_bytes=128 * MIB)

    def test_rejects_tiny_blocks(self):
        with pytest.raises(ConfigurationError):
            PhysicalMemoryManager(total_bytes=4 * GIB, block_bytes=MIB)

    def test_zone_split(self, small_mm):
        kinds = [z.kind for z in small_mm.zones]
        assert kinds == [ZoneKind.NORMAL, ZoneKind.MOVABLE]
        movable = small_mm.zones[1]
        assert movable.pages == pytest.approx(0.75 * small_mm.total_pages, rel=0.01)


class TestAllocation:
    def test_allocate_and_count(self, small_mm):
        small_mm.allocate("a", 1000)
        assert small_mm.used_pages == 1000
        assert small_mm.owner_pages("a") == 1000

    def test_user_goes_to_movable_zone_first(self, small_mm):
        extents = small_mm.allocate("a", 100)
        movable = small_mm.zones[1]
        assert all(movable.contains(e.pfn) for e in extents)

    def test_kernel_confined_to_normal_zone(self, small_mm):
        extents = small_mm.allocate("kernel", 100, kind=OwnerKind.KERNEL)
        normal = small_mm.zones[0]
        assert all(normal.contains(e.pfn) for e in extents)

    def test_pinned_lands_in_movable_zone(self, small_mm):
        """The Section 5.2 leak: pinned pages sit in movable blocks."""
        extents = small_mm.allocate("driver", 8, kind=OwnerKind.PINNED)
        movable = small_mm.zones[1]
        assert all(movable.contains(e.pfn) for e in extents)
        assert all(not e.movable for e in extents)

    def test_user_overflows_into_normal_zone(self, small_mm):
        movable_pages = small_mm.zones[1].pages
        small_mm.allocate("big", movable_pages + 10)
        assert small_mm.owner_pages("big") == movable_pages + 10

    def test_kernel_cannot_use_movable_zone(self, small_mm):
        normal_pages = small_mm.zones[0].pages
        with pytest.raises(AllocationError):
            small_mm.allocate("kernel", normal_pages + 1,
                              kind=OwnerKind.KERNEL)

    def test_allocation_failure_rolls_back(self, small_mm):
        with pytest.raises(AllocationError):
            small_mm.allocate("huge", small_mm.total_pages + 1)
        assert small_mm.used_pages == 0

    def test_zero_pages_rejected(self, small_mm):
        with pytest.raises(AllocationError):
            small_mm.allocate("a", 0)


class TestFreeing:
    def test_free_all(self, small_mm):
        small_mm.allocate("a", 5000)
        assert small_mm.free_all("a") == 5000
        assert small_mm.used_pages == 0
        assert small_mm.owner_pages("a") == 0

    def test_partial_free_exact(self, small_mm):
        small_mm.allocate("a", 10000)
        freed = small_mm.free_pages_of("a", 3333)
        assert freed == 3333
        assert small_mm.owner_pages("a") == 6667

    def test_partial_free_prefers_high_addresses(self, small_mm):
        small_mm.allocate("a", 4096)
        before = {e.pfn for e in small_mm.extents_of("a")}
        small_mm.free_pages_of("a", 2048)
        after = {e.pfn for e in small_mm.extents_of("a")}
        assert min(before) in {e for e in after} or min(after) <= min(before)
        assert max(after) < max(before)

    def test_free_more_than_held(self, small_mm):
        small_mm.allocate("a", 100)
        assert small_mm.free_pages_of("a", 1000) == 100

    def test_free_unknown_owner_is_zero(self, small_mm):
        assert small_mm.free_all("ghost") == 0
        assert small_mm.free_pages_of("ghost", 10) == 0

    def test_free_unknown_extent_rejected(self, small_mm):
        with pytest.raises(AllocationError):
            small_mm.free_extent(12345)

    @given(st.integers(min_value=1, max_value=9999))
    @settings(max_examples=30, deadline=None)
    def test_alloc_free_roundtrip_conserves(self, n):
        mm = make_mm()
        mm.allocate("x", 10000)
        mm.free_pages_of("x", n)
        assert mm.owner_pages("x") == 10000 - n
        assert mm.used_pages == 10000 - n
        mm.free_all("x")
        assert mm.free_pages == mm.total_pages


class TestBlockAccounting:
    def test_used_pages_tracked_per_block(self, small_mm):
        small_mm.allocate("a", small_mm.block_pages)
        used_blocks = [i for i in range(small_mm.num_blocks)
                       if not small_mm.block_is_free(i)]
        total_used = sum(small_mm.block_accounting(i).used_pages
                         for i in used_blocks)
        assert total_used == small_mm.block_pages

    def test_removable_flag(self, small_mm):
        extents = small_mm.allocate("driver", 8, kind=OwnerKind.PINNED)
        block = extents[0].pfn // small_mm.block_pages
        assert not small_mm.block_is_removable(block)
        small_mm.free_all("driver")
        assert small_mm.block_is_removable(block)

    def test_user_pages_keep_block_removable(self, small_mm):
        extents = small_mm.allocate("a", 8)
        block = extents[0].pfn // small_mm.block_pages
        assert small_mm.block_is_removable(block)
        assert not small_mm.block_is_free(block)

    def test_block_range(self, small_mm):
        start, count = small_mm.block_range(3)
        assert start == 3 * small_mm.block_pages
        assert count == small_mm.block_pages

    def test_block_range_validates(self, small_mm):
        with pytest.raises(ConfigurationError):
            small_mm.block_range(small_mm.num_blocks)

    def test_zone_kind_of_block(self, small_mm):
        assert small_mm.zone_kind_of_block(0) is ZoneKind.NORMAL
        assert small_mm.zone_kind_of_block(
            small_mm.num_blocks - 1) is ZoneKind.MOVABLE


class TestMigration:
    def test_migrate_block_out_moves_everything(self, small_mm):
        extents = small_mm.allocate("a", 500)
        block = extents[0].pfn // small_mm.block_pages
        isolated = small_mm.isolate_block(block)
        moved = small_mm.migrate_block_out(block, isolated)
        assert moved >= 1
        assert small_mm.block_is_free(block)
        assert small_mm.owner_pages("a") == 500  # data preserved elsewhere

    def test_migrate_refuses_unmovable(self, small_mm):
        extents = small_mm.allocate("drv", 8, kind=OwnerKind.PINNED)
        block = extents[0].pfn // small_mm.block_pages
        isolated = small_mm.isolate_block(block)
        with pytest.raises(AllocationError):
            small_mm.migrate_block_out(block, isolated)
        small_mm.undo_isolate_block(block, isolated)

    def test_migration_fails_without_destination(self):
        mm = make_mm()
        mm.allocate("fill", mm.total_pages - 100)
        # Any used block has nowhere to migrate to now.
        target = next(i for i in range(mm.num_blocks)
                      if not mm.block_is_free(i))
        isolated = mm.isolate_block(target)
        with pytest.raises(AllocationError):
            mm.migrate_block_out(target, isolated)
        mm.undo_isolate_block(target, isolated)
        assert mm.used_pages == mm.total_pages - 100


class TestMeminfo:
    def test_snapshot_consistency(self, small_mm):
        small_mm.allocate("a", 12345)
        info = small_mm.meminfo()
        assert info.total_pages == small_mm.total_pages
        assert info.used_pages == 12345
        assert info.free_pages == info.total_pages - 12345
        assert info.utilization == pytest.approx(12345 / info.total_pages)

    def test_render_mentions_fields(self, small_mm):
        text = small_mm.meminfo().render()
        for field in ("MemTotal", "MemFree", "MemUsed", "MemOffline"):
            assert field in text


class TestUndoIsolation:
    def test_rollback_coalesces_migrated_frames(self):
        """Undoing an isolation after a migration re-merges buddy halves."""
        mm = PhysicalMemoryManager(total_bytes=8 * 128 * MIB,
                                   block_bytes=128 * MIB)
        low = mm.allocate("a", 512)[0]
        high = mm.allocate("b", 512)[0]
        assert (low.order, high.order) == (9, 9)
        assert high.pfn == low.pfn + 512  # two halves of one 4 MiB block
        block = low.pfn // mm.block_pages
        isolated = mm.isolate_block(block)
        mm.migrate_block_out(block, isolated)
        mm.undo_isolate_block(block, isolated)
        mm.free_all("a")
        mm.free_all("b")
        movable = mm.zones[1].allocator
        assert len(movable.free_blocks(MAX_ORDER)) == 192
        assert not movable.free_blocks(MAX_ORDER - 1)
        assert mm.allocate("c", 1024)[0].pfn == low.pfn


class TestExtentPool:
    def test_departed_owner_leaves_nothing_pooled(self):
        """Arrive/depart cycles: teardown pools none of the owner's
        extents, so the pool stays empty."""
        mm = make_mm(total=1 * GIB)
        for cycle in range(20):
            mm.allocate(f"vm{cycle}", 4096 + 123 * cycle)
            mm.allocate(f"pin{cycle}", 8, kind=OwnerKind.PINNED)
            mm.free_all(f"pin{cycle}")
            mm.free_all(f"vm{cycle}")
            assert not mm._extent_pool
        assert mm.free_pages == mm.total_pages

    def test_pool_stays_bounded_with_shrinks(self):
        """Owners that shrink and grow back before departing: teardown
        leaves the pool as it was, the pool never holds an extent in
        use, and its size stops growing after the first cycles."""
        mm = make_mm(total=1 * GIB)
        mm.allocate("resident", 3000)
        sizes = []
        for cycle in range(40):
            owner = f"vm{cycle}"
            mm.allocate(owner, 5000 + 700 * (cycle % 5))
            mm.free_pages_of(owner, 1500)   # shrink: pooled
            mm.allocate(owner, 1000)        # grow back: reuses the pool
            mm.free_pages_of("resident", 100)
            mm.allocate("resident", 100)
            before = dict(mm._extent_pool)
            mm.free_all(owner)
            assert mm._extent_pool == before
            assert all(mm._extents.get(pfn) is not extent
                       for pfn, extent in mm._extent_pool.items())
            sizes.append(len(mm._extent_pool))
        assert max(sizes) == max(sizes[:5])


# --- equivalence of the bulk paths with a per-extent reference ---------------


class PerExtentMM(PhysicalMemoryManager):
    """The memory manager with every VM-sized operation done one extent
    at a time through ``_register``/``_unregister``/``free_extent``: the
    reference the bulk transactions must match state for state."""

    def allocate(self, owner_id, n_pages, kind=OwnerKind.USER,
                 mergeable=False):
        if n_pages <= 0:
            raise AllocationError("n_pages must be positive")
        plan = []
        remaining = n_pages
        for zone in self._zones_for(kind):
            if remaining == 0:
                break
            take = min(remaining, zone.allocator.free_pages)
            if take <= 0:
                continue
            plan.append((zone, zone.allocator.alloc_pages(take)))
            remaining -= take
        if remaining > 0:
            for zone, blocks in plan:
                for pfn, order in blocks:
                    zone.allocator.free_block(pfn, order)
            raise AllocationError("short")
        extents = []
        for _zone, blocks in plan:
            for pfn, order in blocks:
                extent = PageExtent(pfn, order, owner_id, kind, mergeable)
                self._register(extent)
                extents.append(extent)
        return extents

    def free_pages_of(self, owner_id, n_pages):
        freed = 0
        for pfn in sorted(self._owners.get(owner_id, ()), reverse=True):
            if freed >= n_pages:
                break
            extent = self._extents[pfn]
            if freed + extent.pages > n_pages:
                return freed + self._free_partial(extent, n_pages - freed)
            freed += self.free_extent(pfn)
        return freed

    def free_all(self, owner_id):
        return sum(self.free_extent(pfn)
                   for pfn in list(self._owners.get(owner_id, ())))

    def migrate_block_out(self, index, isolated):
        migrated = 0
        source = self._zone_of(self.block_range(index)[0]).allocator
        for extent in self.block_extents(index):
            if not extent.movable:
                raise AllocationError("unmovable")
            migrated += self._move_one(extent, self._zones_for(extent.kind),
                                       source, isolated)
        return migrated


def _mm_state(mm):
    soa = mm.soa_view()
    return {
        "buddy": [(z.allocator._sorted, z.allocator._allocated,
                   z.allocator.free_pages) for z in mm.zones],
        "blocks": [(b.used_pages, b.unmovable_pages, b.extents)
                   for b in mm._blocks],
        "extents": {pfn: (e.order, e.owner_id, e.kind, e.mergeable)
                    for pfn, e in mm._extents.items()},
        "owners": mm._owners,
        "owner_pages": mm._owner_pages,
        "soa": [soa.used_pages.tolist(), soa.unmovable_pages.tolist(),
                soa.offline.tolist()],
        "offlined": mm.online_pages,
    }


class BulkEquivalenceMachine(RuleBasedStateMachine):
    """Random operation sequences on the bulk mm and the per-extent
    reference; the two must agree on every piece of state after every
    step, including which operations raise."""

    OWNERS = ("a", "b", "c", "d")
    KINDS = (OwnerKind.USER, OwnerKind.USER, OwnerKind.PINNED,
             OwnerKind.KERNEL)

    @initialize()
    def setup(self):
        # 16 memory blocks of four max-order blocks each: small enough
        # that free max-order blocks run out during migrations.
        self.pair = [cls(total_bytes=256 * MIB, block_bytes=16 * MIB,
                         movable_fraction=0.5)
                     for cls in (PhysicalMemoryManager, PerExtentMM)]
        self.offline = set()

    def _both(self, op):
        outcomes = []
        for mm in self.pair:
            try:
                outcomes.append(("ok", op(mm)))
            except AllocationError:
                outcomes.append(("raised", None))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @rule(owner=st.sampled_from(OWNERS), kind=st.sampled_from(KINDS),
          pages=st.one_of(st.integers(1, 3000),
                          st.integers(1, 24).map(lambda k: k << MAX_ORDER)))
    def allocate(self, owner, kind, pages):
        self._both(lambda mm: [e.pfn for e in sorted(
            mm.allocate(owner, pages, kind=kind), key=lambda e: e.pfn)])

    @rule(owner=st.sampled_from(OWNERS), pages=st.integers(1, 20_000))
    def free_pages_of(self, owner, pages):
        self._both(lambda mm: mm.free_pages_of(owner, pages))

    @rule(owner=st.sampled_from(OWNERS))
    def free_all(self, owner):
        self._both(lambda mm: mm.free_all(owner))

    @rule(block=st.integers(0, 15), complete=st.booleans())
    def offline_block(self, block, complete):
        if block in self.offline:
            return
        isolated = [mm.isolate_block(block) for mm in self.pair]

        def migrate(mm):
            held = isolated[self.pair.index(mm)]
            if not mm.block_is_free(block):
                mm.migrate_block_out(block, held)
            return sorted(held)

        outcome, _ = self._both(migrate)
        for mm, held in zip(self.pair, isolated):
            if outcome == "ok" and complete:
                mm.complete_offline(block)
            else:
                mm.undo_isolate_block(block, held)
        if outcome == "ok" and complete:
            self.offline.add(block)

    @rule(block=st.integers(0, 15))
    def online_block(self, block):
        if block in self.offline:
            self.offline.remove(block)
            for mm in self.pair:
                mm.complete_online(block)

    @invariant()
    def same_state(self):
        if hasattr(self, "pair"):
            bulk, reference = self.pair
            assert _mm_state(bulk) == _mm_state(reference)


BulkEquivalenceMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
TestBulkEquivalence = BulkEquivalenceMachine.TestCase


class TestBulkMigration:
    @pytest.mark.parametrize("fill_normal", [False, True])
    @pytest.mark.parametrize("free_top", [0, 1, 3, 4, 9])
    def test_run_migration_matches_reference(self, free_top, fill_normal):
        """A block of four max-order extents of three owners migrated
        with 0..9 free max-order blocks left in ZONE_MOVABLE, and
        ZONE_NORMAL free or full: bulk when a zone has at least four,
        single grabs (falling back to smaller blocks or the next zone,
        or failing part way) otherwise — the same state as the
        reference either way."""
        pair = [cls(total_bytes=256 * MIB, block_bytes=16 * MIB,
                    movable_fraction=0.5)
                for cls in (PhysicalMemoryManager, PerExtentMM)]
        outcomes = []
        for mm in pair:
            movable = mm.zones[1].allocator
            for k in range(4):  # one run, three owners
                mm.allocate(f"vm{k % 3}", 1 << MAX_ORDER,
                            mergeable=k == 2)
            block = max(mm._extents) // mm.block_pages
            free = movable.free_block_count(MAX_ORDER)
            mm.allocate("fill", (free - free_top) << MAX_ORDER)
            mm.allocate("frag", 600)
            if fill_normal:
                mm.allocate("kernel", mm.zones[0].allocator.free_pages,
                            kind=OwnerKind.KERNEL)
            mm.free_pages_of("fill", 700)
            isolated = mm.isolate_block(block)
            try:
                outcomes.append(mm.migrate_block_out(block, isolated))
                mm.complete_offline(block)
            except AllocationError:
                outcomes.append(None)
                mm.undo_isolate_block(block, isolated)
        assert outcomes[0] == outcomes[1]
        assert _mm_state(pair[0]) == _mm_state(pair[1])
