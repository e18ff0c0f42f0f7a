"""Two-world memory model: carving, access mediation, switch accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teeguard.tee import (
    ADDRESS_LIMIT,
    AccessMode,
    AccessViolation,
    AddressSpaceController,
    Decision,
    Memory,
    MemoryRegion,
    OverlapError,
    RangeError,
    RegionOwner,
    UnmappedAddress,
    World,
    WorldContext,
)


def owner_map(asc: AddressSpaceController, limit: int) -> np.ndarray:
    """Brute-force per-byte ownership table: 1 where secure-only."""
    table = np.zeros(limit, dtype=np.uint8)
    for region in asc.regions:
        if region.owner is RegionOwner.SECURE_ONLY:
            table[region.base : region.end] = 1
    return table


def oracle_access(table: np.ndarray, world: World, base: int, length: int) -> Decision:
    if world is World.SECURE:
        return Decision.ALLOW
    if table[base : base + length].any():
        return Decision.DENY
    return Decision.ALLOW


# -- carving ----------------------------------------------------------------


def test_first_carve_succeeds():
    asc = AddressSpaceController()
    rid = asc.carve_secure_region(0x1000, 0x1000)
    region = asc.region(rid)
    assert region.owner is RegionOwner.SECURE_ONLY
    assert (region.base, region.length) == (0x1000, 0x1000)


def test_region_ids_are_dense_and_unknown_ids_unmapped():
    asc = AddressSpaceController()
    ids = [asc.carve_secure_region(base, 0x100) for base in (0x1000, 0x3000, 0x2000)]
    assert ids == [0, 1, 2]
    assert [asc.region(i).base for i in ids] == [0x1000, 0x3000, 0x2000]
    assert asc.regions == tuple(asc.region(i) for i in ids)
    for unknown in (-1, 3, 1 << 32):
        with pytest.raises(UnmappedAddress):
            asc.region(unknown)


def test_carve_inside_existing_region_overlaps():
    asc = AddressSpaceController()
    asc.carve_secure_region(0x1000, 0x1000)
    with pytest.raises(OverlapError):
        asc.carve_secure_region(0x1800, 0x100)


def test_carve_straddling_start_overlaps():
    # [0x0F00, 0x1100) shares bytes 0x1000..0x10FF with [0x1000, 0x2000)
    asc = AddressSpaceController()
    asc.carve_secure_region(0x1000, 0x1000)
    with pytest.raises(OverlapError):
        asc.carve_secure_region(0x0F00, 0x200)


def test_carve_rejects_bad_ranges():
    asc = AddressSpaceController()
    with pytest.raises(RangeError):
        asc.carve_secure_region(0, 0)
    with pytest.raises(RangeError):
        asc.carve_secure_region(ADDRESS_LIMIT - 4, 8)


def test_region_ids_unique():
    asc = AddressSpaceController()
    ids = [asc.carve_secure_region(i * 0x100, 0x80) for i in range(16)]
    assert len(set(ids)) == 16


def test_adjacent_regions_do_not_overlap():
    asc = AddressSpaceController()
    asc.carve_secure_region(0x1000, 0x1000)
    asc.carve_secure_region(0x2000, 0x1000)  # touching is fine
    assert asc.check_access(World.NORMAL, 0x1FFF, 1) is Decision.DENY
    assert asc.check_access(World.NORMAL, 0x2000, 1) is Decision.DENY


@given(st.lists(st.tuples(st.integers(0, 4000), st.integers(1, 600)), max_size=12))
def test_carves_never_overlap(proposals):
    asc = AddressSpaceController()
    accepted: list[tuple[int, int]] = []
    for base, length in proposals:
        try:
            asc.carve_secure_region(base, length)
        except OverlapError:
            # the proposal must genuinely intersect something accepted
            assert any(b < base + length and base < b + n for b, n in accepted)
            continue
        accepted.append((base, length))
    for i, (b1, n1) in enumerate(accepted):
        for b2, n2 in accepted[i + 1 :]:
            assert not (b1 < b2 + n2 and b2 < b1 + n1)


# -- access checks ----------------------------------------------------------


def test_normal_read_inside_secure_region_denied():
    asc = AddressSpaceController()
    asc.carve_secure_region(0x1000, 0x1000)
    assert asc.check_access(World.NORMAL, 0x1800, 8, AccessMode.READ) is Decision.DENY


def test_secure_write_same_range_allowed():
    asc = AddressSpaceController()
    asc.carve_secure_region(0x1000, 0x1000)
    assert asc.check_access(World.SECURE, 0x1800, 8, AccessMode.WRITE) is Decision.ALLOW


def test_straddling_access_denied_in_full():
    asc = AddressSpaceController()
    asc.carve_secure_region(0x1000, 0x1000)
    # [0x0FF0, 0x1010): 16 normal bytes then 16 secure bytes
    assert asc.check_access(World.NORMAL, 0x0FF0, 0x20) is Decision.DENY
    table = owner_map(asc, 0x3000)
    assert oracle_access(table, World.NORMAL, 0x0FF0, 0x20) is Decision.DENY


def test_check_access_range_errors():
    asc = AddressSpaceController()
    with pytest.raises(RangeError):
        asc.check_access(World.NORMAL, 0, 0)
    with pytest.raises(RangeError):
        asc.check_access(World.NORMAL, ADDRESS_LIMIT - 1, 2)


def test_shared_region_open_to_both_worlds():
    asc = AddressSpaceController()
    asc.map_region(0x4000, 0x100, RegionOwner.SHARED)
    assert asc.check_access(World.NORMAL, 0x4000, 0x100) is Decision.ALLOW
    assert asc.check_access(World.SECURE, 0x4000, 0x100) is Decision.ALLOW


@settings(max_examples=200)
@given(st.data())
def test_access_decisions_match_per_byte_oracle(data):
    limit = 4096
    asc = AddressSpaceController()
    for _ in range(data.draw(st.integers(0, 5))):
        base = data.draw(st.integers(0, limit - 1))
        length = data.draw(st.integers(1, 512))
        if base + length > limit:
            continue
        try:
            owner = data.draw(st.sampled_from(list(RegionOwner)))
            asc.map_region(base, length, owner)
        except OverlapError:
            pass
    table = owner_map(asc, limit)
    mem = Memory(asc)
    for region in asc.regions:
        fill = bytes((region.id + i) % 256 for i in range(region.length))
        mem.write(World.SECURE, region.base, fill)
    for _ in range(20):
        base = data.draw(st.integers(0, limit - 2))
        length = data.draw(st.integers(1, limit - base))
        world = data.draw(st.sampled_from([World.SECURE, World.NORMAL]))
        decision = oracle_access(table, world, base, length)
        assert asc.check_access(world, base, length) is decision
        # a view is checked exactly as a read: same bytes, or the same error
        outcomes = []
        for access in (mem.read, mem.view):
            try:
                outcomes.append(bytes(access(world, base, length)))
            except (AccessViolation, UnmappedAddress) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is AccessViolation) == (decision is Decision.DENY)


# -- memory -----------------------------------------------------------------


def test_memory_round_trip_secure_world():
    asc = AddressSpaceController()
    rid = asc.carve_secure_region(0x1000, 0x100)
    mem = Memory(asc)
    mem.write(World.SECURE, 0x1010, b"\xde\xad\xbe\xef")
    assert mem.read(World.SECURE, 0x1010, 4) == b"\xde\xad\xbe\xef"
    assert asc.region(rid).length == 0x100
    view = mem.view(World.SECURE, 0x1010, 4)
    assert view.readonly and view == b"\xde\xad\xbe\xef"
    with pytest.raises(TypeError):
        view[0] = 0
    with pytest.raises(TypeError):
        view[1:3] = b"\x00\x00"
    # a read is a snapshot; a view aliases the store and shows later writes
    snapshot = mem.read(World.SECURE, 0x1010, 4)
    mem.write(World.SECURE, 0x1010, b"\x01\x02\x03\x04")
    assert snapshot == b"\xde\xad\xbe\xef"
    assert view == b"\x01\x02\x03\x04"


def test_memory_denies_normal_world_on_secure_bytes():
    asc = AddressSpaceController()
    asc.carve_secure_region(0x1000, 0x100)
    mem = Memory(asc)
    with pytest.raises(AccessViolation):
        mem.read(World.NORMAL, 0x1000, 1)
    with pytest.raises(AccessViolation):
        mem.view(World.NORMAL, 0x1000, 1)
    with pytest.raises(AccessViolation):
        mem.write(World.NORMAL, 0x10FF, b"x")


def test_memory_unmapped_range_rejected():
    asc = AddressSpaceController()
    asc.carve_secure_region(0x1000, 0x100)
    mem = Memory(asc)
    for access in (mem.read, mem.view):
        with pytest.raises(UnmappedAddress):
            access(World.SECURE, 0x5000, 4)
        with pytest.raises(UnmappedAddress):
            # spans past the region's end
            access(World.SECURE, 0x10F0, 0x20)
        with pytest.raises(AccessViolation):
            # straddles the region's start: denied before it is located
            access(World.NORMAL, 0x0FF0, 0x20)
        with pytest.raises(UnmappedAddress):
            access(World.SECURE, 0x0FF0, 0x20)


def test_find_free_range_first_fit():
    asc = AddressSpaceController()
    asc.carve_secure_region(0x0, 0x100)
    asc.carve_secure_region(0x200, 0x100)
    assert asc.find_free_range(0x100, 0x10000) == 0x100
    assert asc.find_free_range(0x200, 0x10000) == 0x300
    with pytest.raises(RangeError):
        asc.find_free_range(0x10000, 0x400)


# -- world switching --------------------------------------------------------


def test_switch_changes_world_and_counts():
    ctx = WorldContext(current=World.NORMAL)
    ctx.world_switch(World.SECURE)
    assert ctx.current is World.SECURE
    assert ctx.switch_count == 1


def test_same_world_switch_is_noop():
    ctx = WorldContext(current=World.SECURE)
    ctx.world_switch(World.SECURE)
    assert ctx.switch_count == 0


def test_alternating_switches_accumulate_cost():
    ctx = WorldContext(current=World.NORMAL, cost_per_switch=3)
    for i in range(10):
        ctx.world_switch(World.SECURE if i % 2 == 0 else World.NORMAL)
    assert ctx.switch_count == 10
    assert ctx.switch_cost_units == 30


@given(
    st.lists(st.sampled_from([World.SECURE, World.NORMAL]), max_size=50),
    st.integers(0, 7),
)
def test_cost_identity_over_any_switch_sequence(targets, cost):
    ctx = WorldContext(cost_per_switch=cost)
    for target in targets:
        ctx.world_switch(target)
    assert ctx.switch_cost_units == ctx.switch_count * cost


def test_region_repr_mentions_id_and_owner():
    region = MemoryRegion(3, 0x40, 0x10, RegionOwner.SHARED)
    assert "r3" in repr(region) and "SHARED" in repr(region)
