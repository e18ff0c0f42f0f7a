"""Two-world machine model: secure/normal memory partitioning and world-switch accounting.

The address space is a flat 64-bit byte-addressed space with no page
granularity.  An :class:`AddressSpaceController` carves it into regions owned
by exactly one of the two worlds (or shared); addresses outside any region
default to normal-world ownership.  Accesses that straddle a secure boundary
are denied in full.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

ADDRESS_BITS = 64
ADDRESS_LIMIT = 1 << ADDRESS_BITS


class World(enum.Enum):
    SECURE = "secure"
    NORMAL = "normal"


class RegionOwner(enum.Enum):
    SECURE_ONLY = "secure"
    NORMAL_ONLY = "normal"
    SHARED = "shared"


class AccessMode(enum.Enum):
    READ = "read"
    WRITE = "write"


class Decision(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"


class RangeError(ValueError):
    """Zero-length range or address arithmetic overflow."""


class OverlapError(ValueError):
    """Proposed region intersects an existing one."""


class AccessViolation(PermissionError):
    """A mediated memory access was denied for the calling world."""


class UnmappedAddress(LookupError):
    """Memory access touched an address with no backing region."""


def _check_range(base: int, length: int) -> None:
    if length <= 0:
        raise RangeError(f"length must be positive, got {length}")
    if base < 0 or base + length > ADDRESS_LIMIT:
        raise RangeError(f"range [{base:#x}, +{length:#x}) overflows the address space")


@dataclass(frozen=True)
class MemoryRegion:
    id: int
    base: int
    length: int
    owner: RegionOwner

    def __post_init__(self) -> None:
        _check_range(self.base, self.length)

    @property
    def end(self) -> int:
        return self.base + self.length

    def intersects(self, base: int, length: int) -> bool:
        return base < self.end and self.base < base + length

    def __repr__(self) -> str:
        return (
            f"MemoryRegion(r{self.id}, [{self.base:#x}, +{self.length:#x}), "
            f"{self.owner.name})"
        )


class AddressSpaceController:
    """Registers memory regions and mediates world access to address ranges.

    Region ids are small integers handed out sequentially.  Regions never
    overlap one another, so every address resolves to exactly one effective
    owner; unmapped addresses are treated as normal-world memory.
    """

    def __init__(self) -> None:
        self._regions: tuple[MemoryRegion, ...] = ()  # region i has id i

    @property
    def regions(self) -> tuple[MemoryRegion, ...]:
        return self._regions

    def region(self, region_id: int) -> MemoryRegion:
        if 0 <= region_id < len(self._regions):
            return self._regions[region_id]
        raise UnmappedAddress(f"no region r{region_id}")

    def carve_secure_region(self, base: int, length: int) -> int:
        """Carve a secure-RAM region; returns the new region id."""
        return self.map_region(base, length, RegionOwner.SECURE_ONLY)

    def map_region(self, base: int, length: int, owner: RegionOwner) -> int:
        _check_range(base, length)
        for region in self._regions:
            if region.intersects(base, length):
                raise OverlapError(
                    f"[{base:#x}, +{length:#x}) intersects {region!r}"
                )
        region_id = len(self._regions)
        self._regions += (MemoryRegion(region_id, base, length, owner),)
        return region_id

    def find_free_range(self, length: int, limit: int) -> int:
        """First-fit base address for `length` bytes below `limit`, or RangeError."""
        _check_range(0, length)
        cursor = 0
        for region in sorted(self._regions, key=lambda r: r.base):
            if region.base - cursor >= length:
                break
            cursor = max(cursor, region.end)
        if cursor + length > limit:
            raise RangeError(f"no free range of {length:#x} bytes below {limit:#x}")
        return cursor

    def check_access(
        self, world: World, base: int, length: int, mode: AccessMode = AccessMode.READ
    ) -> Decision:
        """Pure access decision: the secure world sees everything; the normal
        world is denied if any byte of the range is secure-only."""
        _check_range(base, length)
        if world is World.SECURE:
            return Decision.ALLOW
        for region in self._regions:
            if region.owner is RegionOwner.SECURE_ONLY and region.intersects(base, length):
                return Decision.DENY
        return Decision.ALLOW


class Memory:
    """Byte storage behind the controller's regions, with mediated access.

    Only registered regions have backing storage; every read/write is checked
    against the controller before it touches bytes.
    """

    def __init__(self, asc: AddressSpaceController) -> None:
        self.asc = asc
        self._backing: dict[int, bytearray] = {}

    def _locate(self, base: int, length: int) -> tuple[bytearray, int]:
        """Backing store of the one region holding the range, and the range's
        offset in it.  A region gets its store on first access."""
        end = base + length
        for region in self.asc.regions:
            if region.base <= base and end <= region.base + region.length:
                store = self._backing.get(region.id)
                if store is None:
                    store = self._backing[region.id] = bytearray(region.length)
                return store, base - region.base
        raise UnmappedAddress(
            f"range [{base:#x}, +{length:#x}) is not backed by a single region"
        )

    def view(self, world: World, base: int, length: int) -> memoryview:
        """Read-only view of the range, checked as a read.  It aliases the
        backing store and shows every later write into the range: a block
        parsed from a view of the PTA's out region stays valid until the next
        read command writes into that region."""
        if self.asc.check_access(world, base, length, AccessMode.READ) is Decision.DENY:
            raise AccessViolation(
                f"{world.name} world read of [{base:#x}, +{length:#x}) denied"
            )
        store, offset = self._locate(base, length)
        return memoryview(store).toreadonly()[offset : offset + length]

    def read(self, world: World, base: int, length: int) -> bytes:
        """A copy of the range, which later writes leave unchanged."""
        return bytes(self.view(world, base, length))

    def write(self, world: World, base: int, data: bytes) -> None:
        length = len(data)
        if not length:
            return
        if self.asc.check_access(world, base, length, AccessMode.WRITE) is Decision.DENY:
            raise AccessViolation(
                f"{world.name} world write of [{base:#x}, +{length:#x}) denied"
            )
        store, offset = self._locate(base, length)
        store[offset : offset + length] = data


@dataclass
class WorldContext:
    """Tracks which world is executing and the cumulative switch cost."""

    current: World = World.SECURE
    cost_per_switch: int = 1
    switch_count: int = field(default=0)
    switch_cost_units: int = field(default=0)

    def world_switch(self, target: World) -> "WorldContext":
        if target is not self.current:
            self.current = target
            self.switch_count += 1
            self.switch_cost_units += self.cost_per_switch
        return self
