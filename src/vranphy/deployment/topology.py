"""Server core topology and role-based instance planning.

One block rule places every instance: a server's cores are cut into
contiguous 8-core blocks, the first block stays with the host OS, and
each instance gets one whole block. On the EPYC-style profiles a block is
exactly one 8-core complex (one L3), so no instance crosses a complex or
die boundary, which would cost gNB performance; on a flat profile, whose
cores share one L3, a block is any 8 contiguous cores. Each profile also
names the emulated coding device its deployments run on.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import CapacityError, InvalidConfigError

CORES_PER_INSTANCE = 8


@dataclass(frozen=True)
class CoreTopology:
    name: str
    total_cores: int
    device: str     # an ``emulated.DEVICE_PROFILES`` name

    def __post_init__(self):
        if self.total_cores < CORES_PER_INSTANCE:
            raise InvalidConfigError("topology smaller than one block")


TOPOLOGY_PROFILES = {
    # 64 high-performance cores, one 8-core complex per die
    "hpp": CoreTopology("hpp", 64, "hpp-sw-emulated"),
    # 64 efficiency cores, two 8-core complexes per die
    "ep_rfsoc": CoreTopology("ep_rfsoc", 64, "t2-emulated"),
    # 32 cores behind a single shared L3: no complex penalty
    "vranp": CoreTopology("vranp", 32, "vran-boost-emulated"),
}


def canonical_profile(name: str) -> str:
    """A profile's key in ``TOPOLOGY_PROFILES`` from any spelling of its
    name: case and ``-`` against ``_`` do not matter."""
    return name.replace("-", "_").lower()


def topology_for(profile: str) -> CoreTopology:
    try:
        return TOPOLOGY_PROFILES[canonical_profile(profile)]
    except KeyError:
        raise InvalidConfigError(f"unknown topology profile {profile!r}")


@dataclass(frozen=True)
class InstancePlan:
    """Role-tagged core assignment of one gNB instance.

    Four exclusive single-task cores (IO, worker, L1 TX, L1 RX), a pool of
    four, and the low-usage system and radio-unit roles overlap the pool.
    """

    instance_id: int
    io: int
    worker: int
    l1_tx: int
    l1_rx: int
    system: int
    ru: int
    pool: tuple[int, ...]


def plan_from_block(instance_id: int, cores: list[int]) -> InstancePlan:
    if len(cores) != CORES_PER_INSTANCE:
        raise InvalidConfigError("an instance block holds 8 cores")
    c = sorted(cores)
    return InstancePlan(instance_id=instance_id, io=c[0], worker=c[1],
                        l1_tx=c[2], l1_rx=c[3], system=c[4], ru=c[5],
                        pool=tuple(c[4:8]))


def default_core_plan(topology: CoreTopology, n_instances: int
                      ) -> list[InstancePlan]:
    """One block per instance under the module's block rule."""
    if n_instances < 1:
        raise InvalidConfigError("n_instances must be >= 1")
    size = CORES_PER_INSTANCE
    blocks = [list(range(i * size, (i + 1) * size))
              for i in range(topology.total_cores // size)]
    capacity = len(blocks) - 1          # block 0 is reserved for the host
    if n_instances > capacity:
        raise CapacityError(
            f"{topology.name}: {n_instances} instances need "
            f"{n_instances + 1} blocks, only {len(blocks)} exist")
    return [plan_from_block(i, blocks[i + 1]) for i in range(n_instances)]
