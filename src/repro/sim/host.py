"""Host system façade: build a complete simulated host from a profile.

:class:`HostSystem` wires a :class:`~repro.sim.profiles.SystemProfile` into
the concrete component models (cache, IOMMU, NUMA, memory, root complex),
allocates benchmark buffers and prepares cache state — the role the kernel
drivers and control programs play in the real pcie-bench (§5.3, §5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from ..units import CACHELINE_BYTES, KIB, MIB
from .cache import CacheInterface, CacheState, SetAssociativeCache, StatisticalCache
from .devices import DeviceModel
from .hostbuffer import HostBuffer
from .iommu import Iommu, IommuConfig
from .memory import MemoryConfig, MemorySystem
from .numa import NumaTopology
from .profiles import SystemProfile, get_profile
from .rng import DEFAULT_SEED, SimRng
from .root_complex import RootComplex


#: Windows at or below this many cache lines use the line-accurate cache
#: model; larger windows use the statistical occupancy model (warming a
#: 64 MiB window line by line costs more time than it adds fidelity).
FAITHFUL_CACHE_LINE_LIMIT = 64 * KIB // CACHELINE_BYTES


@dataclass
class HostSystem:
    """A simulated host: profile + component models + benchmark buffers."""

    profile: SystemProfile
    root_complex: RootComplex
    numa: NumaTopology
    iommu: Iommu
    rng: SimRng
    #: ``"statistical"``, ``"faithful"`` or ``"auto"`` (picked per window).
    cache_model: str = "auto"

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_profile(
        cls,
        profile: SystemProfile | str,
        *,
        iommu_enabled: bool = False,
        iommu_page_size: int = 4 * KIB,
        seed: int = DEFAULT_SEED,
        cache_model: str = "auto",
    ) -> "HostSystem":
        """Build a host system from a Table 1 profile (or its name).

        Args:
            profile: a :class:`SystemProfile` or its name, e.g. ``"NFP6000-HSW"``.
            iommu_enabled: whether DMA addresses are translated
                (``intel_iommu=on``); disabled by default as in the paper.
            iommu_page_size: IOVA page size; 4 KiB replicates the paper's
                ``sp_off`` setting, 2 MiB models super-pages.
            seed: seed for all stochastic behaviour.
            cache_model: ``"statistical"``, ``"faithful"`` or ``"auto"``
                (the default; picks per benchmark window size).
        """
        if isinstance(profile, str):
            profile = get_profile(profile)
        if cache_model not in ("auto", "statistical", "faithful"):
            raise ValidationError(
                "cache_model must be 'auto', 'statistical' or 'faithful', "
                f"got {cache_model!r}"
            )
        rng = SimRng(seed)
        numa = (
            NumaTopology.dual_socket(remote_penalty_ns=profile.remote_penalty_ns)
            if profile.is_numa
            else NumaTopology.single_socket()
        )
        iommu = Iommu(
            IommuConfig(
                enabled=iommu_enabled,
                page_size=iommu_page_size,
                iotlb_entries=profile.iotlb_entries,
                walk_latency_ns=profile.iommu_walk_ns,
                walker_occupancy_ns=profile.iommu_walker_occupancy_ns,
            )
        )
        memory = MemorySystem(
            MemoryConfig(
                dram_access_ns=profile.cache_discount_ns,
                writeback_ns=profile.writeback_ns,
            )
        )
        cache = _build_cache(profile, cache_model, rng)
        root_complex = RootComplex(
            profile.root_complex_config(),
            cache=cache,
            iommu=iommu,
            numa=numa,
            memory=memory,
            noise=profile.noise,
            rng=rng,
        )
        return cls(
            profile=profile,
            root_complex=root_complex,
            numa=numa,
            iommu=iommu,
            rng=rng,
            cache_model=cache_model,
        )

    # -- buffers ---------------------------------------------------------------------

    def allocate_buffer(
        self,
        window_size: int,
        transfer_size: int,
        *,
        offset: int = 0,
        node: str | int = "local",
        page_size: int | None = None,
    ) -> HostBuffer:
        """Allocate a benchmark host buffer.

        Args:
            window_size: bytes accessed repeatedly by the benchmark.
            transfer_size: bytes per DMA.
            offset: starting offset within a cache line.
            node: ``"local"`` (the device's node), ``"remote"`` (the other
                socket) or an explicit NUMA node id.
            page_size: backing page size; defaults to the IOMMU's page size
                when translation is enabled, 4 KiB otherwise.
        """
        numa_node = self._resolve_node(node)
        resolved_page = page_size or self.iommu.config.page_size
        return HostBuffer(
            window_size=window_size,
            transfer_size=transfer_size,
            offset=offset,
            numa_node=numa_node,
            page_size=resolved_page,
        )

    def _resolve_node(self, node: str | int) -> int:
        if isinstance(node, int):
            self.numa.validate_node(node)
            return node
        text = str(node).strip().lower()
        if text == "local":
            return self.numa.device_node
        if text == "remote":
            return self.numa.remote_node()
        raise ValidationError(
            f"node must be 'local', 'remote' or a node id, got {node!r}"
        )

    # -- benchmark preparation ----------------------------------------------------------

    def prepare(self, buffer: HostBuffer, cache_state: CacheState | str) -> None:
        """Prime cache (and reset IOMMU statistics) for a benchmark run.

        The cache model may be swapped between the line-accurate and the
        statistical implementation depending on the window size when the
        host was built with ``cache_model="auto"``.
        """
        state = CacheState.from_value(cache_state)
        if self.cache_model == "auto":
            wanted_faithful = buffer.window_cachelines <= FAITHFUL_CACHE_LINE_LIMIT
            currently_faithful = isinstance(
                self.root_complex.cache, SetAssociativeCache
            )
            if wanted_faithful != currently_faithful:
                self.root_complex.cache = _build_cache(
                    self.profile,
                    "faithful" if wanted_faithful else "statistical",
                    self.rng,
                )
        self.root_complex.prepare_cache(state, buffer.window_cachelines)
        self.iommu.invalidate()
        # The driver has just mapped (and the warming pass touched) the
        # buffer, so translations for as much of the window as the IOTLB can
        # hold start out cached; misses during the measurement then reflect
        # steady-state capacity behaviour rather than a cold-start transient.
        if self.iommu.enabled:
            page_size = self.iommu.config.page_size
            pages_to_warm = min(
                buffer.window_pages, self.iommu.config.iotlb_entries
            )
            self.iommu.warm(
                [
                    buffer.base_address + index * page_size
                    for index in range(pages_to_warm)
                ]
            )
        self.iommu.reset_stats()

    # -- convenience ---------------------------------------------------------------------

    @property
    def device(self) -> DeviceModel:
        """The benchmark device installed in this system (from the profile)."""
        return self.profile.device()

    @property
    def llc_bytes(self) -> int:
        """LLC size of this host."""
        return self.profile.llc_bytes

    @property
    def ddio_bytes(self) -> int:
        """DDIO slice capacity of this host."""
        return self.profile.ddio_bytes

    def describe(self) -> dict[str, object]:
        """Summary of the host configuration (for reports and debugging)."""
        return {
            "profile": self.profile.name,
            "cpu": self.profile.cpu,
            "architecture": self.profile.architecture,
            "sockets": self.profile.sockets,
            "llc_mib": round(self.profile.llc_mib, 1),
            "ddio_mib": round(self.ddio_bytes / MIB, 2),
            "iommu_enabled": self.iommu.enabled,
            "iommu_page_size": self.iommu.config.page_size,
            "device": self.device.name,
            "seed": self.rng.seed,
        }


def _build_cache(
    profile: SystemProfile, cache_model: str, rng: SimRng
) -> CacheInterface:
    """Create the requested cache implementation for a profile."""
    if cache_model == "faithful":
        return SetAssociativeCache(
            profile.llc_bytes, ddio_fraction=profile.ddio_fraction
        )
    return StatisticalCache(
        profile.llc_bytes, ddio_fraction=profile.ddio_fraction, rng=rng
    )
