"""Tests for the HostSystem façade."""

from dataclasses import fields

import pytest

from repro.errors import ValidationError
from repro.sim.cache import SetAssociativeCache, StatisticalCache
from repro.sim.host import HostSystem
from repro.units import KIB, MIB


class TestConstruction:
    def test_from_profile_by_name(self):
        host = HostSystem.from_profile("NFP6000-HSW")
        assert host.profile.name == "NFP6000-HSW"
        assert host.device.name == "NFP6000"

    def test_netfpga_profile_selects_netfpga_device(self):
        host = HostSystem.from_profile("NetFPGA-HSW")
        assert host.device.name == "NetFPGA"

    def test_iommu_disabled_by_default(self):
        assert not HostSystem.from_profile("NFP6000-HSW").iommu.enabled

    def test_iommu_can_be_enabled_with_page_size(self):
        host = HostSystem.from_profile(
            "NFP6000-BDW", iommu_enabled=True, iommu_page_size=2 * MIB
        )
        assert host.iommu.enabled
        assert host.iommu.config.page_size == 2 * MIB

    def test_numa_topology_matches_profile(self):
        assert HostSystem.from_profile("NFP6000-BDW").numa.is_numa
        assert not HostSystem.from_profile("NFP6000-SNB").numa.is_numa

    def test_invalid_cache_model_rejected(self):
        with pytest.raises(ValidationError):
            HostSystem.from_profile("NFP6000-HSW", cache_model="magic")

    def test_cache_model_is_a_field(self):
        assert HostSystem.from_profile("NFP6000-HSW").cache_model == "auto"
        host = HostSystem.from_profile("NFP6000-HSW", cache_model="faithful")
        assert host.cache_model == "faithful"
        assert "cache_model" in {field.name for field in fields(HostSystem)}

    def test_describe_mentions_profile_and_device(self):
        info = HostSystem.from_profile("NFP6000-HSW", seed=7).describe()
        assert info["profile"] == "NFP6000-HSW"
        assert info["device"] == "NFP6000"
        assert info["seed"] == 7


class TestBufferAllocation:
    def test_local_buffer_on_device_node(self):
        host = HostSystem.from_profile("NFP6000-BDW")
        buffer = host.allocate_buffer(8 * KIB, 64, node="local")
        assert buffer.numa_node == host.numa.device_node

    def test_remote_buffer_on_other_node(self):
        host = HostSystem.from_profile("NFP6000-BDW")
        buffer = host.allocate_buffer(8 * KIB, 64, node="remote")
        assert buffer.numa_node != host.numa.device_node

    def test_remote_rejected_on_single_socket(self):
        host = HostSystem.from_profile("NFP6000-SNB")
        with pytest.raises(ValidationError):
            host.allocate_buffer(8 * KIB, 64, node="remote")

    def test_explicit_node_id(self):
        host = HostSystem.from_profile("NFP6000-BDW")
        assert host.allocate_buffer(8 * KIB, 64, node=1).numa_node == 1

    def test_invalid_node_string(self):
        host = HostSystem.from_profile("NFP6000-BDW")
        with pytest.raises(ValidationError):
            host.allocate_buffer(8 * KIB, 64, node="elsewhere")

    def test_buffer_page_size_follows_iommu(self):
        host = HostSystem.from_profile(
            "NFP6000-BDW", iommu_enabled=True, iommu_page_size=2 * MIB
        )
        buffer = host.allocate_buffer(8 * MIB, 64)
        assert buffer.page_size == 2 * MIB


class TestPrepare:
    def test_auto_mode_uses_faithful_cache_for_small_windows(self):
        host = HostSystem.from_profile("NFP6000-HSW")
        buffer = host.allocate_buffer(8 * KIB, 64)
        host.prepare(buffer, "host_warm")
        assert isinstance(host.root_complex.cache, SetAssociativeCache)

    def test_auto_mode_uses_statistical_cache_for_large_windows(self):
        host = HostSystem.from_profile("NFP6000-HSW")
        buffer = host.allocate_buffer(64 * MIB, 64)
        host.prepare(buffer, "host_warm")
        assert isinstance(host.root_complex.cache, StatisticalCache)

    def test_forced_statistical_model_sticks(self):
        host = HostSystem.from_profile("NFP6000-HSW", cache_model="statistical")
        buffer = host.allocate_buffer(8 * KIB, 64)
        host.prepare(buffer, "host_warm")
        assert isinstance(host.root_complex.cache, StatisticalCache)

    def test_warm_prepare_makes_reads_hit(self):
        host = HostSystem.from_profile("NFP6000-HSW")
        buffer = host.allocate_buffer(8 * KIB, 64)
        host.prepare(buffer, "host_warm")
        assert host.root_complex.read(buffer.unit_address(0), 64).cache_hit

    def test_cold_prepare_makes_reads_miss(self):
        host = HostSystem.from_profile("NFP6000-HSW")
        buffer = host.allocate_buffer(8 * KIB, 64)
        host.prepare(buffer, "cold")
        assert not host.root_complex.read(buffer.unit_address(0), 64).cache_hit

    def test_prepare_warms_iotlb_up_to_capacity(self):
        host = HostSystem.from_profile("NFP6000-BDW", iommu_enabled=True)
        buffer = host.allocate_buffer(128 * KIB, 64)  # 32 pages, fits the IOTLB
        host.prepare(buffer, "host_warm")
        assert len(host.iommu.iotlb) == buffer.window_pages

    def test_prepare_resets_iommu_stats(self):
        host = HostSystem.from_profile("NFP6000-BDW", iommu_enabled=True)
        buffer = host.allocate_buffer(8 * KIB, 64)
        host.root_complex.read(0, 64)
        host.prepare(buffer, "cold")
        assert host.iommu.stats.translations == 0

    def test_llc_and_ddio_shortcuts(self):
        host = HostSystem.from_profile("NFP6000-SNB")
        assert host.llc_bytes == 15 * MIB
        assert host.ddio_bytes == pytest.approx(1.5 * MIB, rel=0.01)
