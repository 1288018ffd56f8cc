"""Tests for the root complex model (cache, IOMMU, NUMA composition)."""

import pytest

from repro.errors import ValidationError
from repro.sim.cache import CacheState, SetAssociativeCache, StatisticalCache
from repro.sim.iommu import Iommu, IommuConfig
from repro.sim.noise import TightNoise
from repro.sim.numa import NumaTopology
from repro.sim.rng import SimRng
from repro.sim.root_complex import RootComplex, RootComplexConfig
from repro.units import KIB


def make_root_complex(**kwargs) -> RootComplex:
    """A root complex with zero noise so latencies are deterministic."""
    defaults = dict(
        config=RootComplexConfig(base_read_ns=400.0),
        cache=SetAssociativeCache(64 * KIB, ways=8, ddio_fraction=0.25),
        noise=TightNoise(sigma_ns=0.0, tail_probability=0.0),
        rng=SimRng(1),
    )
    defaults.update(kwargs)
    return RootComplex(**defaults)


class TestReads:
    def test_cold_read_pays_dram_penalty(self):
        rc = make_root_complex()
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        access = rc.read(0, 64)
        assert not access.cache_hit
        assert access.latency_ns == pytest.approx(400.0 + 70.0)

    def test_warm_read_hits_llc(self):
        rc = make_root_complex()
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        access = rc.read(0, 64)
        assert access.cache_hit
        assert access.latency_ns == pytest.approx(400.0)

    def test_warm_discount_is_the_dram_penalty(self):
        rc = make_root_complex()
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        cold = rc.read(64, 64).latency_ns
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        warm = rc.read(64, 64).latency_ns
        assert cold - warm == pytest.approx(70.0)

    def test_invalid_access_rejected(self):
        rc = make_root_complex()
        with pytest.raises(ValidationError):
            rc.read(-1, 64)
        with pytest.raises(ValidationError):
            rc.read(0, 0)


class TestWritesAndWriteRead:
    def test_posted_write_commit_time(self):
        rc = make_root_complex()
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        access = rc.write(0, 64)
        assert access.latency_ns >= rc.config.write_commit_ns

    def test_write_read_faster_than_miss_read_plus_write(self):
        # The read after a write always finds the data in the cache.
        rc = make_root_complex()
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        wrrd = rc.write_read(0, 64)
        assert wrrd.latency_ns < 400.0 + 70.0 + 400.0

    def test_write_read_ddio_overflow_costs_writeback(self):
        rc = make_root_complex()
        # Window much larger than the DDIO slice of the small test cache.
        rc.prepare_cache(CacheState.COLD, window_lines=2048)
        baseline = make_root_complex()
        baseline.prepare_cache(CacheState.COLD, window_lines=16)
        small = baseline.write_read(0, 64).latency_ns
        # Fill the DDIO ways of set 0 first so the next allocation evicts.
        step = rc.cache.sets * 64
        for index in range(4):
            rc.write(index * step, 64)
        large = rc.write_read(4 * step, 64).latency_ns
        assert large - small == pytest.approx(70.0)


class TestIommuIntegration:
    def test_iotlb_miss_adds_walk_latency(self):
        iommu = Iommu(IommuConfig(enabled=True, walk_latency_ns=330.0))
        rc = make_root_complex(iommu=iommu)
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        miss = rc.read(0, 64)
        hit = rc.read(0, 64)
        assert miss.latency_ns - hit.latency_ns == pytest.approx(330.0)
        assert not miss.iotlb_hit and hit.iotlb_hit

    def test_walker_occupancy_reported_only_on_miss(self):
        iommu = Iommu(IommuConfig(enabled=True))
        rc = make_root_complex(iommu=iommu)
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        assert rc.read(0, 64).walker_occupancy_ns > 0
        assert rc.read(0, 64).walker_occupancy_ns == 0.0


class TestNumaIntegration:
    def test_remote_buffer_adds_constant_latency(self):
        rc = make_root_complex(numa=NumaTopology.dual_socket(remote_penalty_ns=100.0))
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        local = rc.read(0, 64, buffer_node=0)
        remote = rc.read(64, 64, buffer_node=1)
        assert remote.latency_ns - local.latency_ns == pytest.approx(100.0)
        assert remote.remote and not local.remote

    def test_unknown_node_rejected(self):
        rc = make_root_complex(numa=NumaTopology.dual_socket())
        with pytest.raises(ValidationError):
            rc.read(0, 64, buffer_node=7)

    @pytest.mark.parametrize("method", ["read", "write", "write_read"])
    def test_unknown_node_rejected_on_every_call(self, method):
        rc = make_root_complex(numa=NumaTopology.dual_socket())
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        access = getattr(rc, method)
        for _ in range(3):
            with pytest.raises(ValidationError):
                access(0, 64, buffer_node=7)
        # A valid node still works afterwards, and the bad one still fails.
        assert access(0, 64, buffer_node=1).remote
        with pytest.raises(ValidationError):
            access(0, 64, buffer_node=7)

    @pytest.mark.parametrize("method", ["read", "write", "write_read"])
    def test_remote_node_pays_the_penalty_on_every_call(self, method):
        rc = make_root_complex(numa=NumaTopology.dual_socket(remote_penalty_ns=100.0))
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        access = getattr(rc, method)
        for _ in range(3):
            local = access(0, 64, buffer_node=0)
            remote = access(0, 64, buffer_node=1)
            assert remote.latency_ns - local.latency_ns == pytest.approx(100.0)
            assert remote.remote and not local.remote

    def test_replacing_the_topology_takes_effect(self):
        rc = make_root_complex(numa=NumaTopology.dual_socket(remote_penalty_ns=100.0))
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        local = rc.read(0, 64, buffer_node=0).latency_ns
        assert rc.read(0, 64, buffer_node=1).latency_ns - local == pytest.approx(100.0)
        rc.numa = NumaTopology.dual_socket(remote_penalty_ns=250.0)
        assert rc.read(0, 64, buffer_node=1).latency_ns - local == pytest.approx(250.0)
        rc.numa = NumaTopology.single_socket()
        assert not rc.read(0, 64, buffer_node=0).remote
        with pytest.raises(ValidationError):
            rc.read(0, 64, buffer_node=1)


class TestIngressOccupancy:
    def test_ingress_occupancy_scales_with_tlp_count(self):
        rc = make_root_complex(
            config=RootComplexConfig(base_read_ns=400.0, per_tlp_ingress_ns=10.0)
        )
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        small = rc.read(0, 64).ingress_occupancy_ns
        large = rc.read(0, 1024).ingress_occupancy_ns
        assert small == pytest.approx(10.0)
        assert large == pytest.approx(40.0)

    def test_multi_line_reads_touch_following_lines(self):
        cache = SetAssociativeCache(64 * KIB, ways=8)
        rc = make_root_complex(cache=cache)
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        rc.write(0, 256)  # allocates four lines via DDIO
        assert cache.resident(0) and cache.resident(3)

    def test_swapped_cache_decides_whether_following_lines_are_touched(self):
        rc = make_root_complex()
        statistical = StatisticalCache(rng=SimRng(1))
        statistical.prepare(CacheState.HOST_WARM, window_lines=64)
        rc.cache = statistical
        rc.read(0, 256)
        # The statistical model draws residency once per transaction.
        assert statistical.stats.read_hits + statistical.stats.read_misses == 1
        faithful = SetAssociativeCache(64 * KIB, ways=8)
        rc.cache = faithful
        rc.read(0, 256)
        assert faithful.stats.read_misses == 4
