"""Per-layer tracing from outside the program: wrappers around layer entry points.

:class:`LayerTracer` replaces the public entry points of each simulator
layer with timing wrappers for the duration of a ``with`` block, installed
on the classes before any simulator is built, so every instance — and
every bound method a simulator caches at construction — goes through
them.  Each wrapper counts its calls and records its span; a layer's
*self* time is its span minus the spans of wrapped calls nested inside it.

Call counts are checked against the program's own counters after every
traced round (:meth:`LayerTracer.cross_check`).  A wrapper the hot path
bypassed would count zero; the check turns that into a failed round
instead of a silently wrong metric.
"""

from __future__ import annotations

import functools
from time import perf_counter

from repro.control.policies import Controller
from repro.control.runtime import Actuators, ControlRuntime
from repro.sim.cache import SetAssociativeCache, StatisticalCache
from repro.sim.engine import ArbitratedResource, EventLoop
from repro.sim.host import HostSystem
from repro.sim.iommu import Iommu
from repro.sim.nichost import HostCoupling
from repro.sim.noise import HeavyTailNoise, TightNoise
from repro.sim.root_complex import RootComplex
from repro.stats.sketch import QuantileSketch


def _policies(base: type) -> list[type]:
    """Every control policy below ``base`` that defines its own ``tick``."""
    found = []
    for cls in base.__subclasses__():
        if "tick" in cls.__dict__:
            found.append(cls)
        found.extend(_policies(cls))
    return found


#: Timed layer entry points: stat name -> (class, method) pairs.
TIMED = {
    "host.access": [(HostCoupling, "access")],
    "rc.read": [(RootComplex, "read")],
    "rc.write": [(RootComplex, "write")],
    "rc.write_read": [(RootComplex, "write_read")],
    "cache": [
        (StatisticalCache, "read"),
        (StatisticalCache, "write"),
        (SetAssociativeCache, "read"),
        (SetAssociativeCache, "write"),
    ],
    "iommu.translate": [(Iommu, "translate")],
    "noise.sample": [(TightNoise, "sample"), (HeavyTailNoise, "sample")],
    "host.build": [(HostSystem, "from_profile"), (HostSystem, "prepare")],
    "engine.run": [(EventLoop, "run")],
    "arb.request": [(ArbitratedResource, "request")],
    "sketch.add": [(QuantileSketch, "add")],
    "control.tick": [(policy, "tick") for policy in _policies(Controller)],
}

#: Instances whose counters the cross-check reads after a round.
REGISTERED = (Iommu, ArbitratedResource, ControlRuntime)

#: Event-loop scheduling entry points; every scheduled event is dispatched
#: once, so their count equals the loop's own ``processed`` counter.
SCHEDULING = ("at", "at_sequenced", "feed")

#: Actuators whose successful calls each log one control action.
ACTUATORS = ("set_weights", "set_rss_table", "set_ddio_shares")


class LayerStat:
    """Calls, inclusive span and self time of one layer entry point."""

    __slots__ = ("calls", "total_s", "self_s", "hits", "misses")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.misses = 0

    @property
    def self_ns_per_call(self) -> float:
        """Mean self time per call in ns (0 when never called)."""
        return self.self_s / self.calls * 1e9 if self.calls else 0.0


class LayerTracer:
    """Install layer wrappers inside ``with`` and collect per-round stats."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        self._saved: list[tuple[type, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every counter before a round."""
        self.stats = {name: LayerStat() for name in TIMED}
        self.events = 0
        self.actions = 0
        self.instances: dict[type, list] = {cls: [] for cls in REGISTERED}
        self._stack.clear()

    # -- installation ------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for name, entries in TIMED.items():
                for cls, method in entries:
                    self._patch(cls, method, self._timed(name))
            for cls in REGISTERED:
                self._patch(cls, "__init__", self._registering(cls))
            for method in SCHEDULING:
                self._patch(EventLoop, method, self._counting)
            self._patch(EventLoop, "feed_many", self._counting_many)
            for method in ACTUATORS:
                self._patch(Actuators, method, self._acting)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _patch(self, cls: type, method: str, make) -> None:
        original = cls.__dict__[method]
        function = original.__func__ if isinstance(original, classmethod) else original
        wrapper = functools.wraps(function)(make(function))
        if isinstance(original, classmethod):
            wrapper = classmethod(wrapper)
        self._saved.append((cls, method, original))
        setattr(cls, method, wrapper)

    # -- wrapper factories ---------------------------------------------------------

    def _timed(self, name: str):
        classify = _count_hit if name in ("cache", "iommu.translate") else None

        def make(function):
            stack = self._stack
            clock = perf_counter

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    span = clock() - start
                    child = stack.pop()
                    stat = self.stats[name]
                    stat.calls += 1
                    stat.total_s += span
                    stat.self_s += span - child
                    if stack:
                        stack[-1] += span
                if classify is not None:
                    classify(self.stats[name], args[0], result)
                return result

            return wrapper

        return make

    def _registering(self, cls: type):
        def make(function):
            def wrapper(instance, *args, **kwargs):
                function(instance, *args, **kwargs)
                self.instances[cls].append(instance)

            return wrapper

        return make

    def _counting(self, function):
        def wrapper(*args, **kwargs):
            self.events += 1
            return function(*args, **kwargs)

        return wrapper

    def _counting_many(self, function):
        def wrapper(loop, entries):
            entries = list(entries)
            self.events += len(entries)
            return function(loop, entries)

        return wrapper

    def _acting(self, function):
        def wrapper(*args, **kwargs):
            applied = function(*args, **kwargs)
            self.actions += bool(applied)
            return applied

        return wrapper

    # -- after a round ---------------------------------------------------------------

    def program_counters(self) -> dict[str, int]:
        """Counters the program itself kept for the instances built this round."""
        iommus = self.instances[Iommu]
        arbiters = self.instances[ArbitratedResource]
        runtimes = self.instances[ControlRuntime]
        return {
            "iommu.translations": sum(iommu.stats.translations for iommu in iommus),
            "iommu.misses": sum(iommu.stats.misses for iommu in iommus),
            "arb.requests": sum(
                client.requests for arbiter in arbiters for client in arbiter.stats
            ),
            "control.ticks": sum(runtime.windows_ticked for runtime in runtimes),
        }

    def arbiter_wait_ns_mean(self) -> float:
        """Mean simulated queueing delay per arbitration request this round."""
        clients = [
            client
            for arbiter in self.instances[ArbitratedResource]
            for client in arbiter.stats
        ]
        requests = sum(client.requests for client in clients)
        waited = sum(client.wait_ns_total for client in clients)
        return waited / requests if requests else 0.0

    def readings(self) -> dict[str, float]:
        """Per-layer metric values of the round just traced, in host units.

        Times are self times (span minus wrapped children) per call, except
        ``host.build_cal_s``, the inclusive time spent building hosts.
        """
        stats = self.stats
        readings: dict[str, float] = {}
        for name in ("host.access", "rc.read", "rc.write", "rc.write_read"):
            readings[f"{name}_calls"] = stats[name].calls
            readings[f"{name}_cal_ns"] = stats[name].self_ns_per_call
        readings["cache.hits"] = stats["cache"].hits
        readings["cache.misses"] = stats["cache"].misses
        readings["cache.cal_ns"] = stats["cache"].self_ns_per_call
        iommu = stats["iommu.translate"]
        readings["iommu.translations"] = iommu.hits + iommu.misses
        readings["iommu.iotlb_misses"] = iommu.misses
        readings["iommu.translate_cal_ns"] = iommu.self_ns_per_call
        readings["noise.samples"] = stats["noise.sample"].calls
        readings["noise.sample_cal_ns"] = stats["noise.sample"].self_ns_per_call
        readings["host.build_cal_s"] = stats["host.build"].total_s
        loop_self = stats["engine.run"].self_s
        readings["engine.events"] = self.events
        readings["engine.loop_self_cal_s"] = loop_self
        readings["engine.cal_ns_per_event"] = (
            loop_self / self.events * 1e9 if self.events else 0.0
        )
        readings["arb.requests"] = stats["arb.request"].calls
        readings["arb.request_cal_ns"] = stats["arb.request"].self_ns_per_call
        readings["arb.sim_wait_ns_mean"] = self.arbiter_wait_ns_mean()
        readings["control.ticks"] = stats["control.tick"].calls
        readings["control.actions"] = self.actions
        readings["sketch.adds"] = stats["sketch.add"].calls
        readings["sketch.add_cal_ns"] = stats["sketch.add"].self_ns_per_call
        return readings

    def cross_check(self, outcome_counters: dict[str, int]) -> list[str]:
        """Mismatches between wrapped call counts and the program's counters."""
        own = self.program_counters()
        own.update(outcome_counters)
        traced = {
            "engine.events": self.events,
            "host.accesses": self.stats["host.access"].calls,
            "control.actions": self.actions,
            "iommu.translations": self.stats["iommu.translate"].hits
            + self.stats["iommu.translate"].misses,
            "iommu.misses": self.stats["iommu.translate"].misses,
            "arb.requests": self.stats["arb.request"].calls,
            "control.ticks": self.stats["control.tick"].calls,
        }
        return [
            f"traced {name} = {count} but the program counted {own[name]}"
            for name, count in traced.items()
            if own[name] != count
        ]


def _count_hit(stat: LayerStat, instance, result) -> None:
    """Count a cache or IOTLB lookup as a hit or a miss."""
    # A disabled IOMMU returns without translating (and without counting).
    if isinstance(instance, Iommu) and not instance.enabled:
        return
    if result.hit:
        stat.hits += 1
    else:
        stat.misses += 1
