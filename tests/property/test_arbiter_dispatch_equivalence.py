"""Property tests: ``ArbitratedResource`` dispatch matches a reference arbiter.

The production arbiter finds eligible clients in one pass over its queues,
skips the picker when only one client is eligible, and binds one picker per
scheme at construction.  :class:`ReferenceArbiter` below is the plain
formulation it must reproduce: build the backlog and eligible lists on
every dispatch and pick with a ``min``/``max`` over per-scheme key tuples.

Both arbiters are driven through identical random request streams — timed
arrivals, follow-up requests issued from grant callbacks, mid-run weight
changes — and must produce the same grants, in the same order, at the same
(bit-identical) times, with the same per-client statistics and the same
number of dispatched events.  Four drive modes cover every wake-up path:

* ``wheel`` / ``heap`` — the loop is attached, so back-to-back grants are
  batched inline (:class:`EventLoop` and :class:`HeapEventLoop`);
* ``unbatched`` — requests come from loop events, but no loop is attached,
  so every grant wakes the resource through the scheduler;
* ``offline`` — every request is submitted before the loop runs, in an
  arbitrary time order, so queues hold heads in the caller's future and
  the resource must sleep until the earliest one arrives.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import (
    ARBITER_SCHEMES,
    ArbitratedResource,
    EventLoop,
    HeapEventLoop,
)

MODES = ("wheel", "heap", "unbatched", "offline")


class ReferenceArbiter:
    """The list-based arbiter the production dispatch must reproduce."""

    def __init__(self, clients, *, schedule, scheme, weights=None, quantum_ns=None):
        self.clients = clients
        self.scheme = scheme
        self.weights = tuple(weights) if weights is not None else (1.0,) * clients
        if scheme == "sliced" and quantum_ns is None:
            quantum_ns = 16.0
        self.quantum_ns = quantum_ns
        self._schedule = schedule
        self._loop = None
        self._queues = tuple(deque() for _ in range(clients))
        self._sequence = 0
        self._busy_until = 0.0
        self._dispatch_pending = False
        self._last_granted = clients - 1
        self.stats = [[0, 0, 0.0, 0.0, 0.0] for _ in range(clients)]

    def attach_loop(self, loop):
        self._loop = loop

    def set_weights(self, weights):
        self.weights = tuple(float(weight) for weight in weights)

    def request(self, client, now, duration, grant):
        self._queues[client].append((now, self._sequence, duration, grant, duration))
        self._sequence += 1
        self.stats[client][0] += 1
        if not self._dispatch_pending and self._busy_until <= now:
            self._dispatch(now)

    def _pick(self, eligible, now):
        queues = self._queues
        if self.scheme == "fcfs":
            return min(eligible, key=lambda index: queues[index][0][:2])
        if self.scheme == "rr":
            for offset in range(1, self.clients + 1):
                index = (self._last_granted + offset) % self.clients
                if index in eligible:
                    return index
        if self.scheme == "age":
            return max(
                eligible,
                key=lambda index: (
                    (now - queues[index][0][0]) * self.weights[index],
                    -index,
                ),
            )
        return min(
            eligible,
            key=lambda index: (self.stats[index][4] / self.weights[index], index),
        )

    def _dispatch(self, now, woken=False):
        loop = self._loop
        queues = self._queues
        while True:
            backlog = [index for index in range(self.clients) if queues[index]]
            if not backlog:
                return
            eligible = [index for index in backlog if queues[index][0][0] <= now]
            if not eligible:
                wake = min(queues[index][0][0] for index in backlog)
                self._dispatch_pending = True
                self._schedule(wake, self._on_free)
                return
            client = self._pick(eligible, now)
            asked, sequence, remaining, grant, total = queues[client].popleft()
            stats = self.stats[client]
            sliced_remnant = (
                self.scheme == "sliced" and remaining > self.quantum_ns
            )
            if sliced_remnant:
                served = self.quantum_ns
                queues[client].appendleft(
                    (asked, sequence, remaining - served, grant, total)
                )
            else:
                served = remaining
            stats[4] += served
            end = now + served
            self._busy_until = end
            self._last_granted = client
            self._dispatch_pending = True
            if loop is None or not loop.running:
                self._schedule(end, self._on_free)
                if not sliced_remnant:
                    self._grant(stats, grant, end - total, asked)
                return
            wake_sequence = loop.reserve()
            if not sliced_remnant:
                self._grant(stats, grant, end - total, asked)
            # Only a wake-up event batches: a grant made inside request()
            # returns to an event that may still submit more requests.
            if woken and loop.peek_time() > end:
                self._dispatch_pending = False
                now = end
                continue
            loop.at_sequenced(end, wake_sequence, self._on_free)
            return

    @staticmethod
    def _grant(stats, grant, start, asked):
        if start > asked:
            wait = start - asked
            stats[1] += 1
            stats[2] += wait
            if wait > stats[3]:
                stats[3] = wait
        grant(start)

    def _on_free(self, now):
        self._dispatch_pending = False
        self._dispatch(now, True)


def _client_stats(arbiter):
    if isinstance(arbiter, ReferenceArbiter):
        return [tuple(stats) for stats in arbiter.stats]
    return [
        (
            stats.requests,
            stats.waited,
            stats.wait_ns_total,
            stats.wait_ns_max,
            stats.busy_ns_total,
        )
        for stats in arbiter.stats
    ]


def drive(
    make, scheme, clients, weights, quantum, requests, retunes, mode,
    bursts=False,
):
    """Run one request stream; return (grants, client stats, events).

    With ``bursts``, requests sharing an arrival time are submitted from
    one event, in list order, and a zero-delay follow-up is submitted from
    inside the grant callback itself.
    """
    loop = HeapEventLoop() if mode == "heap" else EventLoop()
    arbiter = make(
        clients,
        schedule=loop.at,
        scheme=scheme,
        weights=weights,
        quantum_ns=quantum,
    )
    if mode in ("wheel", "heap"):
        arbiter.attach_loop(loop)
    grants = []

    def submit(label, client, now, duration, follow):
        def granted(start):
            grants.append((label, client, start))
            if bursts and follow == 0.0:
                submit(f"{label}+", client, start, duration, None)
            elif follow is not None:
                # A closed-loop client: its next request waits for this
                # grant, like a device that must see a completion first.
                loop.at(
                    start + follow,
                    lambda later: submit(
                        f"{label}+", client, later, duration, None
                    ),
                )

        arbiter.request(client, now, duration, granted)

    events: dict[float, list] = {}
    for label, (time, client, duration, follow) in enumerate(requests):
        client %= clients
        if mode == "offline":
            submit(label, client, time, duration, follow)
        elif bursts:
            events.setdefault(time, []).append((label, client, duration, follow))
        else:
            loop.at(
                time,
                lambda now, args=(label, client, duration, follow): submit(
                    args[0], args[1], now, args[2], args[3]
                ),
            )
    for time, burst in events.items():
        loop.at(
            time,
            lambda now, burst=burst: [
                submit(label, client, now, duration, follow)
                for label, client, duration, follow in burst
            ],
        )
    for time, new_weights in retunes:
        loop.at(
            time,
            lambda now, new=new_weights: arbiter.set_weights(new[:clients]),
        )
    loop.run()
    return grants, _client_stats(arbiter), loop.processed


#: Coarse grids make exact ties (same arrival, equal normalised service,
#: equal weighted age) common, which is where tie-break bugs would hide.
arrival = st.integers(min_value=0, max_value=24).map(lambda i: i * 4.0)
duration = st.sampled_from([0.0, 3.0, 4.0, 8.0, 10.5, 16.0, 40.0])
weight = st.sampled_from([0.5, 1.0, 2.0, 3.0, 8.0])
follow = st.one_of(st.none(), st.sampled_from([0.0, 2.0, 12.0]))
request_stream = st.lists(
    st.tuples(arrival, st.integers(0, 3), duration, follow),
    min_size=1,
    max_size=40,
)
retune_stream = st.lists(
    st.tuples(arrival, st.tuples(weight, weight, weight, weight)),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(ARBITER_SCHEMES),
    clients=st.integers(1, 4),
    weights=st.tuples(weight, weight, weight, weight),
    quantum=st.sampled_from([4.0, 16.0]),
    requests=request_stream,
    retunes=retune_stream,
    mode=st.sampled_from(MODES),
    bursts=st.booleans(),
)
# Exact ties on every key: three never-served clients queue at once.
@example(
    scheme="wrr", clients=3, weights=(2.0, 2.0, 2.0, 1.0), quantum=16.0,
    requests=[(0.0, 0, 8.0, None), (0.0, 2, 8.0, None), (0.0, 1, 8.0, None)],
    retunes=[], mode="wheel", bursts=False,
)
@example(
    scheme="age", clients=3, weights=(1.0, 2.0, 2.0, 1.0), quantum=16.0,
    requests=[(0.0, 0, 8.0, None), (4.0, 2, 8.0, None), (4.0, 1, 8.0, None)],
    retunes=[], mode="heap", bursts=False,
)
# One eligible client at a time: the picker is skipped on every dispatch.
@example(
    scheme="wrr", clients=3, weights=(1.0, 2.0, 3.0, 1.0), quantum=16.0,
    requests=[(0.0, 0, 8.0, None), (20.0, 1, 8.0, None), (40.0, 2, 8.0, None)],
    retunes=[], mode="wheel", bursts=False,
)
# Every head in the caller's future: the resource sleeps until the first.
@example(
    scheme="fcfs", clients=2, weights=(1.0, 1.0, 1.0, 1.0), quantum=16.0,
    requests=[(0.0, 0, 10.0, None), (50.0, 1, 5.0, None), (80.0, 0, 5.0, None)],
    retunes=[], mode="offline", bursts=False,
)
# One event submits two requests: the second must not be stranded.
@example(
    scheme="fcfs", clients=2, weights=(1.0, 1.0, 1.0, 1.0), quantum=16.0,
    requests=[(4.0, 0, 10.0, None), (4.0, 1, 10.0, None)],
    retunes=[], mode="wheel", bursts=True,
)
def test_dispatch_matches_the_reference_arbiter(
    scheme, clients, weights, quantum, requests, retunes, mode, bursts
):
    weights = weights[:clients] if scheme in ("wrr", "age", "sliced") else None
    quantum = quantum if scheme == "sliced" else None
    got = drive(
        lambda count, **kwargs: ArbitratedResource("arb", count, **kwargs),
        scheme, clients, weights, quantum, requests, retunes, mode, bursts,
    )
    want = drive(
        ReferenceArbiter, scheme, clients, weights, quantum, requests, retunes,
        mode, bursts,
    )
    assert got == want


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(ARBITER_SCHEMES),
    clients=st.integers(1, 4),
    weights=st.tuples(weight, weight, weight, weight),
    quantum=st.sampled_from([4.0, 16.0]),
    requests=request_stream,
    retunes=retune_stream,
    mode=st.sampled_from(("wheel", "heap")),
)
# A grant callback re-requests before its event submits the next request:
# batching inline at the grant's end would decide without the latter.
@example(
    scheme="age", clients=2, weights=(2.0, 1.0, 1.0, 1.0), quantum=16.0,
    requests=[(5.0, 1, 10.0, 0.0), (5.0, 0, 10.0, None), (5.0, 0, 10.0, None)],
    retunes=[], mode="wheel",
)
def test_batched_grants_equal_unbatched_grants_under_bursts(
    scheme, clients, weights, quantum, requests, retunes, mode
):
    """Attaching the loop only saves wake-up events; grants never change."""
    weights = weights[:clients] if scheme in ("wrr", "age", "sliced") else None
    quantum = quantum if scheme == "sliced" else None

    def make(count, **kwargs):
        return ArbitratedResource("arb", count, **kwargs)

    batched = drive(
        make, scheme, clients, weights, quantum, requests, retunes, mode, True
    )
    unbatched = drive(
        make, scheme, clients, weights, quantum, requests, retunes,
        "unbatched", True,
    )
    assert batched[:2] == unbatched[:2]


@pytest.mark.parametrize("scheme", ARBITER_SCHEMES)
def test_a_lone_eligible_client_skips_the_picker(scheme):
    loop = EventLoop()
    quantum = 16.0 if scheme == "sliced" else None
    arbiter = ArbitratedResource(
        "arb", 3, schedule=loop.at, scheme=scheme, quantum_ns=quantum
    )
    arbiter.attach_loop(loop)
    picks = []
    pick = arbiter._pick
    arbiter._pick = lambda now, first: picks.append(first) or pick(now, first)
    grants = []
    # Client 0 is busy until 8 while client 1's request (at 4) arrives
    # and client 2's (at 100) is still in the future: one eligible client.
    loop.at(0.0, lambda now: arbiter.request(0, now, 8.0, grants.append))
    loop.at(4.0, lambda now: arbiter.request(1, now, 8.0, grants.append))
    loop.at(100.0, lambda now: arbiter.request(2, now, 8.0, grants.append))
    loop.run()
    assert grants == [0.0, 8.0, 100.0]
    assert picks == []
    # Two clients eligible at once: now the picker decides.
    loop.at(200.0, lambda now: arbiter.request(0, now, 8.0, grants.append))
    loop.at(201.0, lambda now: arbiter.request(1, now, 8.0, grants.append))
    loop.at(202.0, lambda now: arbiter.request(2, now, 8.0, grants.append))
    loop.run()
    assert picks == [1]
