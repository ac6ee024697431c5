"""Timers and counters installed around lacsim's public functions from outside.

Two levels, both installed by `Recorder.install` and removed by `restore`:

- Coarse calls (Simulation construction and run, CSV export, the harness and
  analytics entry points) are always timed. They are called once per run or
  per solve, so the untraced job pays one timer per call and nothing else.
  Each coarse call also leaves a span.
- With tracing on, the hot per-event calls are wrapped too: heap traffic,
  link transmissions, draws, LRU probes, insertion decisions and the latency
  estimator. They get aggregated counters and timers, never one span each.

Every wrapper keeps the wrapped function in `__wrapped__`, so `hot_patched`
can tell whether a traced wrapper is in place. The netsim module binds
heappush, heappop, sample_rank, next_interarrival and decide_insertion as
module globals, which is where they are replaced.

Time accounting: a stack holds, per open timed call, the time of the timed
calls nested directly inside it, so a call's self time is its duration minus
that. Output checks run between coarse calls; their time is taken off the
recorder's clock (`checking`), so it counts toward no span and no wall time.
"""

from __future__ import annotations

import functools
import heapq
from contextlib import contextmanager
from time import perf_counter

EVENT_KINDS = ("request", "interest", "data", "complete")  # netsim's ev[2]


def _hot_names(lacsim):
    netsim, cache, workload, analytics = (lacsim.netsim, lacsim.cache,
                                          lacsim.workload, lacsim.analytics)
    return [
        (netsim, "heappush"), (netsim, "heappop"),
        (netsim, "sample_rank"), (netsim, "next_interarrival"),
        (netsim, "decide_insertion"), (netsim.Link, "transmit_packet"),
        (cache.LruCache, "lookup"), (cache.LruCache, "insert"),
        (cache.LatencyEstimator, "record_forward"),
        (cache.LatencyEstimator, "measure_delta_t"),
        (cache.LatencyEstimator, "update"),
        (workload.DrawBuffer, "random"), (analytics, "miss_asym"),
    ]


def hot_patched(lacsim) -> tuple:
    """(wrapped, total): the hot calls that now run through a wrapper, and
    how many hot calls there are."""
    names = _hot_names(lacsim)
    originals = {"heappush": heapq.heappush, "heappop": heapq.heappop}
    wrapped = []
    for owner, attr in names:
        bound = getattr(owner, attr)
        if hasattr(bound, "__wrapped__") or bound is not originals.get(attr, bound):
            wrapped.append(f"{owner.__name__}.{attr}")
    return wrapped, len(names)


class Recorder:
    """Counters, timers and spans of one job. stats[name] = [calls, s, child_s]."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.stats = {}
        self.counts = {}
        self.events = [0] * len(EVENT_KINDS)
        self.heap_peak = [0]
        self.lookup_hits = [0]
        self.decisions = [0, 0.0]  # accepts, sum of probabilities used
        self.spans = []          # [name, start, end, parent index]
        self._open = [-1]        # indices of open spans
        self._stack = [0.0]      # child time of each open timed call
        self._paused = 0.0
        self._undo = []

    # -- clock -----------------------------------------------------------------

    def now(self) -> float:
        """perf_counter minus the time spent in output checks."""
        return perf_counter() - self._paused

    @contextmanager
    def checking(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self._paused += perf_counter() - t0

    def span(self, name: str, start: float, end: float):
        self.spans.append([name, start, end, self._open[-1]])

    def first_end(self, name: str):
        """End time of the first span called name, or None."""
        return next((s[2] for s in self.spans if s[0] == name), None)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(original)(wrapper))
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _coarse(self, owner, attr, name, after=None):
        """Time every call of owner.attr and leave a span; after(args, kwargs,
        result) runs off the clock once the call has returned."""
        fn = vars(owner)[attr]
        stat, stack, opened, spans = self.stat(name), self._stack, self._open, self.spans
        now, checking = self.now, self.checking

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, now(), None, opened[-1]])
            opened.append(index)
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                child = stack.pop()
                opened.pop()
                spans[index][2] = end
                dt = end - spans[index][1]
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += child
            if after is not None:
                with checking():
                    after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def _leaf(self, owner, attr, name):
        """Count and time a call that makes no other timed call."""
        fn = vars(owner)[attr]
        stat, stack = self.stat(name), self._stack

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            stack[-1] += dt
            stat[0] += 1
            stat[1] += dt
            return result

        self._patch(owner, attr, wrapper)

    def _counted(self, owner, attr, name):
        fn = vars(owner)[attr]
        count = self.counts
        count[name] = 0

        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    # -- installation ------------------------------------------------------------

    def install(self, lacsim, after_run=None, after_solve=None):
        netsim, cli, harness, analytics = (lacsim.netsim, lacsim.cli,
                                           lacsim.harness, lacsim.analytics)
        self._coarse(netsim.Simulation, "__init__", "netsim.Simulation.init")
        self._coarse(netsim.Simulation, "run", "netsim.Simulation.run", after_run)
        self._coarse(lacsim.metrics.MetricsReport, "export_csv", "metrics.export_csv")
        self._coarse(harness, "run_matrix", "harness.run_matrix")
        self._coarse(harness, "run_summary", "harness.run_summary")
        self._coarse(harness, "summarize", "harness.summarize")
        for module in (cli, analytics):
            self._coarse(module, "fig1_grid", "analytics.fig1_grid")
            self._coarse(module, "solve_tau", "analytics.solve_tau", after_solve)
        for module in (netsim, cli):
            self._coarse(module, "zipf_weights", "workload.zipf_weights")
        if self.traced:
            self._install_hot(lacsim)

    def _install_hot(self, lacsim):
        netsim, cache = lacsim.netsim, lacsim.cache
        self._leaf(netsim.Link, "transmit_packet", "netsim.Link.transmit_packet")
        self._leaf(netsim, "sample_rank", "workload.sample_rank")
        self._leaf(netsim, "next_interarrival", "workload.next_interarrival")
        self._leaf(cache.LruCache, "insert", "cache.LruCache.insert")
        for attr in ("record_forward", "measure_delta_t", "update"):
            self._leaf(cache.LatencyEstimator, attr, "cache.LatencyEstimator")
        self._counted(lacsim.workload.DrawBuffer, "random", "workload.draws")
        self._counted(lacsim.analytics, "miss_asym", "analytics.miss_asym")
        self._leaf(netsim, "heappop", "netsim.heap.pop")
        self._wrap_push(netsim)
        self._wrap_lookup(cache)
        self._wrap_decide(netsim)

    def _wrap_push(self, netsim):
        push_fn = vars(netsim)["heappush"]
        push, stack = self.stat("netsim.heap.push"), self._stack
        events, peak = self.events, self.heap_peak

        def heappush(heap, item):
            t0 = perf_counter()
            push_fn(heap, item)
            dt = perf_counter() - t0
            stack[-1] += dt
            push[0] += 1
            push[1] += dt
            events[item[2]] += 1
            if len(heap) > peak[0]:
                peak[0] = len(heap)

        self._patch(netsim, "heappush", heappush)

    def _wrap_lookup(self, cache):
        fn = vars(cache.LruCache)["lookup"]
        stat, stack, hits = self.stat("cache.LruCache.lookup"), self._stack, self.lookup_hits

        def lookup(store, rank, policy, rng=None):
            t0 = perf_counter()
            hit = fn(store, rank, policy, rng)
            dt = perf_counter() - t0
            stack[-1] += dt
            stat[0] += 1
            stat[1] += dt
            if hit:
                hits[0] += 1
            return hit

        self._patch(cache.LruCache, "lookup", lookup)

    def _wrap_decide(self, netsim):
        fn = vars(netsim)["decide_insertion"]
        stat, stack, tally = self.stat("cache.decide_insertion"), self._stack, self.decisions

        def decide_insertion(policy, delta_t, estimator, rng):
            t0 = perf_counter()
            decision = fn(policy, delta_t, estimator, rng)
            dt = perf_counter() - t0
            stack[-1] += dt
            stat[0] += 1
            stat[1] += dt
            tally[1] += decision[1]
            if decision[0]:
                tally[0] += 1
            return decision

        self._patch(netsim, "decide_insertion", decide_insertion)
