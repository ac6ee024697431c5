"""Cache engine: O(1) LRU list, stochastic insertion policies, latency estimator.

A cache holds whole objects identified by popularity rank. Insertion into the
cache is gated by a policy decision made once per completed retrieval:

  Always        insert unconditionally (plain LRU)
  FixedProb     insert with a fixed probability p
  LatencyAware  insert with probability min(delta_t**beta / mean_f**gamma, 1),
                where delta_t is the measured retrieval latency of the object
                and mean_f is the running mean latency over all objects this
                node ever accepted

The move-to-front discipline comes in two flavors. Asymmetric mode applies
the stochastic decision only to miss insertions; hits always refresh the
entry. Symmetric mode gates the hit-time refresh with the same probability
the entry was admitted with; a failed draw leaves the entry exactly where it
is.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = [
    "ASYMMETRIC",
    "SYMMETRIC",
    "ALWAYS",
    "FIXED_PROB",
    "LATENCY_AWARE",
    "InsertionPolicy",
    "LruCache",
    "LatencyEstimator",
    "decide_insertion",
    "parse_policy",
    "ProtocolError",
    "EstimatorStateError",
]

# mtf_mode values
ASYMMETRIC = "asymmetric"
SYMMETRIC = "symmetric"

# policy kinds
ALWAYS = "always"
FIXED_PROB = "fixed_prob"
LATENCY_AWARE = "latency_aware"


class ProtocolError(RuntimeError):
    """A rank was forwarded twice before its latency was measured, or
    measured without a forward."""


class EstimatorStateError(RuntimeError):
    """The latency estimator is in a state the policy cannot evaluate."""


@dataclass(frozen=True)
class InsertionPolicy:
    kind: str = ALWAYS
    p: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    mtf_mode: str = ASYMMETRIC

    def __post_init__(self):
        if self.kind not in (ALWAYS, FIXED_PROB, LATENCY_AWARE):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.mtf_mode not in (ASYMMETRIC, SYMMETRIC):
            raise ValueError(f"unknown mtf_mode {self.mtf_mode!r}")
        if self.kind == FIXED_PROB and not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fixed insertion probability must be in [0, 1], got {self.p!r}")
        if self.kind == LATENCY_AWARE and (self.beta < 0.0 or self.gamma < 0.0):
            raise ValueError("latency exponents must be non-negative")

    def label(self) -> str:
        if self.kind == ALWAYS:
            return "lru"
        if self.kind == FIXED_PROB:
            base = "sym" if self.mtf_mode == SYMMETRIC else "lcp"
            return f"{base}:{self.p:g}"
        if self.mtf_mode == SYMMETRIC:
            return f"sym-la:{self.beta:g},{self.gamma:g}"
        return f"lac:{self.beta:g},{self.gamma:g}"


def parse_policy(text: str, lcp_p: float = 0.1, lac_beta: float = 5.0,
                 lac_gamma: float = 5.0) -> InsertionPolicy:
    """Parse a policy string.

    Grammar: lru | lcp[:<p>] | sym[:<p>] | sym-la | lac[:<beta>,<gamma>].
    The keyword arguments supply the defaults used when parameters are
    omitted (scenario presets pass their own).
    """
    text = text.strip()
    name, sep, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if sep and not arg.strip():
            raise ValueError("empty parameter after ':'")
        if name == "lru":
            if arg:
                raise ValueError("lru takes no parameters")
            return InsertionPolicy(kind=ALWAYS)
        if name in ("lcp", "sym"):
            p = float(arg) if arg else lcp_p
            mode = SYMMETRIC if name == "sym" else ASYMMETRIC
            return InsertionPolicy(kind=FIXED_PROB, p=p, mtf_mode=mode)
        if name in ("lac", "sym-la"):
            if arg:
                parts = arg.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{name} takes beta,gamma")
                beta, gamma = float(parts[0]), float(parts[1])
            else:
                beta, gamma = lac_beta, lac_gamma
            mode = SYMMETRIC if name == "sym-la" else ASYMMETRIC
            return InsertionPolicy(kind=LATENCY_AWARE, beta=beta, gamma=gamma, mtf_mode=mode)
    except ValueError as exc:
        raise ValueError(f"bad policy string {text!r}: {exc}") from exc
    raise ValueError(f"unknown policy {text!r}")


def split_policy_list(text: str) -> list:
    """Split a comma-separated list of policy specs.

    The comma inside a two-parameter spec ("lac:5,5", "sym-la:2,3") stays
    glued to its spec: a bare-number chunk continues the previous entry when
    that entry is a lac or sym-la spec still missing its second parameter.
    """
    specs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if specs and _wants_second_param(specs[-1]) and _is_number(chunk):
            specs[-1] += "," + chunk
        else:
            specs.append(chunk)
    return specs


def _wants_second_param(spec: str) -> bool:
    name, _, arg = spec.partition(":")
    return (name.strip().lower() in ("lac", "sym-la")
            and bool(arg.strip()) and "," not in arg)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class LruCache:
    """Recency list over object ranks with O(1) lookup, refresh and eviction.

    Entries carry the move-to-front probability they were admitted with
    (1.0 for deterministic policies); symmetric-mode hits redraw against it.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        self.capacity = capacity
        # OrderedDict end = most recently used end
        self._entries: OrderedDict = OrderedDict()

    def __contains__(self, rank) -> bool:
        return rank in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def order(self) -> list:
        """Ranks from most recently used to least recently used."""
        return list(reversed(self._entries))

    def mtf_prob(self, rank) -> float:
        return self._entries[rank]

    def lookup(self, rank, policy: InsertionPolicy, rng=None) -> bool:
        """Probe for rank, applying the move-to-front discipline on a hit.

        Returns True on hit. A miss changes nothing. In symmetric mode the
        refresh consumes one uniform draw from rng; asymmetric hits always
        refresh and draw nothing.
        """
        entries = self._entries
        if rank not in entries:
            return False
        if policy.mtf_mode == ASYMMETRIC:
            entries.move_to_end(rank)
        else:
            if rng.random() < entries[rank]:
                entries.move_to_end(rank)
        return True

    def insert(self, rank, mtf_prob: float = 1.0):
        """Admit rank at the front, evicting the back entry when full.

        Returns the evicted rank or None. Inserting a rank already present
        is a protocol violation: hits must go through lookup.
        """
        entries = self._entries
        if rank in entries:
            raise ValueError(f"rank {rank!r} already cached; refresh via lookup")
        if self.capacity == 0:
            return rank  # nothing is stored; the object evicts itself
        evicted = None
        if len(entries) >= self.capacity:
            evicted, _ = entries.popitem(last=False)
        entries[rank] = mtf_prob
        return evicted


class LatencyEstimator:
    """Running mean of retrieval latencies over accepted insertions.

    Also keeps the forward timestamp used to measure each latency, one slot
    per rank: with pending-interest aggregation a node forwards a rank only
    when it opens a pending entry for it, and that entry closes with the
    measurement, so a rank never has two forwards outstanding. mean_f only
    moves when an object is actually admitted; rejected candidates leave no
    trace.
    """

    __slots__ = ("mean_f", "count", "_inflight")

    def __init__(self):
        self.mean_f = 0.0
        self.count = 0
        self._inflight: dict = {}  # rank -> forward time

    def record_forward(self, rank, now: float):
        """Stamp a forward of rank. Raises ProtocolError when rank already
        has a forward outstanding."""
        if rank in self._inflight:
            raise ProtocolError(f"rank {rank!r} already has a forward outstanding")
        self._inflight[rank] = now

    def measure_delta_t(self, rank, now: float) -> float:
        """Latency against the outstanding forward timestamp for rank.

        For a multi-packet object, call with the mean packet arrival time;
        the result is then the mean of the per-packet latencies. Raises
        ProtocolError when no forward was recorded.
        """
        t_fwd = self._inflight.pop(rank, None)
        if t_fwd is None:
            raise ProtocolError(f"no forward timestamp outstanding for rank {rank!r}")
        return now - t_fwd

    def update(self, delta_t: float):
        """Fold one accepted retrieval latency into the running mean."""
        self.mean_f = (self.mean_f * self.count + delta_t) / (self.count + 1)
        self.count += 1


def decide_insertion(policy: InsertionPolicy, delta_t: float,
                     estimator: LatencyEstimator, rng) -> tuple:
    """One insertion decision. Returns (decision, prob_used).

    Always decides True without consuming a draw. The stochastic policies
    consume exactly one uniform draw. LatencyAware bootstraps with
    probability one while the estimator is empty; afterwards the probability
    is min(delta_t**beta / mean_f**gamma, 1).

    The caller is responsible for calling estimator.update(delta_t) when the
    decision is positive and the object is inserted.
    """
    if policy.kind == ALWAYS:
        return True, 1.0
    if policy.kind == FIXED_PROB:
        prob = policy.p
    else:
        if estimator.count == 0:
            prob = 1.0
        else:
            if estimator.mean_f <= 0.0:
                raise EstimatorStateError(
                    f"mean_f={estimator.mean_f!r} with count={estimator.count}; "
                    "cannot normalize a latency-aware decision")
            prob = (delta_t ** policy.beta) / (estimator.mean_f ** policy.gamma)
            if prob > 1.0:
                prob = 1.0
    return rng.random() < prob, prob
