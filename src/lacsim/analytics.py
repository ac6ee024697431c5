"""Closed-form steady-state models for caches fed by Zipf request streams.

The working-set approximation represents an LRU-style cache of x objects by a
characteristic time tau: an object stays cached iff it is requested again
within tau, so rank k is found with probability phi_k = 1 - exp(-lambda_k
tau), and tau is fixed by requiring the expected occupancy to equal x.

On top of that sit the two stochastic-admission disciplines implemented by
the simulator:

  asymmetric  miss insertions are admitted with mean probability mean_p,
              hits always refresh. miss_asym gives the per-rank steady-state
              miss probability; solve_tau finds the matching tau.

  symmetric   the same coin also gates the hit-time refresh. For Zipf
              exponents alpha > 1 the steady-state miss probability has a
              closed form independent of mean_p (miss_sym); the admission
              probability only rescales the time constant.

miss_mixture keeps the exact mixture form over a discrete distribution of
admission probabilities; by convexity it upper-bounds miss_asym evaluated at
the mean (Jensen), which is what makes the mean-field form usable.

All formulas clamp results to [0, 1].

solve_tau bisects g(tau) = occupancy - x and uses only its sign. With
u = 2**-53, n ranks and p = 1 - (1 - mean_p), g's rounding error at
occupancy S is below b0 + b1 S,

    b0 = 2u (n (max(ln(1/p), 1) + 24) + x)
    b1 = 2u (16/p + ceil(log2 n) + 21),

a first-order bound on exp, on the cancellation in D = 1 - (1 - e)(1 - p)
(its error is relative to D >= p, hence 1/p), on numpy's pairwise sum and
on the final subtraction, doubled. The exact occupancy rises strictly with
tau, so with floor = 2 (b0 + b1 x) / (1 - b1), an evaluation g(L) < -floor
implies g < 0 at every tau <= L, and g(U) > floor implies g > 0 at every
tau >= U. There the bisection reads the known sign instead of evaluating
g. Every sign it uses is the one an evaluation gives, so its steps, tau,
the residual (always evaluated) and the iteration count are the plain
bisection's bits. If p < 128u, no sign is known and every point is
evaluated.

Known signs pay only if they come from points near the root, so a Newton
iteration in ln tau first estimates the root. It starts from the root of a
reduced model that sums the first 256 ranks exactly and takes the rest to
second order in y = lam tau: p tau sum lam + p (1/2 - p) tau**2 sum lam**2.
That start is used if the catalog has more than 256 ranks and the largest
tail y there is below 0.05; otherwise Newton starts at tau = 1. Then g is
evaluated at the points the bisection reads if g changes sign at the
estimate, nearest first on each side, until one lies beyond the floor.
Points where g, extrapolated from the estimate, is within half a floor of 0
are left to the bisection. The others are the points the bisection
evaluates near the root anyway, so a good estimate adds no evaluation, and
a poor one costs evaluations, not bits. On `lacsim model`'s catalog
(20,000 ranks, alpha 1.7, x = 8) with mean_p from 1e-3 to 1, a solve makes
one Newton step on the full catalog and 5-11 evaluations of g (7.9 on
average), where the plain bisection makes 43-51 (48.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .workload import PopularityModel

__all__ = [
    "CheSolution",
    "miss_asym",
    "miss_mixture",
    "solve_tau",
    "miss_sym",
    "eta_sym",
    "eta_asym",
    "vrtt",
    "fig1_grid",
]

TAU_ABS_TOL = 1e-9
MAX_BISECT_ITER = 200
RESIDUAL_REL_TOL = 1e-6

_UNIT_ROUNDOFF = 2.0 ** -53
_NEWTON_MAX_ITER = 40
_NEWTON_MAX_STEP = 8.0   # largest change of ln tau in one Newton step
_CURVATURE = 64.0        # assumed bound on |d2 ln S / d(ln tau)2| near the root
_HEAD_RANKS = 256        # ranks that _start_tau's reduced model sums exactly
_TAIL_MAX_Y = 0.05       # largest tail lam tau at which it trusts the rest

def _clamp01(value):
    if isinstance(value, np.ndarray):
        if np.fmin.reduce(value) < 0.0 or np.fmax.reduce(value) > 1.0:
            value = np.clip(value, 0.0, 1.0)
        return value
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def _gamma_tail(alpha: float) -> float:
    """Gamma(1 - 1/alpha), defined for alpha > 1."""
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha!r}")
    return math.gamma(1.0 - 1.0 / alpha)


def miss_asym(lam, tau: float, mean_p: float):
    """Per-rank steady-state miss probability of the asymmetric discipline.

    exp(-lam tau) / (1 - (1 - exp(-lam tau)) (1 - mean_p)); lam may be an
    array of per-rank request rates.
    """
    lam = np.asarray(lam, dtype=np.float64)
    e = np.negative(lam, out=np.empty_like(lam))
    miss = _miss_asym_into(e, tau, mean_p, e, np.empty_like(lam))
    return miss if miss.ndim else miss[()]


def _miss_asym_into(neg_lam: np.ndarray, tau: float, mean_p: float,
                    e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """miss_asym of the float64 array lam = -neg_lam, computed in the
    caller's arrays: e (which may be neg_lam itself) holds exp(-lam tau) and
    out the result, clamped (a clamp that fires returns a new array).
    Negation is exact, so callers may negate lam once for many taus."""
    np.multiply(neg_lam, tau, out=e)
    np.exp(e, out=e)
    np.subtract(1.0, e, out=out)
    np.multiply(out, 1.0 - mean_p, out=out)
    np.subtract(1.0, out, out=out)
    np.divide(e, out, out=out)
    return _clamp01(out)


def miss_mixture(prob_dist, phi_val: float):
    """Exact miss probability under a discrete admission-probability mixture.

    prob_dist maps admission probability u to its weight P[p = u]; weights
    must sum to one. Convexity in u makes this at least miss_asym at the
    mean of the distribution (Jensen).
    """
    items = sorted(prob_dist.items())
    total = math.fsum(w for _, w in items)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total!r}, expected 1")
    acc = 0.0
    for u, w in items:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"admission probability {u!r} outside [0, 1]")
        acc += w * (1.0 - phi_val) / (1.0 - phi_val * (1.0 - u))
    return _clamp01(acc)


@dataclass(frozen=True)
class CheSolution:
    tau: float
    residual: float
    iterations: int


def _weight_vector(popularity) -> np.ndarray:
    if isinstance(popularity, PopularityModel):
        return popularity.weights
    w = np.asarray(popularity, dtype=np.float64)
    if w.ndim != 1 or w.size == 0 or np.any(w <= 0.0):
        raise ValueError("popularity weights must be a non-empty positive vector")
    return w


def _g_error_floor(n: int, x: float, mean_p: float) -> float:
    """2 (b0 + b1 x) / (1 - b1) of the module docstring: where solve_tau's
    g reads below -floor (above +floor), it is negative (positive) at every
    smaller (larger) tau. Infinite for p < 128u, where the bound is not
    used."""
    p = 1.0 - (1.0 - mean_p)
    if p < 128.0 * _UNIT_ROUNDOFF:
        return math.inf
    b0 = 2.0 * _UNIT_ROUNDOFF * (n * (max(math.log(1.0 / p), 1.0) + 24.0) + x)
    b1 = 2.0 * _UNIT_ROUNDOFF * (16.0 / p + math.ceil(math.log2(n)) + 21.0)
    return 2.0 * (b0 + b1 * x) / (1.0 - b1)


def _occupancy(neg_lam: np.ndarray, tau: float, p: float, q: float,
               e: np.ndarray, h: np.ndarray):
    """(S, tau dS/dtau) over the ranks of lam = -neg_lam, run in the arrays
    e and h. With e = exp(-lam tau) and D = 1 - (1 - e) q, S is
    sum (1 - e/D), computed as g computes it, and tau dS/dtau is
    p tau sum lam e / D**2."""
    np.multiply(neg_lam, tau, out=e)
    np.exp(e, out=e)
    np.subtract(1.0, e, out=h)
    np.multiply(h, q, out=h)
    np.subtract(1.0, h, out=h)
    np.divide(e, h, out=e)
    np.divide(e, h, out=h)
    np.multiply(h, neg_lam, out=h)
    slope = -p * tau * float(np.add.reduce(h))
    np.subtract(1.0, e, out=e)
    return float(np.add.reduce(e)), slope


def _newton(occupancy_at, x: float, tau: float, tol: float):
    """Safeguarded Newton iteration for ln S(tau) = ln x in ln tau from tau,
    where occupancy_at(tau) gives S and tau dS/dtau. It stops at a point
    where |S - x| <= tol, or where the step is so short that, with
    |d2 ln S / d(ln tau)2| <= _CURVATURE, S - x after it is within tol / 2.
    It returns the estimate after that point's step with tau dS/dtau there,
    or (None, 0.0) if it does not get there."""
    log_x = math.log(x)
    lo, hi = 0.0, math.inf  # S(lo) < x <= S(hi), as far as S is computed
    for _ in range(_NEWTON_MAX_ITER):
        occupancy, slope = occupancy_at(tau)
        if occupancy < x:
            lo = tau
        else:
            hi = tau
        if occupancy > 0.0 and slope > 0.0:
            step = (log_x - math.log(occupancy)) * occupancy / slope
            step = min(max(step, -_NEWTON_MAX_STEP), _NEWTON_MAX_STEP)
        else:
            step = _NEWTON_MAX_STEP if occupancy < x else -_NEWTON_MAX_STEP
        if slope > 0.0 and (abs(occupancy - x) <= tol
                            or _CURVATURE * occupancy * step * step <= tol):
            return tau * math.exp(step), slope
        tau *= math.exp(step)
        if not lo < tau < hi:
            tau = math.sqrt(lo) * math.sqrt(hi)
    return None, 0.0


def _start_tau(neg_lam: np.ndarray, x: float, p: float, q: float,
               floor: float, e: np.ndarray, h: np.ndarray) -> float:
    """Where the Newton iteration on the full catalog starts: the root of a
    reduced model that sums the first _HEAD_RANKS ranks exactly and takes
    the rest to second order in y = lam tau, p tau sum lam +
    p (1/2 - p) tau**2 sum lam**2. It is used if the largest tail y there is
    below _TAIL_MAX_Y, where the expansion holds; otherwise, or for a
    catalog of at most _HEAD_RANKS ranks, the start is tau = 1. The tail
    sums are taken once, in h."""
    k = _HEAD_RANKS
    if neg_lam.size <= k:
        return 1.0
    tail = neg_lam[k:]
    np.multiply(tail, tail, out=h[k:])
    c1 = -p * float(np.add.reduce(tail))
    c2 = p * (0.5 - p) * float(np.add.reduce(h[k:]))
    lam_max = -float(np.minimum.reduce(tail))
    head, e_head, h_head = neg_lam[:k], e[:k], h[:k]

    def reduced(tau):
        occupancy, slope = _occupancy(head, tau, p, q, e_head, h_head)
        lin, quad = c1 * tau, c2 * tau * tau
        return occupancy + lin + quad, slope + lin + 2.0 * quad

    tau, _ = _newton(reduced, x, 1.0, floor)
    if tau is None or not lam_max * tau < _TAIL_MAX_Y:
        return 1.0
    return tau


def _root_estimate(neg_lam: np.ndarray, x: float, mean_p: float,
                   floor: float, e: np.ndarray, h: np.ndarray):
    """Estimate of the root of S(tau) = x, where S is the expected
    occupancy, and tau dS/dtau there: _newton on the full catalog from
    _start_tau with tol = floor, run in the arrays e and h, or (None, 0.0).
    The result is only an estimate, which solve_tau checks."""
    q = 1.0 - mean_p
    p = 1.0 - q
    start = _start_tau(neg_lam, x, p, q, floor, e, h)
    return _newton(lambda tau: _occupancy(neg_lam, tau, p, q, e, h),
                   x, start, floor)


def _bisect(side):
    """Bisection on a sign-change bracket found by doubling from [0, 1]:
    side(tau) is a number with the sign of g(tau). Returns the final
    (lo, hi, iterations)."""
    lo, hi = 0.0, 1.0
    expansions = 0
    while side(hi) <= 0.0:
        lo = hi
        hi *= 2.0
        expansions += 1
        if expansions > 200:
            raise RuntimeError("failed to bracket the characteristic time")
    if not side(lo) < 0.0 < side(hi):
        raise RuntimeError(f"no sign change on bracket [{lo}, {hi}]")
    iterations = 0
    while hi - lo > TAU_ABS_TOL and iterations < MAX_BISECT_ITER:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent doubles: no step can move either
            break
        if side(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return lo, hi, iterations


def solve_tau(x: float, rate_lambda: float, popularity, mean_p: float = 1.0) -> CheSolution:
    """Characteristic time for a cache of x objects under the asymmetric
    discipline: the root of sum_k (1 - miss_asym_k(tau)) = x.

    popularity is a PopularityModel or a raw per-rank weight vector. The
    expected occupancy is strictly increasing in tau from 0 to the catalog
    size, so the root is found by bisection on a verified sign-change
    bracket (absolute tau tolerance 1e-9 s, at most 200 iterations, and no
    step once the bracket's ends are adjacent doubles), and the residual is
    checked against 1e-6 * x before returning.

    Only the sign of g(tau) = occupancy - x steers the bisection. An
    evaluation of g beyond a bound on its rounding error fixes the sign on
    one side of its point, and g is evaluated first at the points nearest a
    Newton estimate of the root (module docstring): the steps and (tau,
    residual, iterations) are the plain bisection's to the last bit. Newton
    starts from the root of a reduced model of the catalog, or at tau = 1
    for a catalog of at most 256 ranks or where that model's tail
    expansion does not hold. On `lacsim model`'s catalog a solve evaluates
    g about 8 times, where the plain bisection evaluates it about 48 times.
    """
    weights = _weight_vector(popularity)
    n = weights.size
    if not 0.0 < x < n:
        raise ValueError(f"cache size x must lie in (0, catalog={n}), got {x!r}")
    if not 0.0 < mean_p <= 1.0:
        raise ValueError(f"mean_p must lie in (0, 1], got {mean_p!r}")
    if 1.0 - mean_p == 1.0:
        # no miss is ever admitted in float arithmetic: the occupancy stays 0
        raise ValueError(f"mean_p {mean_p!r} is too small: 1 - mean_p rounds "
                         f"to 1")
    if not (math.isfinite(rate_lambda) and rate_lambda > 0.0):
        raise ValueError(f"rate_lambda must be positive and finite, "
                         f"got {rate_lambda!r}")
    neg_lam = rate_lambda * weights
    np.negative(neg_lam, out=neg_lam)
    e, miss = np.empty_like(neg_lam), np.empty_like(neg_lam)

    floor = _g_error_floor(n, x, mean_p)
    below, above = -math.inf, math.inf  # g < 0 at tau <= below, > 0 at >= above
    known = {}

    def g(tau):
        # occupancy minus x, evaluated in the two arrays above (a bisection
        # step allocates nothing); a value beyond the floor fixes the sign
        # of g on one side of tau
        nonlocal below, above
        hit = _miss_asym_into(neg_lam, tau, mean_p, e, miss)
        np.subtract(1.0, hit, out=hit)
        value = float(np.add.reduce(hit)) - x
        if value < -floor:
            below = max(below, tau)
        elif value > floor:
            above = min(above, tau)
        known[tau] = value
        return value

    if floor < math.inf:
        estimate, slope = _root_estimate(neg_lam, x, mean_p, floor, e, miss)
        if estimate is not None:
            # evaluate g at the points the bisection reads if g changes sign
            # at the estimate, nearest first on each side, until one lies
            # beyond the floor. Points where g, extrapolated from the
            # estimate, is within half a floor of 0 are left to the
            # bisection: the estimate does not tell their side. An
            # evaluation only adds known signs, so the order changes no bit
            path = []
            try:
                _bisect(lambda t: path.append(t) or t - estimate)
            except RuntimeError:  # no bracket: the points so far still count
                pass
            skip = 0.5 * floor / slope * estimate
            for t in sorted((t for t in path if t < estimate - skip),
                            reverse=True):
                if g(t) < -floor:
                    break
            for t in sorted(t for t in path if t > estimate + skip):
                if t >= above or g(t) > floor:  # known, or now known
                    break

    def side(tau):
        # a number with the sign of g(tau)
        if tau <= below:
            return -1.0
        if tau >= above:
            return 1.0
        value = known.get(tau)
        return g(tau) if value is None else value

    lo, hi, iterations = _bisect(side)
    tau = 0.5 * (lo + hi)
    residual = abs(g(tau))
    if residual > RESIDUAL_REL_TOL * x:
        raise RuntimeError(f"characteristic-time residual {residual} exceeds tolerance")
    return CheSolution(tau=tau, residual=residual, iterations=iterations)


def miss_sym(k, x: float, alpha: float):
    """Steady-state miss probability of the symmetric discipline at rank k
    for a cache of x objects under Zipf(alpha), alpha > 1.

    Independent of the admission probability: the coin rescales time but
    not the stationary ordering.
    """
    g = _gamma_tail(alpha)
    k = np.asarray(k, dtype=np.float64)
    return _clamp01(np.exp(-(x ** alpha) / (k ** alpha) / (g ** alpha)))


def eta_sym(x: float, alpha: float, eps: float) -> float:
    """Largest rank whose symmetric-discipline miss probability stays below
    eps: x / (Gamma(1 - 1/alpha) (-ln eps)**(1/alpha))."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    g = _gamma_tail(alpha)
    return x / (g * (-math.log(eps)) ** (1.0 / alpha))


def eta_asym(rate_lambda: float, norm_c: float, tau_asym: float, mean_p: float,
             eps: float, alpha: float) -> float:
    """Largest rank whose asymmetric-discipline miss probability stays below
    eps, given the characteristic time solved at the same mean_p:
    (lambda c tau / ln(1 + (1/eps - 1)/mean_p))**(1/alpha)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    if not 0.0 < mean_p <= 1.0:
        raise ValueError(f"mean_p must lie in (0, 1], got {mean_p!r}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    denom = math.log(1.0 + (1.0 / eps - 1.0) / mean_p)
    return (rate_lambda * norm_c * tau_asym / denom) ** (1.0 / alpha)


def vrtt(rtts, miss_probs) -> float:
    """Mean virtual round-trip time over a path of caches.

    rtts[i] is the round-trip time to hop i and miss_probs[i] the miss
    probability there; the weight of hop i is (1 - miss_probs[i]) times the
    product of the upstream misses before it. The terminal hop must be a
    sure hit (miss 0) so the weights form a distribution; anything else
    raises ValueError.
    """
    rtts = list(rtts)
    miss_probs = list(miss_probs)
    if len(rtts) != len(miss_probs) or not rtts:
        raise ValueError("rtts and miss_probs must be equal-length, non-empty")
    weights = []
    carry = 1.0
    for p in miss_probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"miss probability {p!r} outside [0, 1]")
        weights.append(carry * (1.0 - p))
        carry *= p
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"hop weights sum to {total!r}; the path must end in a sure hit")
    return math.fsum(r * w for r, w in zip(rtts, weights))


def fig1_grid(popularity, x: float, rate_lambda: float, mean_p_list,
              max_rank: int) -> list:
    """Per-rank asymmetric miss probabilities for ranks 1..max_rank (at most
    the catalog) over a grid of mean admission probabilities. Returns rows
    (rank, mean_p, pi, tau_x)."""
    weights = _weight_vector(popularity)
    limit = min(max_rank, weights.size)
    rows = []
    for mean_p in mean_p_list:
        sol = solve_tau(x, rate_lambda, weights, mean_p)
        pi = miss_asym(rate_lambda * weights[:limit], sol.tau, mean_p)
        for k in range(limit):
            rows.append((k + 1, mean_p, float(pi[k]), sol.tau))
    return rows
