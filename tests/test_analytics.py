"""Steady-state model checks against independently computed values.

Every frozen constant below comes from a 25-digit mpmath evaluation of the
defining expression (bisection on the occupancy constraint, direct sums),
done outside this package. Nothing here is read back from the code under
test.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacsim import analytics
from lacsim.analytics import (CheSolution, eta_asym, eta_sym, fig1_grid,
                              miss_asym, miss_mixture, miss_sym, solve_tau,
                              vrtt)
from lacsim.cli import main
from lacsim.workload import zipf_weights

# catalog 20000, alpha 1.7, unit rate, cache of 8 objects
TAU_P1 = 21.2499054056          # mean_p = 1
MISS_P1 = 0.2351441278
TAU_P01 = 112.010011009         # mean_p = 0.1
MISS_P01 = 0.1871955128
PI4_P01 = 0.0541417110942       # per-rank spot values at mean_p = 0.1
PI5_P01 = 0.230598800261

MISS_SYM_1_8_17 = 9.05182810987e-05
ETA_SYM_8_2 = 2.10325634846443  # x=8, alpha=2, eps=0.01


@pytest.fixture(scope="module")
def catalog():
    return zipf_weights(20000, 1.7)


def test_characteristic_time_equal_weights_closed_form():
    # three equal-rate objects, cache of two: occupancy 3(1 - e**(-tau/3))
    # crosses 2 at tau = 3 ln 3. Verified first by a sign-change scan.
    weights = [1 / 3, 1 / 3, 1 / 3]
    lo, hi = 3.29, 3.30
    f = lambda t: 3.0 * (1.0 - math.exp(-t / 3.0)) - 2.0
    assert f(lo) < 0.0 < f(hi)
    sol = solve_tau(2.0, 1.0, weights)
    assert sol.tau == pytest.approx(3.0 * math.log(3.0), rel=1e-9)
    assert sol.residual <= 2e-6
    assert isinstance(sol, CheSolution)


def test_characteristic_time_frozen_catalog(catalog):
    sol = solve_tau(8.0, 1.0, catalog)
    assert sol.tau == pytest.approx(TAU_P1, rel=1e-7)
    sol01 = solve_tau(8.0, 1.0, catalog, mean_p=0.1)
    assert sol01.tau == pytest.approx(TAU_P01, rel=1e-7)


def test_aggregate_miss_frozen(catalog):
    for mean_p, expect in ((1.0, MISS_P1), (0.1, MISS_P01)):
        tau = solve_tau(8.0, 1.0, catalog, mean_p=mean_p).tau
        pi = miss_asym(catalog.weights, tau, mean_p)
        agg = float(np.dot(catalog.weights, pi))
        assert agg == pytest.approx(expect, rel=1e-6)


# (x, mean_p, tau, residual, iterations) of solve_tau on the catalog above,
# recorded before the bisection evaluated its occupancy in preallocated
# arrays: the same floating-point operations must give the same bits
SOLVE_TAU_PINS = [
    (2, 1.0, 2.6854192349128425, 1.134372595856803e-10, 31),
    (2, 0.1, 13.92812847206369, 3.370193013552125e-12, 33),
    (2, 0.003, 48.92879833979532, 1.2582157538076899e-11, 35),
    (8, 1.0, 21.249905406031758, 9.312906001923693e-11, 34),
    (8, 0.1, 112.01001100847498, 1.0546230555519287e-11, 36),
    (8, 0.003, 403.93962834449485, 5.4427573559223674e-12, 38),
    (50, 1.0, 442.62616934487596, 2.688693712116219e-11, 38),
    (50, 0.1, 2325.328183754813, 3.353761712787673e-12, 41),
    (50, 0.003, 8357.532385662664, 1.6555645743210334e-12, 43),
]


def test_solve_tau_reproduces_pinned_bits(catalog):
    for x, mean_p, tau, residual, iterations in SOLVE_TAU_PINS:
        sol = solve_tau(x, 1.0, catalog, mean_p=mean_p)
        assert (sol.tau, sol.residual, sol.iterations) == \
            (tau, residual, iterations)


def plain_solve_tau(x, rate_lambda, weights, mean_p):
    """solve_tau as a plain bisection that evaluates g at every point: the
    reference solve_tau must match bit for bit."""
    lam = rate_lambda * weights
    e, miss = np.empty_like(lam), np.empty_like(lam)

    def g(tau):
        np.negative(lam, out=e)
        np.multiply(e, tau, out=e)
        np.exp(e, out=e)
        np.subtract(1.0, e, out=miss)
        np.multiply(miss, 1.0 - mean_p, out=miss)
        np.subtract(1.0, miss, out=miss)
        np.divide(e, miss, out=miss)
        hit = np.subtract(1.0, np.clip(miss, 0.0, 1.0))
        return float(np.sum(hit)) - x

    lo, hi = 0.0, 1.0
    expansions = 0
    while g(hi) <= 0.0:
        lo = hi
        hi *= 2.0
        expansions += 1
        if expansions > 200:
            raise RuntimeError("failed to bracket the characteristic time")
    if not g(lo) < 0.0 < g(hi):
        raise RuntimeError(f"no sign change on bracket [{lo}, {hi}]")
    iterations = 0
    while hi - lo > 1e-9 and iterations < 200:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    tau = 0.5 * (lo + hi)
    residual = abs(g(tau))
    if residual > 1e-6 * x:
        raise RuntimeError(f"characteristic-time residual {residual} exceeds tolerance")
    return tau, residual, iterations


def _result(solve, *args):
    try:
        sol = solve(*args)
    except RuntimeError as exc:
        return repr(exc)
    return sol if isinstance(sol, tuple) else \
        (sol.tau, sol.residual, sol.iterations)


def _outcomes(*args):
    """The result or error of solve_tau and of plain_solve_tau."""
    return _result(solve_tau, *args), _result(plain_solve_tau, *args)


def test_solve_tau_matches_plain_bisection_bit_for_bit():
    # 1000 seeded cases: catalogs of 3 to 200000 (ten above 20000, to stay
    # fast), alpha 0.8-2.5, x from 1 to n - 1, rates 1e-3 to 12 and mean_p
    # 1e-6 to 1, log-uniform where the range spans decades
    rng = random.Random(20261019)
    for case in range(1000):
        top = 200_000 if case % 100 == 0 else 20_000
        n = round(10.0 ** rng.uniform(math.log10(3), math.log10(top)))
        weights = zipf_weights(n, rng.uniform(0.8, 2.5)).weights
        x = min(10.0 ** rng.uniform(0.0, math.log10(n - 1)), n - 1.0)
        if case % 3 == 0:
            x = float(math.floor(x))
        rate = 10.0 ** rng.uniform(-3.0, math.log10(12.0))
        mean_p = 1.0 if case % 10 == 0 else 10.0 ** rng.uniform(-6.0, 0.0)
        args = (x, rate, weights, mean_p)
        new, plain = _outcomes(*args)
        assert new == plain, args
    # admission so close to zero that the bound is not used
    args = (2.0, 0.5, zipf_weights(50, 0.9).weights, 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        new, plain = _outcomes(*args)
    assert new == plain, args
    # 1 - mean_p rounds to 1: rejected before the bisection, whose bracket
    # check would fail
    with pytest.raises(ValueError, match="mean_p"):
        solve_tau(2.0, 0.5, zipf_weights(50, 0.9).weights, 1e-17)


def test_solve_tau_stops_at_adjacent_doubles():
    # tau is far above 1 s, where 1e-9 s is below the spacing of doubles: the
    # bisection ends once lo and hi are adjacent, with the bits it reached
    weights = zipf_weights(9832, 1.30).weights
    sol = solve_tau(3702, 0.0038, weights, mean_p=1.6e-6)
    assert sol.tau == 559238790.0775888
    assert sol.residual == 9.094947017729282e-13
    assert sol.iterations < 200


def test_solve_tau_evaluates_near_the_root(catalog, monkeypatch):
    # a plain bisection evaluates g 37-61 times on the pinned solves; with
    # the signs known from evaluations near the Newton estimate 4-12 remain
    calls = []
    evaluate = analytics._miss_asym_into
    monkeypatch.setattr(analytics, "_miss_asym_into",
                        lambda *a: calls.append(a[1]) or evaluate(*a))
    for x, mean_p, *_ in SOLVE_TAU_PINS:
        calls.clear()
        solve_tau(x, 1.0, catalog, mean_p=mean_p)
        assert 3 <= len(calls) <= 16, (x, mean_p, len(calls))


@pytest.fixture
def exp_sizes(monkeypatch):
    """The sizes of the arrays passed to np.exp while the test runs: a
    solve makes one exp pass over the catalog per evaluation of g and per
    Newton step on the full catalog."""
    sizes = []
    exp = np.exp
    monkeypatch.setattr(analytics.np, "exp", lambda a, *args, **kwargs:
                        sizes.append(np.size(a)) or exp(a, *args, **kwargs))
    return sizes


def test_solve_tau_passes_on_the_model_grid(catalog, exp_sizes):
    # the mean_p grid of perfbench's model-grid workload at seed 1: 60 values
    # log-uniform on [1e-3, 1]. A solve made 15.2 full-catalog passes on
    # average with Newton from tau = 1 and a checked band; it makes 9.1 now
    rng = random.Random(1)
    grid = sorted(10.0 ** rng.uniform(-3.0, 0.0) for _ in range(60))
    passes = []
    for mean_p in grid:
        exp_sizes.clear()
        solve_tau(8.0, 1.0, catalog, mean_p=mean_p)
        passes.append(exp_sizes.count(catalog.weights.size))
    assert sum(passes) / len(passes) <= 12.0


def _bit_for_bit_cases():
    """The 1000 (x, rate, weights, mean_p) cases, in order, of
    test_solve_tau_matches_plain_bisection_bit_for_bit."""
    rng = random.Random(20261019)
    for case in range(1000):
        top = 200_000 if case % 100 == 0 else 20_000
        n = round(10.0 ** rng.uniform(math.log10(3), math.log10(top)))
        weights = zipf_weights(n, rng.uniform(0.8, 2.5)).weights
        x = min(10.0 ** rng.uniform(0.0, math.log10(n - 1)), n - 1.0)
        if case % 3 == 0:
            x = float(math.floor(x))
        rate = 10.0 ** rng.uniform(-3.0, math.log10(12.0))
        mean_p = 1.0 if case % 10 == 0 else 10.0 ** rng.uniform(-6.0, 0.0)
        yield x, rate, weights, mean_p


def test_solve_tau_passes_on_the_random_cases(exp_sizes):
    # the bit-for-bit cases made 20,527 full-catalog passes in all with
    # Newton from tau = 1 and a checked band, and make 17,348 now: a start
    # that misleads Newton, or a walk that misses the root, would show here
    total = 0
    for x, rate, weights, mean_p in _bit_for_bit_cases():
        exp_sizes.clear()
        try:
            solve_tau(x, rate, weights, mean_p)
        except RuntimeError:
            pass
        total += exp_sizes.count(weights.size)
    assert total <= 20_527


def test_solve_tau_accepts_raw_vectors(catalog):
    a = solve_tau(8.0, 1.0, catalog).tau
    b = solve_tau(8.0, 1.0, catalog.weights.tolist()).tau
    assert a == b


def test_solve_tau_domain_errors(catalog):
    small = [0.5, 0.3, 0.2]
    for x in (0.0, -1.0, 3.0, 4.0):
        with pytest.raises(ValueError):
            solve_tau(x, 1.0, small)
    # nan passes a plain `rate <= 0` test, and inf makes g(0) nan; either
    # would end in "no sign change on bracket", not a domain error
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rate_lambda"):
            solve_tau(1.0, rate, small)
    for mean_p in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            solve_tau(1.0, 1.0, small, mean_p=mean_p)
    with pytest.raises(ValueError):
        solve_tau(1.0, 1.0, [0.5, -0.5])


def test_miss_asym_values():
    # mean_p = 1 collapses to the bare inter-request tail e**(-lam tau)
    assert miss_asym(2.0, 3.0, 1.0) == pytest.approx(math.exp(-6.0), rel=1e-12)
    # lam tau = 1, mean_p = 0.5
    assert miss_asym(1.0, 1.0, 0.5) == pytest.approx(0.537882842739990,
                                                     rel=1e-12)
    arr = miss_asym(np.array([1.0, 2.0]), 1.0, 0.5)
    assert arr.shape == (2,)


def test_miss_asym_monotone():
    taus = np.linspace(0.1, 50, 40)
    m = [float(miss_asym(0.3, t, 0.4)) for t in taus]
    assert all(a >= b for a, b in zip(m, m[1:]))
    ps = np.linspace(0.01, 1.0, 40)
    m = [float(miss_asym(0.3, 5.0, p)) for p in ps]
    assert all(a >= b for a, b in zip(m, m[1:]))


def test_mixture_hand_expansion():
    # phi = 1/2 over admission probs {0.2, 0.8} equally weighted:
    # 0.5 * (0.5/0.6) + 0.5 * (0.5/0.9) = 25/36
    got = miss_mixture({0.2: 0.5, 0.8: 0.5}, 0.5)
    assert got == pytest.approx(25.0 / 36.0, rel=1e-12)


def test_mixture_point_mass_matches_mean_field():
    lam, tau = 0.7, 2.5
    phi_val = 1.0 - math.exp(-lam * tau)
    for p in (0.05, 0.3, 1.0):
        assert miss_mixture({p: 1.0}, phi_val) == pytest.approx(
            float(miss_asym(lam, tau, p)), rel=1e-12)


def test_mixture_jensen_gap():
    # the mixture can only sit above the mean-field value at the mean
    lam, tau = 0.7, 2.5
    phi_val = 1.0 - math.exp(-lam * tau)
    rng = np.random.default_rng(0)
    for _ in range(50):
        us = rng.uniform(0.01, 1.0, size=3)
        ws = rng.dirichlet(np.ones(3))
        dist = {float(u): float(w) for u, w in zip(us, ws)}
        if len(dist) < 3:
            continue
        mean_u = float(np.dot(us, ws))
        assert miss_mixture(dist, phi_val) >= \
            float(miss_asym(lam, tau, mean_u)) - 1e-12


def test_mixture_validation():
    with pytest.raises(ValueError):
        miss_mixture({0.5: 0.4, 0.9: 0.4}, 0.5)
    with pytest.raises(ValueError):
        miss_mixture({1.5: 1.0}, 0.5)


def test_gamma_tail_half_integer():
    # Gamma(1/2) = sqrt(pi); the alpha=2 symmetric curve leans on this
    assert abs(math.gamma(0.5) - math.sqrt(math.pi)) <= 1e-12


def test_miss_sym_frozen_values():
    assert float(miss_sym(1, 8, 1.7)) == pytest.approx(MISS_SYM_1_8_17,
                                                       rel=1e-9)
    # alpha = 2 at k = x: exp(-1/Gamma(1/2)**2) = exp(-1/pi)
    assert float(miss_sym(8, 8, 2.0)) == pytest.approx(
        math.exp(-1.0 / math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        miss_sym(1, 8, 1.0)


def test_miss_sym_monotone_in_rank():
    curve = [float(miss_sym(k, 8, 1.7)) for k in range(1, 200)]
    assert all(a <= b for a, b in zip(curve, curve[1:]))


def test_eta_sym_frozen():
    assert eta_sym(8.0, 2.0, 0.01) == pytest.approx(ETA_SYM_8_2, rel=1e-10)
    for eps in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            eta_sym(8.0, 2.0, eps)


def test_eta_asym_collapses_at_full_admission():
    # mean_p = 1 leaves ln(1 + (1/eps - 1)) = -ln eps + ln(1) form:
    # (lam c tau / ln(1/eps))**(1/alpha)
    lam, c, tau, eps, alpha = 1.0, 0.5, 20.0, 0.01, 1.7
    expect = (lam * c * tau / math.log(1.0 / eps)) ** (1.0 / alpha)
    assert eta_asym(lam, c, tau, 1.0, eps, alpha) == pytest.approx(
        expect, rel=1e-12)


def test_eta_ratio_grows_as_admission_vanishes(catalog):
    # at mean_p = 1e-4 the asymmetric discipline holds 4.33x the ranks the
    # symmetric one does at eps = 0.01 (mpmath: tau = 692.976, ratio 4.3333)
    tau = solve_tau(8.0, 1.0, catalog, mean_p=1e-4).tau
    assert tau == pytest.approx(692.97605027, rel=1e-6)
    ratio = eta_asym(1.0, catalog.norm_c, tau, 1e-4, 0.01, 1.7) / \
        eta_sym(8.0, 1.7, 0.01)
    assert ratio == pytest.approx(4.33333874, rel=1e-6)
    assert ratio > 0.95 * (-math.log(0.01)) ** (1.0 / 1.7)


def test_vrtt_hand_values():
    assert vrtt([1.0, 2.0, 4.0], [0.5, 0.5, 0.0]) == pytest.approx(2.0)
    assert vrtt([3.5], [0.0]) == pytest.approx(3.5)
    # sure hit at the first hop ignores the rest
    assert vrtt([1.0, 9.0], [0.0, 0.0]) == pytest.approx(1.0)


def test_vrtt_requires_terminal_hit():
    with pytest.raises(ValueError):
        vrtt([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        vrtt([], [])
    with pytest.raises(ValueError):
        vrtt([1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        vrtt([1.0, 2.0], [1.5, 0.0])


def test_fig1_grid_structure(catalog):
    rows = fig1_grid(catalog, 8.0, 1.0, [1.0, 0.1, 0.05, 0.02], max_rank=10)
    assert len(rows) == 40
    by_p = {}
    for rank, mean_p, pi, tau_x in rows:
        by_p.setdefault(mean_p, []).append((rank, pi, tau_x))
    # full admission column equals the bare working-set tail
    tau1 = by_p[1.0][0][2]
    assert tau1 == pytest.approx(TAU_P1, rel=1e-7)
    for rank, pi, _ in by_p[1.0]:
        lam_k = catalog.weights[rank - 1]
        assert pi == pytest.approx(math.exp(-lam_k * tau1), rel=1e-7)
    # spot values on the mean_p = 0.1 column
    col = dict((r, p) for r, p, _ in by_p[0.1])
    assert col[4] == pytest.approx(PI4_P01, rel=1e-6)
    assert col[5] == pytest.approx(PI5_P01, rel=1e-6)
    # on this grid, lowering admission never raises the miss of ranks 1..8.
    # Ranks 1..7 hold this for every mean_p; rank x = 8 does not, as its
    # miss peaks near mean_p 0.68 and falls slightly from there to 1.0, but
    # the grid steps from 1.0 straight down to 0.1, below that peak
    for k in range(1, 9):
        head = [dict((r, p) for r, p, _ in by_p[mp])[k]
                for mp in (1.0, 0.1, 0.05, 0.02)]
        assert all(a >= b - 1e-12 for a, b in zip(head, head[1:]))


def test_model_curves_csv(tmp_path):
    # the curve file that `lacsim model` writes for the catalog fixture
    outdir = tmp_path / "model"
    assert main(["model", "--max-rank", "3", "--mean-p", "1.0",
                 "--outdir", str(outdir)]) == 0
    lines = (outdir / "model_curves.csv").read_text().splitlines()
    assert lines[0] == "rank,mean_p,pi,tau_x"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 1.0


def test_miss_asym_clamps_to_unit_interval():
    # a negative rate drives miss_asym above one, for scalars and arrays
    assert miss_asym(-1.0, 2.0, 0.5) == 1.0
    assert miss_asym(np.array([-1.0, 1.0, -2.0]), 2.0, 0.5).tolist()[::2] == [1.0, 1.0]
    # an array already in [0, 1] is returned as it is, not copied
    inside = np.array([0.0, 0.5, 1.0])
    assert analytics._clamp01(inside) is inside


@given(lam=st.floats(0.001, 10.0), tau=st.floats(0.001, 100.0),
       p=st.floats(0.001, 1.0))
@settings(max_examples=120, deadline=None)
def test_miss_asym_stays_in_unit_interval(lam, tau, p):
    val = float(miss_asym(lam, tau, p))
    assert 0.0 <= val <= 1.0
    # and never exceeds the bare tail at the same tau
    assert val <= math.exp(-lam * tau) / (
        1.0 - (1.0 - math.exp(-lam * tau)) * (1.0 - p)) + 1e-12
