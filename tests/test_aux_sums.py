import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twosquares import aux_sums, cli
from twosquares.arith import g2, g4, g6, g7, primes_up_to, squarefree_table, trial_factorize
from twosquares.aux_sums import (
    AuxParams,
    enumerate_smooth,
    x_direct,
    x_predicted,
    y_direct,
    y_predicted,
    z1_direct,
    z1_predicted,
    z2_direct,
    z2_predicted,
)
from twosquares.errors import ResourceGuardError, ValidationError

from oracles import mobius, squarefree_products


# brute-force pair-sum oracles straight from the displayed definitions


def smooth_list(v, W=1):
    out = []
    for a in range(1, v + 1):
        f = trial_factorize(a)
        if not f.is_squarefree():
            continue
        if any(p % 4 != 1 for p, _ in f.pairs):
            continue
        if math.gcd(a, W) != 1:
            continue
        out.append(a)
    return out


def brute_y(v, W=1):
    vals = smooth_list(v, W)
    tot = 0.0
    for a in vals:
        for b in vals:
            if math.gcd(a, b) != 1:
                continue
            fa, fb = trial_factorize(a), trial_factorize(b)
            tot += (
                mobius(fa)
                * mobius(fb)
                / (float(g7(fa)) * float(g7(fb)))
                * math.log(v / a)
                * math.log(v / b)
            )
    return tot


def brute_z(v, W=1, with_g6=False):
    vals = smooth_list(v, W)
    tot = 0.0
    for a in vals:
        for b in vals:
            l = a * b // math.gcd(a, b)
            fa, fb, fl = trial_factorize(a), trial_factorize(b), trial_factorize(l)
            term = (
                mobius(fa)
                * mobius(fb)
                * float(g4(fl))
                / (float(g2(fa)) * float(g2(fb)) * l)
                * math.log(v / a)
                * math.log(v / b)
            )
            if with_g6:
                term *= g6(fl) if l > 1 else 0.0
            tot += term
    return tot


# blocked-gcd oracle: every element pair through np.gcd.outer, O(n^2)


def blocked_pair_sums(params, block=1024):
    """(Y, Z(1), Z(2)) from per-element data and value-indexed gcd lookups,
    evaluated over every element pair in numpy blocks."""
    ps = primes_up_to(params.v)
    eligible = [int(p) for p in ps[ps % 4 == 1] if params.W % int(p) != 0]
    vals, mus, primes = zip(*squarefree_products(eligible, params.v))
    vals, mus = np.array(vals, dtype=np.int64), np.array(mus, dtype=np.int64)
    L = math.log(params.v) - np.log(vals.astype(np.float64))
    rows = []
    for ps in primes:
        g2v = g4v = g7v = 1.0
        g6v = 0.0
        for p in ps:
            g2v *= 2 - 1 / p
            g4v *= (4 * p * p - 3 * p + 1) / (p * (p + 1))
            g7v *= p + 1
            g6v += (p - 1) ** 2 * (2 * p + 1) / ((p + 1) * (4 * p * p - 3 * p + 1)) * math.log(p)
        rows.append((g2v, g4v, g7v, g6v))
    g2v, g4v, g7v, g6add = np.array(rows).T
    w_lookup = np.zeros(params.v + 1)
    g6_lookup = np.zeros(params.v + 1)
    w_lookup[vals] = vals / g4v
    g6_lookup[vals] = g6add

    uy = mus / g7v * L
    uz = mus * g4v * L / (g2v * vals)
    y = z1 = z2 = 0.0
    for i0 in range(0, len(vals), block):
        sl = slice(i0, i0 + block)
        g = np.gcd.outer(vals[sl], vals)
        y += float(np.sum((uy[sl, None] * uy[None, :]) * (g == 1)))
        zz = uz[sl, None] * uz[None, :] * w_lookup[g]
        z1 += float(np.sum(zz))
        z2 += float(np.sum(zz * (g6add[sl, None] + g6add[None, :] - g6_lookup[g])))
    return y, z1, z2


def kernel_pair_sums(params):
    return y_direct(params), z1_direct(params), z2_direct(params)


def test_params_split():
    p = AuxParams(v=100, D0=10)
    assert (p.W, p.W1) == (105, 5)
    with pytest.raises(ValidationError):
        AuxParams(v=1)


def test_enumeration_matches_definition():
    for v, D0 in ((30, 1), (300, 1), (300, 10)):
        p = AuxParams(v=v, D0=D0)
        vals, mus = enumerate_smooth(p)
        assert sorted(vals.tolist()) == smooth_list(v, p.W)
        for a, mu in zip(vals.tolist(), mus.tolist()):
            assert mu == mobius(trial_factorize(a))
        # structural coprimality when W > 1
        assert all(math.gcd(int(a), p.W) == 1 for a in vals)


def test_one_enumeration_per_v(monkeypatch, tmp_path):
    calls = []

    def counted(primes, bound):
        calls.append(bound)
        return squarefree_table(primes, bound)

    monkeypatch.setattr(aux_sums, "squarefree_table", counted)
    aux_sums._smooth_rows.cache_clear()
    aux_sums._divisor_sums.cache_clear()
    argv = ["aux-sums", "--v", "3001", "--which", "x,y,z1,z2", "--output", str(tmp_path / "aux.json")]
    assert cli.main(argv) == 0
    assert calls == [3001]


def test_aux_peak_within_charge(monkeypatch):
    charged = []
    monkeypatch.setattr(aux_sums, "check_bytes", lambda what, need, workload: charged.append(need))
    for v in (30, 10**5, 10**6):
        p = AuxParams(v=v)
        aux_sums._smooth_rows.cache_clear()
        aux_sums._divisor_sums.cache_clear()
        tracemalloc.start()
        for direct in (x_direct, y_direct, z1_direct, z2_direct):
            direct(p)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        size = len(enumerate_smooth(p)[0])
        assert size <= charged[-1] / aux_sums._BYTES_PER_ELEMENT and 1.33 * peak <= charged[-1], v


def test_trivial_small_v():
    p = AuxParams(v=4)
    assert x_direct(p) == pytest.approx(math.log(4))
    assert y_direct(p) == pytest.approx(math.log(4) ** 2)
    assert z1_direct(p) == pytest.approx(math.log(4) ** 2)
    assert z2_direct(p) == 0.0


def test_x_direct_hand_value_v30():
    p = AuxParams(v=30)
    expected = math.log(30) - sum((1 / a) * math.log(30 / a) for a in (5, 13, 17, 29))
    assert x_direct(p) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("v", [30, 100, 300])
def test_pair_sums_against_bruteforce(v):
    p = AuxParams(v=v)
    assert y_direct(p) == pytest.approx(brute_y(v), rel=1e-12)
    assert z1_direct(p) == pytest.approx(brute_z(v), rel=1e-12)
    assert z2_direct(p) == pytest.approx(brute_z(v, with_g6=True), rel=1e-12)


def test_pair_sums_with_W():
    v = 300
    p = AuxParams(v=v, D0=10)  # W = 105 removes 5 from the prime pool
    assert y_direct(p) == pytest.approx(brute_y(v, 105), rel=1e-12)
    assert z1_direct(p) == pytest.approx(brute_z(v, 105), rel=1e-12)


@pytest.mark.parametrize("v, D0", [(10**3, 1), (10**4, 1), (3 * 10**4, 1), (10**4, 10)])
def test_pair_sums_against_blocked_gcd(v, D0):
    p = AuxParams(v=v, D0=D0)
    assert kernel_pair_sums(p) == pytest.approx(blocked_pair_sums(p), rel=1e-12)


@given(v=st.integers(min_value=2, max_value=3000), D0=st.sampled_from([1, 5, 10, 13]))
def test_pair_sums_property(v, D0):
    p = AuxParams(v=v, D0=D0)
    assert kernel_pair_sums(p) == pytest.approx(blocked_pair_sums(p), rel=1e-12, abs=1e-12)


def test_z_erratum_ratios():
    """Direct / displayed ratios of Z(1), Z(2), Y.  The Z(1) ratio rises
    towards the factor 4 prod_{p = 1 (4)} 2p^2(2p^2-2p+1)/((p^2-1)(2p-1)^2)
    that the series derivation has and the displayed constant lacks."""
    pinned = {
        10**3: (3.5982, 1.9739, 0.8882),
        10**4: (3.7941, 2.4740, 0.9342),
        10**5: (3.9048, 2.8016, 0.9605),
    }
    ps = primes_up_to(10**6)
    p1 = ps[ps % 4 == 1].astype(float)
    local = 2 * p1**2 * (2 * p1**2 - 2 * p1 + 1) / ((p1**2 - 1) * (2 * p1 - 1) ** 2)
    factor = 4 * math.exp(math.fsum(np.log(local)))
    assert factor == pytest.approx(4.29253, abs=5e-6)
    z1_ratios = []
    for v, expected in pinned.items():
        p = AuxParams(v=v)
        ratios = (
            z1_direct(p) / z1_predicted(p),
            z2_direct(p) / z2_predicted(p),
            y_direct(p) / y_predicted(p),
        )
        assert ratios == pytest.approx(expected, abs=5e-4), v
        z1_ratios.append(ratios[0])
    assert z1_ratios[0] < z1_ratios[1] < z1_ratios[2] < factor


def test_predicted_forms():
    p = AuxParams(v=10**4)
    A_over = x_predicted(p)
    assert A_over == pytest.approx(
        8 * 0.7642236 * math.sqrt(math.log(10**4)) / math.pi, rel=1e-4
    )
    # ratio y/x^2 = 1 exactly by the displayed forms
    assert y_predicted(p) / x_predicted(p) ** 2 == pytest.approx(1.0, rel=1e-12)
    assert z2_predicted(p) < 0


def test_x_error_trend_small():
    errs = []
    for v in (10**3, 10**4, 10**5):
        p = AuxParams(v=v)
        errs.append(abs(x_direct(p) - x_predicted(p)) / x_predicted(p))
    assert errs[0] > errs[1] > errs[2]


def test_z2_negative_for_v_grid():
    for v in (100, 200, 500, 1000, 2000, 5000):
        assert z2_direct(AuxParams(v=v)) < 0, v


def test_pair_guard():
    # the byte guard rejects v = 10^9 from v alone, before any enumeration
    for direct in (x_direct, y_direct):
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ResourceGuardError) as exc:
                direct(AuxParams(v=10**9))
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "bytes" in exc.value.cost_estimate
        assert elapsed < 1.0 and peak < 1 << 20, direct.__name__
