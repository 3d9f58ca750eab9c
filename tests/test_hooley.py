import json
import math
import time
import tracemalloc

import pytest

from twosquares import cli, hooley
from twosquares.arith import build_factor_table, floor_power, is_sum_of_two_squares, primes_up_to, r2, trial_factorize
from twosquares.errors import ResourceGuardError, ValidationError
from twosquares.hooley import rho, rho_on, t_weight


@pytest.fixture(scope="module")
def p_v100():
    # v = floor(N^theta1) = 100 with a regime-legal exponent
    v = floor_power(100**20, 1 / 20)
    assert v == 100
    return v


def test_t_weight_trivial_cases(p_v100):
    assert t_weight(p_v100, trial_factorize(1)) == 1.0
    assert t_weight(p_v100, trial_factorize(3)) == 1.0  # 3 = 3 mod 4 excluded
    assert t_weight(p_v100, trial_factorize(21)) == 1.0


def test_t_weight_single_prime(p_v100):
    expected = 1 - (5 / 9) * (1 - math.log(5) / math.log(100))
    assert t_weight(p_v100, trial_factorize(5)) == pytest.approx(expected, abs=1e-15)


def test_t_weight_two_primes(p_v100):
    # divisors of 65 supported on 1-mod-4 primes: 1, 5, 13, 65
    logv = math.log(100)
    expected = (
        1
        - (5 / 9) * (1 - math.log(5) / logv)
        - (13 / 25) * (1 - math.log(13) / logv)
        + (5 / 9) * (13 / 25) * (1 - math.log(65) / logv)
    )
    assert t_weight(p_v100, trial_factorize(65)) == pytest.approx(expected, abs=1e-14)


def test_t_weight_respects_v_cutoff():
    v = floor_power(10**40, 0.025)
    assert v == 10
    # 13 > v: excluded, so t(13) = 1
    assert t_weight(v, trial_factorize(13)) == 1.0
    assert t_weight(v, trial_factorize(5)) != 1.0


@pytest.mark.parametrize(
    "N, theta1",
    [(4, 0.5), (10**40, 0.025), (100**20, 1 / 20), (10**6, 0.5), (5000**2, 0.5)],
    ids=["v2", "v10", "v100", "v1000", "v5000"],
)
def test_t_weight_vs_divisor_sum(N, theta1, ftab):
    """t(n) against the defining sum over every a | n, a <= v, for n <= 5000."""
    v = floor_power(N, theta1)
    eligible = []  # (a, mu(a), g2(a)) for squarefree a <= v built from primes 1 mod 4
    for a in range(1, v + 1):
        pairs = trial_factorize(a).pairs
        if all(e == 1 and p % 4 == 1 for p, e in pairs):
            eligible.append((a, (-1) ** len(pairs), math.prod(2 - 1 / p for p, _ in pairs)))
    for n in range(1, 5001):
        expected = sum(
            mu / g * (1 - math.log(a) / math.log(v)) for a, mu, g in eligible if n % a == 0
        )
        got = t_weight(v, ftab.factorize(n))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), n


def test_rho_examples(p_v100):
    assert rho(p_v100, trial_factorize(3)) == 0.0
    assert rho(p_v100, trial_factorize(1)) == 4.0
    tw = t_weight(p_v100, trial_factorize(5))
    assert rho(p_v100, trial_factorize(5)) == pytest.approx(8 * tw)


def test_rho_supported_on_two_squares(p_v100):
    table = build_factor_table(2000)
    for n in range(1, 2000):
        f = table.factorize(n)
        if not is_sum_of_two_squares(f):
            assert rho(p_v100, f) == 0.0
        else:
            assert rho(p_v100, f) == pytest.approx(t_weight(p_v100, f) * r2(f))


def test_rho_sign_violations_exist_and_are_recorded_not_clamped(p_v100):
    # the mu(a) signs permit t(n) < 0; verify rho reports it raw
    table = build_factor_table(10**5)
    negs = [n for n in range(1, 10**5) if rho(p_v100, table.factorize(n)) < 0]
    # whether or not this particular window has one, the function must not clamp
    for n in negs[:5]:
        assert rho(p_v100, table.factorize(n)) < 0
    # t_weight itself can certainly go negative for engineered n: 5*13*17*29
    f = trial_factorize(5 * 13 * 17 * 29)
    tw = t_weight(p_v100, f)
    assert rho(p_v100, f) == pytest.approx(tw * r2(f))


def test_v_below_two_is_rejected():
    # log v must be positive; SieveParams never derives such a v
    f = trial_factorize(5)
    for v in (1, 0, -3):
        for call in (lambda: t_weight(v, f), lambda: rho(v, f), lambda: rho_on(v, range(1, 50))):
            with pytest.raises(ValidationError):
                call()
    # off the sums of two squares too, where r_2 already vanishes
    with pytest.raises(ValidationError):
        rho(1, trial_factorize(3))


def _unreachable(*args, **kwargs):
    raise AssertionError("primes sieved past the t-table guard")


def test_rho_on_guard_before_sieve(monkeypatch):
    # about 7.7e7 t-table elements at v = 10^9: rejected from v alone
    monkeypatch.setattr(hooley, "primes_up_to", _unreachable)
    with pytest.raises(ResourceGuardError) as exc:
        rho_on(10**9, range(1, 41, 4))
    assert "v = 1000000000" in exc.value.cost_estimate


def test_rho_guard_exit_code(capsys, monkeypatch):
    # a 2.2e6-point window passes its own guard, and rho's t table at
    # v = floor(10^(10 * 0.9)) = 10^9 does not
    monkeypatch.setattr(hooley, "primes_up_to", _unreachable)
    argv = ["sieve-run", "--N", "1e10", "--theta1", "0.9", "--theta2", "0.1", "--D0", "11", "--tuple", "0,4", "--which", "S2"]
    t0 = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    err = json.loads(capsys.readouterr().out)["error"]
    assert code == 3 and err["type"] == "resource_guard" and "t table" in err["message"]
    assert elapsed < 1.0


def test_rho_peak_within_charge(monkeypatch):
    charged = []
    monkeypatch.setattr(hooley, "check_bytes", lambda what, need, workload: charged.append(need))
    progression = range(10**8 + 1, 10**8 + 4001, 4)
    for v in (10**4, 10**5, 10**6):
        tracemalloc.start()
        rho_on(v, progression)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        ps = primes_up_to(v)
        size = len(hooley._t_terms(ps[ps % 4 == 1], v)[0])
        assert size <= charged[-1] / hooley._T_BYTES and 1.33 * peak <= charged[-1], v
