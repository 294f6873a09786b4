import math
from decimal import Context, localcontext

import numpy as np
import pytest

from primegaps import bounds
from primegaps.sieve import primes_up_to

# Expected values below were derived independently with 50-digit arithmetic
# (mpmath), then frozen.


def sieve_pi(x: int) -> int:
    """pi(x) counted off the segmented sieve, independent of prime_pi."""
    return int(np.searchsorted(primes_up_to(x), x, side="right"))


def test_dusart_upper_values():
    assert bounds.dusart_upper(10**6) == pytest.approx(78644.1091328147, rel=1e-12)
    assert bounds.dusart_upper(60184) == pytest.approx(6076.023907797351, rel=1e-12)
    assert sieve_pi(10**6) <= bounds.dusart_upper(10**6)
    with pytest.raises(ValueError):
        bounds.dusart_upper(60183)


def test_dusart_lower_values():
    assert bounds.dusart_lower(10**6) == pytest.approx(78030.44564451973, rel=1e-12)
    assert bounds.dusart_lower(5393) == pytest.approx(710.2728172392235, rel=1e-12)
    assert bounds.dusart_lower(5393) <= sieve_pi(5393) == 711
    with pytest.raises(ValueError):
        bounds.dusart_lower(5392)


def test_dusart_sandwich_spot():
    for x in (60184, 10**5, 10**6):
        pi_x = sieve_pi(x)
        assert bounds.dusart_lower(x) <= pi_x <= bounds.dusart_upper(x)


def test_corollary1_values():
    assert bounds.corollary1_bound(113) == pytest.approx(31.15189377244836, rel=1e-12)
    assert bounds.corollary1_bound(5) == pytest.approx(9.814738710964681, rel=1e-12)
    for bad in (4, 3, 2, 0):
        with pytest.raises(ValueError):
            bounds.corollary1_bound(bad)


def test_empirical_values():
    assert bounds.empirical_bound(2) == pytest.approx(4.328085122666891, rel=1e-12)
    assert bounds.empirical_bound(113) == pytest.approx(24.11479751010816, rel=1e-12)
    assert bounds.empirical_bound(436273009) == pytest.approx(21930122.72745597, rel=1e-12)
    with pytest.raises(ValueError):
        bounds.empirical_bound(1)


def test_andrica_values():
    assert bounds.andrica_bound(113) == pytest.approx(22.2602916254693, rel=1e-12)
    assert bounds.andrica_bound(1327) == pytest.approx(73.85602240034794, rel=1e-12)
    assert bounds.andrica_holds(113, 14)
    assert bounds.andrica_holds(1327, 34)
    assert not bounds.andrica_holds(2, 5)  # (5-1)^2 = 16 >= 8
    with pytest.raises(ValueError):
        bounds.andrica_holds(113, 0)


def test_bertrand_verdict():
    b = bounds.BOUNDS["bertrand"]
    assert b.decide(2, 1) == (True, False)
    assert b.at(2) - 1 == 1.0 and b.first_index == 1
    assert not b.decide(3, 3)[0]  # hypothetical gap == p fails strictness


def test_corollary1_verdict_fields():
    b = bounds.BOUNDS["corollary1"]
    assert b.name == "corollary1" and b in bounds.GAP_BOUNDS
    assert b.first_index == 3  # p_3 = 5 = min_x
    assert b.decide(113, 14) == (True, False)
    assert b.at(113) == pytest.approx(31.15189377244836, rel=1e-12)
    assert b.at(113) == bounds.corollary1_bound(113) == b.value(113, bounds.MATH)
    # one expression on every backend: numpy and decimal agree with math
    assert float(b.value(np.array([113]), bounds.NUMPY)[0]) == pytest.approx(b.at(113), rel=1e-15)
    assert float(b.value(113, bounds.DECIMAL)) == pytest.approx(b.at(113), rel=1e-15)


def test_epsilon_verdicts():
    e5 = bounds.BOUNDS["epsilon_1_5"]
    assert e5.decide(29, 2) == (True, False)
    assert e5.at(29) == pytest.approx(5.8)
    assert "n > 9" in e5.note
    # below the applicability index the bound does not apply at all
    assert (e5.min_index, e5.first_index) == (9, 10)
    e13 = bounds.BOUNDS["epsilon_1_13"]
    assert e13.first_index == 119 and e13.decide(653, 6)[0]
    assert e13.at(653) == pytest.approx(50.23076923076923, rel=1e-12)
    # exact integer cross-multiplication: a gap exactly at the bound fails
    assert e13.decide(650, 50) == (False, False)  # 50 * 13 == 650 exactly
    assert bounds.BOUNDS["epsilon_1_16597"].first_index == 2010761


def test_is_marginal():
    assert bounds.is_marginal(100.0, 100.0 + 5e-8)
    assert bounds.is_marginal(4.0, 4.0)
    assert not bounds.is_marginal(100.0, 100.1)
    assert not bounds.is_marginal(14.0, 31.15)


@pytest.mark.parametrize("bound", [0.25, 1.0, 31.15, 17680.0, 1.5e7, 3.7e13])
def test_scalar_and_array_marginal_forms_agree_at_the_tolerance(bound):
    # the plain-float rule of one decision and the numpy rule of a block agree
    # at the tolerance, an ulp either side of it, and just inside and outside
    tol = bounds.MARGINAL_RTOL * max(1.0, bound)
    points = []
    for edge in (bound - tol, bound + tol):
        points += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    inside = [bound, bound - 0.999 * tol, bound + 0.999 * tol]
    outside = [bound - 1.001 * tol, bound + 1.001 * tol]
    observed = [float(x) for x in points + inside + outside]
    scalar = [bounds.is_marginal_float(o, bound) for o in observed]
    assert scalar == [bool(bounds.is_marginal(o, bound)) for o in observed]
    assert scalar == bounds.is_marginal(np.array(observed), np.full(len(observed), bound)).tolist()
    assert scalar[-5:] == [True, True, True, False, False]


def test_marginal_recheck_dusart_upper():
    """x = 195998 gives x/(log x - 1.1) = 17679.99999..., within the marginal
    band of 17680; the re-check must reject 17680 as a prime count."""
    import mpmath

    x, k = 195998, 17680
    assert bounds.is_marginal(k, bounds.dusart_upper(x))
    upper = bounds.BOUNDS["dusart_upper"]
    holds, marginal = upper.decide(x, k)
    assert marginal
    assert not holds
    with mpmath.workdps(80):
        expected = mpmath.mpf(k) <= x / (mpmath.log(x) - mpmath.mpf("1.1"))
    assert holds == bool(expected)
    # one count lower clears the bound without needing the re-check
    assert upper.decide(x, k - 1) == (True, False)


def test_marginal_recheck_corollary1():
    """p = 263101 gives a bound of 23118.999994..., marginal against a
    hypothetical gap of 23119, which must not satisfy the strict bound."""
    import mpmath

    p, gap = 263101, 23119
    assert bounds.is_marginal(gap, bounds.corollary1_bound(p))
    holds, marginal = bounds.corollary1_holds(p, gap)
    assert marginal and not holds
    # the re-decision subtracts decimal 1.1; the binary float 1.1 would move
    # the bound by about 2e-13
    with localcontext(Context(prec=50)):
        value = bounds.BOUNDS["corollary1"].value(p, bounds.DECIMAL)
    with mpmath.workdps(50):
        decimal = p / (mpmath.log(p) - mpmath.mpf("1.1"))
        assert abs(mpmath.mpf(str(value)) - decimal) < 1e-40


def test_marginal_recheck_empirical():
    """p = 60017 gives a bound of 5455.000000164..., marginal against a
    hypothetical gap of 5455, which still satisfies the strict bound."""
    p, gap = 60017, 5455
    assert bounds.is_marginal(gap, bounds.empirical_bound(p))
    holds, marginal = bounds.empirical_holds(p, gap)
    assert marginal and holds


def test_gap_bounds_rise_from_the_block_threshold():
    """Every gap bound is nondecreasing in p from GAP_BOUNDS_RISE_FROM on (what
    lets a check decide a block at its first prime), and not from one below."""
    import mpmath

    rise = bounds.GAP_BOUNDS_RISE_FROM
    backend = bounds.Backend(mpmath.log, mpmath.sqrt, mpmath.mpf)
    far = sorted({int(x) for x in np.geomspace(10**4, 2**62, 200)})
    with mpmath.workdps(50):
        for b in bounds.GAP_BOUNDS:
            value = lambda x: b.value(mpmath.mpf(x), backend)
            near = [value(x) for x in range(rise, 10**4 + 2)]
            assert all(a <= c for a, c in zip(near, near[1:])), b.name
            assert all(value(x) <= value(x + 1) for x in far), b.name
    corollary1 = bounds.BOUNDS["corollary1"]
    assert corollary1.at(rise - 1) > corollary1.at(rise) == pytest.approx(8.168, abs=1e-3)


def test_proof_chain_at_first_valid_prime():
    p = 60209  # the first prime above 60184
    pi_p = sieve_pi(p)
    ps = primes_up_to(p + pi_p)
    n_p = int(np.searchsorted(ps, p + pi_p, side="right") - pi_p)
    stages = bounds.proof_chain_check(p, pi_p, n_p)
    assert [s.name for s in stages] == ["S0", "S1", "S2", "S3", "S4"]
    s0, s1, s2, s3, s4 = (s.value for s in stages)
    assert s0 == n_p
    assert s0 > s1 > s2
    assert s2 == pytest.approx(s3, rel=1e-9)
    assert s3 > s4 > 1.0
    assert s4 == pytest.approx(0.9 * p / math.log(p) ** 2, rel=1e-12)


def test_proof_chain_frozen_s4():
    pi_p = sieve_pi(60217)
    ps = primes_up_to(60217 + pi_p)
    n_p = int(np.searchsorted(ps, 60217 + pi_p, side="right") - pi_p)
    stages = bounds.proof_chain_check(60217, pi_p, n_p)
    assert stages[4].value == pytest.approx(447.43040799168506, rel=1e-12)


def test_proof_chain_validation():
    with pytest.raises(ValueError):
        bounds.proof_chain_check(60184, 6075, 300)  # not strictly above the threshold
    with pytest.raises(ValueError, match="inconsistent"):
        bounds.proof_chain_check(70001, 10, 5)
    with pytest.raises(ValueError):
        bounds.proof_chain_check(70001, 6926, -1)


def test_chain_identity_and_negativity_on_grid():
    for x in np.geomspace(60185, 1e9, 200).astype(np.int64):
        x = int(x)
        L = math.log(x)
        s2 = x * (L / ((L - 1.0) ** 2 + 1.0) - 1.0 / (L - 1.1))
        s3 = (0.9 * L - 2.0) * x / (L**3 - 3.1 * L**2 + 4.2 * L - 2.2)
        assert abs(s2 - s3) <= 1e-9 * abs(s3)
        assert bounds.chain_tail_excess(x) < 0


def test_chain_tail_excess_frozen_value():
    assert bounds.chain_tail_excess(60209) == pytest.approx(-7.092439692244238, rel=1e-12)
    with pytest.raises(ValueError):
        bounds.chain_tail_excess(60184)


def test_dusart_verdicts():
    up, low = bounds.BOUNDS["dusart_upper"], bounds.BOUNDS["dusart_lower"]
    assert up.decide(10**6, 78498)[0] and low.decide(10**6, 78498)[0]
    assert up.at(10**6) - 78498 == pytest.approx(78644.1091328147 - 78498, rel=1e-9)
    assert 78498 - low.at(10**6) == pytest.approx(78498 - 78030.44564451973, rel=1e-9)
    # non-strict comparisons: an observation exactly at the bound holds
    assert up.decide(10**6, 78644)[0]
    assert not up.decide(10**6, 78645)[0]
    assert not low.decide(10**6, 78030)[0]
