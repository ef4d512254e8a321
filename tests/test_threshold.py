"""Smallness thresholds sigma, gamma, Lambda and the L-infinity checks."""

import math

import numpy as np
import pytest

from anisocurve import (
    Anisotropy,
    HypothesisViolation,
    lambda_from_gamma,
    linf_hypothesis_check,
    sigma_threshold,
)

EUCLID = Anisotropy.euclidean()
SQUARE = Anisotropy.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])


def test_sigma_euclid_p1_exact_identity():
    rep = sigma_threshold(EUCLID, 1.0, 2.0)
    assert rep.sigma == 0.25 * min(rep.alpha0, 2.0)
    assert rep.sigma == pytest.approx(0.06533, abs=1e-4)
    assert rep.gamma == 3.0 * rep.sigma
    assert rep.lam == 1.0  # p = 1 makes the exponent vanish
    assert rep.regularity_class == "c11"


def test_sigma_small_interval_branch():
    rep = sigma_threshold(EUCLID, 1.0, 0.1)
    assert rep.sigma == pytest.approx(0.025, abs=1e-12)


def test_sigma_euclid_p2():
    rep = sigma_threshold(EUCLID, 2.0, 2.0)
    assert rep.sigma == pytest.approx(math.sqrt(rep.alpha0 / 32.0), rel=1e-12)


@pytest.mark.parametrize("p", [600.0, 1e6])
def test_sigma_at_a_large_exponent_is_finite_and_below_a_quarter(p):
    # 4^(p-1) alone overflows a float above p = 513
    rep = sigma_threshold(EUCLID, p, 2.0)
    assert 0.0 < rep.sigma < 0.25
    assert math.isfinite(rep.gamma) and math.isfinite(rep.lam)


@pytest.mark.parametrize("aniso", [EUCLID, SQUARE, Anisotropy.ellipse(2.0, 0.5)],
                         ids=["euclidean", "square", "ellipse"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_sigma_matches_the_direct_formula(aniso, p):
    rep = sigma_threshold(aniso, p, 2.0)
    branch = min(rep.alpha0 * rep.phi_e1 / 4.0, rep.alpha0 / (2.0 * rep.phi_e2),
                 2.0 * rep.phi_e1 / (4.0 * rep.phi_e2))
    assert rep.sigma == pytest.approx((branch / (4.0 ** (p - 1.0) * p)) ** (1.0 / p), rel=1e-14)


def test_sigma_square_not_applicable():
    rep = sigma_threshold(SQUARE, 1.0, 2.0)
    assert rep.hypotheses.vertical_facets
    assert rep.regularity_class == "not_applicable"
    assert rep.sigma > 0.0


def test_sigma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sigma_threshold(EUCLID, 0.5, 2.0)
    with pytest.raises(ValueError):
        sigma_threshold(EUCLID, 1.0, 0.0)


def test_sigma_branch_monotonicity():
    # nondecreasing in |I|, constant once the interval branch is inactive
    reps = [sigma_threshold(EUCLID, 1.0, L).sigma for L in (0.05, 0.1, 0.2, 1.0, 2.0, 5.0)]
    assert all(b >= a - 1e-15 for a, b in zip(reps, reps[1:]))
    assert reps[-1] == reps[-2]  # alpha0 < 1 so the |I| branch is inactive there
    # sigma^p (the quantity the min controls) is nonincreasing in p
    sig_p = [sigma_threshold(EUCLID, p, 2.0).sigma ** p for p in (1.0, 1.5, 2.0, 3.0)]
    assert all(b <= a + 1e-15 for a, b in zip(sig_p, sig_p[1:]))


def test_threshold_report_json_uses_lambda_key():
    payload = sigma_threshold(EUCLID, 2.0, 2.0).to_json()
    assert "lambda" in payload
    assert payload["regularity_class"] == "c11"


# -- lambda_from_gamma ---------------------------------------------------


def test_lambda_p1_is_one():
    assert lambda_from_gamma(1.0, 5.0, 2.0) == 1.0


def test_lambda_p2_example():
    assert lambda_from_gamma(2.0, 3.0, 1.0) == pytest.approx(8.0)


def test_lambda_hypothesis_violation():
    with pytest.raises(HypothesisViolation):
        lambda_from_gamma(2.0, 1.0, 1.0)


def test_lambda_needs_a_nonnegative_sup_norm():
    with pytest.raises(ValueError, match="must be nonnegative"):
        lambda_from_gamma(2.0, 3.0, -0.5)


@pytest.mark.parametrize("length", [math.nan, math.inf, -1.0, 0.0, None])
def test_threshold_and_linf_check_need_a_finite_positive_length(length):
    with pytest.raises(ValueError):
        sigma_threshold(EUCLID, 1.0, length)
    with pytest.raises(ValueError):
        linf_hypothesis_check(EUCLID, 1.0, length, 0.0)


# -- linf_hypothesis_check -----------------------------------------------


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_linf_check_needs_a_finite_positive_lambda(lam):
    with pytest.raises(ValueError, match="^lambda must be"):
        linf_hypothesis_check(EUCLID, lam, 2.0, 0.0)


def test_linf_zero_profile_satisfied():
    chk = linf_hypothesis_check(EUCLID, 1.0, 2.0, 0.0)
    assert chk.satisfied
    assert chk.bound > 0.0


def test_linf_bound_value_and_strictness():
    rep = sigma_threshold(EUCLID, 1.0, 2.0)
    chk = linf_hypothesis_check(EUCLID, 1.0, 2.0, 0.0)
    assert chk.bound == pytest.approx(rep.alpha0 / 4.0, rel=1e-12)
    boundary = linf_hypothesis_check(EUCLID, 1.0, 2.0, chk.bound)
    assert not boundary.satisfied
    assert chk.contact_radius_cap == pytest.approx(rep.alpha0, rel=1e-12)
    assert chk.gamma_lower_bound == pytest.approx(rep.alpha0 / 2.0, rel=1e-12)


# -- theorem wiring -------------------------------------------------------


def _moderate_random_aniso(rng, k):
    """Families with phi(e1)*phi(e2) < 3, where the gamma chain is provable."""
    r = k % 3
    if r == 0:
        return Anisotropy.ellipse(float(rng.uniform(0.8, 1.5)), float(rng.uniform(0.8, 1.5)))
    if r == 1:
        return Anisotropy.lp(float(rng.uniform(1.0, 8.0)))
    m = int(rng.integers(3, 8))
    ang = np.sort(rng.uniform(0.0, math.pi, m))
    rad = rng.uniform(0.7, 1.4, m)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    pts = np.vstack([pts, -pts])

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    pool = sorted(set(map(tuple, np.round(pts, 12))))
    lower, upper = [], []
    for pt in pool:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    for pt in reversed(pool):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return Anisotropy.polygon(lower[:-1] + upper[:-1])


def test_theorem_wiring_chain():
    rng = np.random.default_rng(21)
    for k in range(100):
        aniso = _moderate_random_aniso(rng, k)
        p = float(rng.uniform(1.0, 3.0))
        rep = sigma_threshold(aniso, p, 2.0)
        assert rep.phi_e1 * rep.phi_e2 < 3.0  # generator contract
        # gamma = 3 sigma clears the contact lower bound with Lambda = p(4 sigma)^(p-1)
        assert rep.gamma > rep.alpha0 * rep.phi_e1 / (2.0 * rep.lam)
        # the L-infinity bound collapses to sigma exactly, so any g below
        # sigma satisfies the hypothesis
        chk = linf_hypothesis_check(aniso, rep.lam, 2.0, 0.999 * rep.sigma)
        assert chk.bound == pytest.approx(rep.sigma, rel=1e-12)
        assert chk.satisfied


def test_gamma_chain_counterexample_outside_regime():
    # with phi(e1)*phi(e2) >= 3 the second sigma branch breaks the chain;
    # this documents that the wiring is not universal
    skew = Anisotropy.ellipse(0.3, 0.3)  # phi(e1) = phi(e2) = 1/0.3
    rep = sigma_threshold(skew, 1.5, 50.0)
    assert rep.phi_e1 * rep.phi_e2 > 3.0
    assert not rep.gamma > rep.alpha0 * rep.phi_e1 / (2.0 * rep.lam)
