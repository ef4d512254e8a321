"""Explicit smallness thresholds for the regularity of minimizers.

The central quantity is

    sigma = ( (1 / (4^(p-1) p)) * min{ alpha0 phi(e1) / 4,
                                       alpha0 / (2 phi(e2)),
                                       |I| phi(e1) / (4 phi(e2)) } )^(1/p)

together with gamma = 3 sigma and Lambda = p (4 sigma)^(p-1): if the
datum satisfies ||g||_inf < sigma, minimizers are Lipschitz (C^{1,1}
for elliptic smooth gauges without vertical facets).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .anisotropy import Anisotropy, SymmetryFlags, positive_number
from .energy import check_fidelity_exponent

__all__ = [
    "ThresholdReport",
    "LinfCheck",
    "HypothesisViolation",
    "sigma_threshold",
    "lambda_from_gamma",
    "linf_hypothesis_check",
]

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class HypothesisViolation(ValueError):
    """A theorem hypothesis (e.g. gamma > 2 ||g||_inf) does not hold."""


@dataclass(frozen=True)
class ThresholdReport:
    alpha0: float
    c_phi: float
    sigma: float
    gamma: float
    lam: float
    phi_e1: float
    phi_e2: float
    hypotheses: SymmetryFlags
    regularity_class: str  # "lipschitz" | "c11" | "not_applicable"
    p: float
    interval_length: float

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["lambda"] = payload.pop("lam")
        return payload


@dataclass(frozen=True)
class LinfCheck:
    satisfied: bool
    bound: float
    contact_radius_cap: float
    gamma_lower_bound: float


def _classify(flags: SymmetryFlags) -> str:
    if flags.partially_monotone and not flags.vertical_facets:
        return "c11" if flags.elliptic else "lipschitz"
    return "not_applicable"


def _smallness(aniso: Anisotropy, interval_length: float):
    """The Wulff measures, phi(e1), phi(e2) and the least of the three branches
    alpha0 phi(e1) / 4, alpha0 / (2 phi(e2)) and |I| phi(e1) / (4 phi(e2))."""
    positive_number(interval_length, "interval length")
    measures = aniso.wulff_measures()
    phi_e1 = aniso.eval(E1)
    phi_e2 = aniso.eval(E2)
    alpha0 = measures.alpha0
    branch = min(
        alpha0 * phi_e1 / 4.0,
        alpha0 / (2.0 * phi_e2),
        interval_length * phi_e1 / (4.0 * phi_e2),
    )
    return measures, phi_e1, phi_e2, branch


def sigma_threshold(aniso: Anisotropy, p: float, interval_length: float) -> ThresholdReport:
    """Threshold report for a gauge, fidelity exponent and interval length.

    sigma is computed even when the hypothesis flags fail; the
    regularity_class field then reads "not_applicable".
    """
    check_fidelity_exponent(p)
    measures, phi_e1, phi_e2, branch = _smallness(aniso, interval_length)
    # the p-th root taken before the power of 4, which would overflow above p = 513
    sigma = (branch / p) ** (1.0 / p) / 4.0 ** ((p - 1.0) / p)
    gamma = 3.0 * sigma
    lam = p * (4.0 * sigma) ** (p - 1.0)
    flags = aniso.symmetry_flags()
    return ThresholdReport(
        alpha0=measures.alpha0,
        c_phi=measures.c_phi,
        sigma=sigma,
        gamma=gamma,
        lam=lam,
        phi_e1=phi_e1,
        phi_e2=phi_e2,
        hypotheses=flags,
        regularity_class=_classify(flags),
        p=p,
        interval_length=interval_length,
    )


def lambda_from_gamma(p: float, gamma: float, g_inf: float) -> float:
    """Volume-term constant p (gamma + ||g||_inf)^(p-1); needs gamma > 2 ||g||_inf."""
    check_fidelity_exponent(p)
    if g_inf < 0:
        raise ValueError("||g||_inf must be nonnegative")
    if gamma <= 2.0 * g_inf:
        raise HypothesisViolation("requires gamma > 2 ||g||_inf")
    return p * (gamma + g_inf) ** (p - 1.0)


def linf_hypothesis_check(
    aniso: Anisotropy,
    lam: float,
    interval_length: float,
    u_inf: float,
) -> LinfCheck:
    """Strict L-infinity smallness bound under which jumps are excluded.

    Also exposes the uniform contact-ball radius cap alpha0 / Lambda and
    the strip half-height lower bound alpha0 phi(e1) / (2 Lambda).
    """
    positive_number(lam, "lambda")
    measures, phi_e1, _, branch = _smallness(aniso, interval_length)
    bound = branch / lam
    return LinfCheck(
        satisfied=bool(u_inf < bound),
        bound=bound,
        contact_radius_cap=measures.alpha0 / lam,
        gamma_lower_bound=measures.alpha0 * phi_e1 / (2.0 * lam),
    )
