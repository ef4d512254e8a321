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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anisotropy import Anisotropy, SymmetryFlags
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
        return {
            "alpha0": self.alpha0,
            "c_phi": self.c_phi,
            "sigma": self.sigma,
            "gamma": self.gamma,
            "lambda": self.lam,
            "phi_e1": self.phi_e1,
            "phi_e2": self.phi_e2,
            "hypotheses": {
                "partially_monotone": self.hypotheses.partially_monotone,
                "vertical_facets": self.hypotheses.vertical_facets,
                "elliptic": self.hypotheses.elliptic,
            },
            "regularity_class": self.regularity_class,
            "p": self.p,
            "interval_length": self.interval_length,
        }


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


def sigma_threshold(
    aniso: Anisotropy,
    p: float,
    interval_length: float,
    measure_samples: Optional[int] = None,
) -> ThresholdReport:
    """Threshold report for a gauge, fidelity exponent and interval length.

    sigma is computed even when the hypothesis flags fail; the
    regularity_class field then reads "not_applicable".
    """
    check_fidelity_exponent(p)
    if interval_length <= 0:
        raise ValueError("interval length must be positive")
    measures = aniso.wulff_measures(measure_samples)
    phi_e1 = aniso.eval(E1)
    phi_e2 = aniso.eval(E2)
    alpha0 = measures.alpha0
    branch = min(
        alpha0 * phi_e1 / 4.0,
        alpha0 / (2.0 * phi_e2),
        interval_length * phi_e1 / (4.0 * phi_e2),
    )
    base = branch / (4.0 ** (p - 1.0) * p)
    sigma = base if p == 1.0 else base ** (1.0 / p)
    gamma = 3.0 * sigma
    lam = p * (4.0 * sigma) ** (p - 1.0)
    flags = aniso.symmetry_flags()
    return ThresholdReport(
        alpha0=alpha0,
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
    measure_samples: Optional[int] = None,
) -> LinfCheck:
    """Strict L-infinity smallness bound under which jumps are excluded.

    Also exposes the uniform contact-ball radius cap alpha0 / Lambda and
    the strip half-height lower bound alpha0 phi(e1) / (2 Lambda).
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    measures = aniso.wulff_measures(measure_samples)
    phi_e1 = aniso.eval(E1)
    phi_e2 = aniso.eval(E2)
    alpha0 = measures.alpha0
    bound = min(
        alpha0 * phi_e1 / (4.0 * lam),
        alpha0 / (2.0 * lam * phi_e2),
        interval_length * phi_e1 / (4.0 * lam * phi_e2),
    )
    return LinfCheck(
        satisfied=bool(u_inf < bound),
        bound=bound,
        contact_radius_cap=alpha0 / lam,
        gamma_lower_bound=alpha0 * phi_e1 / (2.0 * lam),
    )
