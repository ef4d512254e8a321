"""The regularity dichotomy for a step datum g = +-a on (-1, 1).

Below the smallness threshold sigma the minimizer is a smooth ramp
whose slope stays bounded under mesh refinement; far above it a jump
becomes admissible.  The refinement study measures both: the slope
exponent beta of max |du| / h ~ h^(-beta), and the jump excess, the
energy cost of enlarging the steepest edge by a jump, which tends to 0
when a jump is admissible.  This script runs both sides of the
dichotomy.

    python3 demos/step_datum_regularity.py
"""

import numpy as np

from anisocurve import (
    Anisotropy,
    Grid,
    GSpec,
    Profile,
    lipschitz_report,
    refinement_study,
    sigma_threshold,
    solve,
    tangent_ball_check,
)

EUCLID = Anisotropy.euclidean()


def run(a):
    print(f"\n--- step height a = {a} ---")
    grid = Grid(-1, 1, 1024)
    g = GSpec.step(a).sample(grid)
    rep = solve(EUCLID, grid, g, 1.0)
    lip = lipschitz_report(rep.profile, g)
    print(f"energy {rep.energy.total:.6f} after {rep.iterations} Newton steps")
    print(f"max discrete slope {lip.lipschitz_estimate:.4f}")
    study = refinement_study(EUCLID, Grid(-1, 1, 128), GSpec.step(a), 1.0, levels=4)
    print(f"slope maxima over {study.cells}: "
          + ", ".join(f"{v:.3f}" for v in study.slope_maxima))
    print(f"slope exponent beta = {study.slope_exponent:.3f}")
    print("jump excess: " + ", ".join(f"{e:.2e}" for e in study.jump_excess))
    print(f"classification: {study.classification}")
    return rep


def main():
    thr = sigma_threshold(EUCLID, 1.0, 2.0)
    print(f"sigma = {thr.sigma:.6f}, gamma = {thr.gamma:.6f}, "
          f"regularity class: {thr.regularity_class}")
    ramp = run(0.05)   # below sigma: ramp, bounded slope
    run(2.0)           # far above: jump survives refinement

    print("\n--- tangent balls of radius 0.25 ---")
    ball = tangent_ball_check(EUCLID, ramp.profile, 0.25)
    print(f"ramp solution: above {ball.fraction_verified_above:.3f}, "
          f"below {ball.fraction_verified_below:.3f}")
    grid = Grid(-1, 1, 1024)
    step = Profile(grid, np.where(grid.nodes() > 0, 1.0, -1.0))
    ball = tangent_ball_check(EUCLID, step, 0.25)
    print(f"ideal step: above {ball.fraction_verified_above:.3f}, "
          f"below {ball.fraction_verified_below:.3f} "
          f"(a ball cannot reach the jump wall)")


if __name__ == "__main__":
    main()
