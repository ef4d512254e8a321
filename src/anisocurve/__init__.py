"""One-dimensional anisotropic prescribed-curvature variational problems.

Gauges and Wulff-shape geometry, the discrete graph-area energy with
L^p fidelity, an exact chain sweep (polygon gauges; proximal Newton
steps for p other than 1 and 2) and a banded Newton solver, explicit
regularity thresholds, regularity diagnostics, local-minimizer
classification and vertical rearrangement machinery.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .anisotropy import (
    Anisotropy,
    AnisotropyError,
    BoundaryArc,
    GeometryError,
    SymmetryFlags,
    WulffMeasures,
    anisotropy_from_json,
)
from .classifier import CahnHoffmanResult, EdgeNormals, cahn_hoffman, edge_normals
from .energy import (
    EnergyBreakdown,
    Grid,
    GSpec,
    Profile,
    energy,
    read_profile_csv,
    truncate,
    write_profile_csv,
)
from .geometry import (
    RasterSet,
    column_heights,
    raster_phi_perimeter,
    read_raster,
    vertical_rearrangement,
    write_raster,
)
from .problem import Problem, load_problem, problem_from_json
from .regularity import (
    RefinementStudy,
    RegularityReport,
    TangentBallReport,
    lipschitz_report,
    refinement_study,
    tangent_ball_check,
)
from .solver import (
    SolveReport,
    SolverConfig,
    SolverDivergenceError,
    brute_force_oracle,
    solve,
)
from .threshold import (
    HypothesisViolation,
    LinfCheck,
    ThresholdReport,
    lambda_from_gamma,
    linf_hypothesis_check,
    sigma_threshold,
)

# the public names, without the submodules that importing them binds here
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
