"""Periodic-solution branches of semi-explicit index-1 DAEs with moving
constraints.

The library splits into a small numerics substrate (:mod:`~daecont.linalg`),
time-dependent matrix paths with executable structure audits
(:mod:`~daecont.paths`), the fixed-frame coordinate change
(:mod:`~daecont.transform`), SVD reduction of separated semi-linear
systems (:mod:`~daecont.semilinear`), Brouwer degree of the branch-seeding
maps (:mod:`~daecont.degree`), half-explicit integration with shooting and
pseudo-arclength continuation (:mod:`~daecont.periodic`), and the problem
file format plus serialization (:mod:`~daecont.probfile`).
"""

from .degree import (
    Box,
    DegreeCertificate,
    candidate_block,
    candidate_map,
    degree_generic,
    degree_reduced,
    seeding_map,
)
from .errors import DaecontError
from .linalg import (
    NewtonConfig,
    newton_solve,
    quadrature_periodic,
    solve_linear,
    svd_small,
)
from .paths import FrameAudit, LemmaReport, MatrixPath, frame_audit, inverse_derivative, lemma_audit
from .periodic import (
    Branch,
    TPair,
    Trajectory,
    branch_seeds,
    consistent_init,
    continue_branch,
    find_tpair,
    integrate,
)
from .probfile import ProblemSpec, build_problem, parse_problem, serialize
from .semilinear import ReductionReport, SemiLinearDae, check_conditions, reduce_semilinear
from .transform import (
    DaeProblem1,
    DaeProblem2,
    TransformedSystem,
    c_frame_drifts,
    fixed_frame,
    fixed_frame_first,
    fixed_frame_second,
)

__version__ = "0.1.0"
