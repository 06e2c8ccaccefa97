"""spdelab: a desk-scale laboratory for gradient-flow SPDEs.

Grids with L2 / H1 / discrete H^-1 geometries, convex potentials with
certified proximal maps, Moreau-Yosida regularization of singular power
nonlinearities, rescaled nonlocal interaction kernels, a seeded
Monte-Carlo time-stepping engine whose seed fixes the common noise, resolvent
convergence probes and variational-inequality audits, all wired into a
config-driven experiment CLI.
"""

from .grids import (
    DIRICHLET,
    H1,
    HMINUS1,
    L2,
    NEUMANN,
    Grid,
    GridFunction,
    box_grid,
    inner,
    interval_grid,
    norm,
)
from .kernels import Kernel, RescaledKernel, c_jp, k_pd, nonlocal_energy
from .profiles import PowerProfile, YosidaPowerProfile
from .potentials import (
    FastDiffusionPotential,
    GradientPotential,
    NonlocalPotential,
    ProxDidNotConverge,
    ProxResult,
    fast_diffusion,
    nonlocal_p,
    p_dirichlet,
)
from .engine import (
    AdditiveNoise,
    LinearMultiplicativeNoise,
    NemytskiiNoise,
    SchemeParams,
    TrajectoryEnsemble,
    simulate,
)
from .mosco import MoscoReport, condition_n_check, mosco_trend, resolvent_table
from .svi import (
    SVIReport,
    SolutionTestProcess,
    TestProcess,
    audit,
    default_constant,
    weak_convergence_metric,
)

__version__ = "0.1.0"
