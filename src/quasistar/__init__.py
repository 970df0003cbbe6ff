"""Threshold-graph spectral extremal toolkit.

Constructs the quasi-star and related threshold families, computes the
spectral radius of alpha*D + (1-alpha)*A with certified residuals, applies
radius-increasing edge rewirings, and verifies extremal characterizations by
exhaustive search at desk scale.

Importing the package runs BLAS on one thread unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set: its solves are too small
for a BLAS thread pool to help (numpy imported earlier keeps its pool).  The
import ends with ``gc.freeze()``, so exit skips tearing down the ~21k objects
numpy and the rest made (about 6 ms, not 19-28 ms); ``gc.unfreeze()`` undoes it.
"""

import gc as _gc
import os as _os

# OpenBLAS reads its thread count once, when numpy first loads it, so this
# must run before any import below pulls numpy in.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .graphs import (
    DOMINATING,
    ISOLATED,
    LabeledGraph,
    NotThresholdError,
    ThresholdGraph,
    from_degree_sequence,
    l_graph,
    quasi_star,
    threshold_from_labeled,
    tilde_s,
    to_labeled,
)
from .search import (
    FamilySpec,
    VerificationReport,
    argmax_rho,
    enumerate_all,
    enumerate_threshold,
    predicted_maximizers,
    verify,
)
from .spectra import (
    NonConvergenceError,
    Spectrum,
    alpha_matrix,
    as_alpha,
    spectral_radius,
)
from .transforms import (
    InvalidTransformError,
    MonotonicityCertificate,
    TransformSpec,
    apply_transform,
    candidate_specs,
    certify,
    validate,
)

__version__ = "0.1.0"
_gc.freeze()  # last, once numpy and every submodule are imported: see above
