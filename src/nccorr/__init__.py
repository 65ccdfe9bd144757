"""Measures of nonclassical correlation on multipartite density matrices."""

from .core import (
    BadSubsystemIndex,
    DensityMatrix,
    DimensionMismatch,
    NccorrError,
    NoConvergence,
    NonHermitian,
    NotAProbabilityVector,
    ParamOutOfRange,
    ParseError,
    PartitionCapExceeded,
    ProductBasis,
    ValidationFailure,
)
from .qmat import (
    diag_probs,
    density_spectrum,
    herm_eig,
    partial_trace,
    partial_transpose,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)
from .states import (
    ValidationReport,
    load_state,
    make_classically_correlated,
    make_horodecki,
    make_pseudo_entangled,
    make_sigma,
    product_eigenbasis,
    random_density_matrix,
    store_state,
    tensor_state,
    validate,
)
from .search import (
    SearchConfig,
    computational_basis,
    haar_random_product_basis,
    marginal_eigenbasis,
    min_diag_entropy,
)
from .measures import (
    MeasureReport,
    Partition,
    measure_D,
    measure_DG,
    measure_G,
    measure_K,
    negativity,
)
from .sweep import SweepSpec, run_sweep, sweep_rows

__version__ = "0.1.0"
