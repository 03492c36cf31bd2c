"""Column-sampled Nystrom extension of PSD matrices, with the error
analysis that says when uniform sampling is enough (README.md).
"""

from types import ModuleType as _ModuleType

from .matcore import (
    NotPSDError,
    SpectralPartition,
    SymMatrix,
    partition,
)
from .sampling import (
    ColumnSample,
    RngSeed,
    rng_from,
    sample_uniform,
)
from .nystrom import NystromResult, nystrom_extend, sqrt_projection_error
from .analysis import (
    BoundInapplicableError,
    BoundReport,
    bound_report,
    chernoff_tail,
    coherence,
    deterministic_bound,
    full_rank_tolerance,
    min_eig_gram,
    probabilistic_bound,
    required_samples,
)
from .generators import (
    CoherencePlan,
    FlatMatrix,
    SpectrumSpec,
    flat_orthonormal,
    planted_instance,
    random_orthonormal,
)
from .matfile import MatrixFileError, load_matrix, save_matrix
from .experiment import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    chernoff_sweep,
    config_from_mapping,
    emit_results,
    run_experiment,
)

__version__ = "0.1.0"

# Every public name imported above; submodules bound by those imports are not
# part of the interface.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
