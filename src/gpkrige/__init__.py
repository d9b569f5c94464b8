"""Kriging and Gaussian-process regression with cross-checked solution paths.

The library implements the three classical Kriging variants (Simple, the
general noisy BLUP with a known mean; Ordinary; Universal) and the
Gaussian-process predictive distributions that reproduce them, all through
one batched engine.  The independently computed routes that the engine is
verified against live in :mod:`gpkrige.oracle`, which this package does not
import.
"""

from .exceptions import (
    GpKrigeError,
    InputError,
    NumericalError,
    SingularityError,
    StudyError,
)
from .kernels import (
    Dataset,
    KernelSpec,
    MeanSpec,
    build_gram,
    empirical_semivariogram,
    kernel_matrix,
    model_from_json,
    semivariogram_of,
)
from .kriging import (
    Prediction,
    gls_beta,
    ls_predict,
    ordinary_krige,
    predict_points,
    simple_krige,
    universal_krige,
)
from .gpr import (
    gpr_predict,
    gpr_predict_basis,
)
from .simulate import (
    StudyConfig,
    run_study,
    sample_field,
    study_config_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "GpKrigeError",
    "InputError",
    "NumericalError",
    "SingularityError",
    "StudyError",
    "Dataset",
    "KernelSpec",
    "MeanSpec",
    "build_gram",
    "empirical_semivariogram",
    "kernel_matrix",
    "model_from_json",
    "semivariogram_of",
    "Prediction",
    "gls_beta",
    "ls_predict",
    "ordinary_krige",
    "predict_points",
    "simple_krige",
    "universal_krige",
    "gpr_predict",
    "gpr_predict_basis",
    "StudyConfig",
    "run_study",
    "sample_field",
    "study_config_from_json",
]
