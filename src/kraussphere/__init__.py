"""Hyperspherical Kraus-operator parameterization of CPTP channels and
gradient-based learning of quasi-inverse channels.

Importing the package before numpy sets ``OPENBLAS_NUM_THREADS=1``
unless one of :data:`BLAS_THREAD_VARIABLES` has a non-empty value:
every product the package makes is small, so a second OpenBLAS thread
only spins, burning CPU time without shortening the wall time.  Set any
of those variables, or import numpy first, to keep OpenBLAS's own
choice.
"""

import os
import sys

# OpenBLAS reads its own variable, else OMP_NUM_THREADS, when numpy loads.
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" not in sys.modules and not any(map(os.environ.get, BLAS_THREAD_VARIABLES)):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .channels import (
    ChannelSpec,
    apply_channel,
    depolarizing_channel,
    flip_channel,
    tensor_flip_channel,
)
from .geometry import (
    KrausFrame,
    KrausSet,
    completeness_gram,
    frame_to_kraus,
    identity_frame,
    kraus_to_frame,
    symplectic_form,
)
from .linalg import uhlmann_fidelity
from .optimizer import (
    LossContext,
    OptimizerConfig,
    QuasiInverseResult,
    TrainingRecord,
    dominant_kraus_report,
    learn_quasi_inverse,
)
from .sampling import (
    SampleConfig,
    sample_bloch_ball,
    sample_bures,
    sample_hilbert_schmidt,
)
from .transforms import (
    GeneratorBasis,
    angle_count,
    apply_angles,
    channel_from_angles,
    finite_transform,
    generator_basis,
)

__all__ = [
    "ChannelSpec",
    "GeneratorBasis",
    "KrausFrame",
    "KrausSet",
    "LossContext",
    "OptimizerConfig",
    "QuasiInverseResult",
    "SampleConfig",
    "TrainingRecord",
    "angle_count",
    "apply_angles",
    "apply_channel",
    "channel_from_angles",
    "completeness_gram",
    "depolarizing_channel",
    "dominant_kraus_report",
    "finite_transform",
    "flip_channel",
    "frame_to_kraus",
    "generator_basis",
    "identity_frame",
    "kraus_to_frame",
    "learn_quasi_inverse",
    "sample_bloch_ball",
    "sample_bures",
    "sample_hilbert_schmidt",
    "symplectic_form",
    "tensor_flip_channel",
    "uhlmann_fidelity",
]

__version__ = "0.1.0"
