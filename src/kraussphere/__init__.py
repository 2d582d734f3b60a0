"""Hyperspherical Kraus-operator parameterization of CPTP channels and
gradient-based learning of quasi-inverse channels."""

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
from .linalg import (
    hermitian_eig,
    matrix_exp_series,
    psd_sqrt,
    uhlmann_fidelity,
)
from .optimizer import (
    LossContext,
    OptimizerConfig,
    QuasiInverseResult,
    TrainingRecord,
    average_fidelity,
    central_difference,
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
    Generator,
    angle_count,
    apply_angles,
    channel_from_angles,
    finite_transform,
    generator_basis,
)

__all__ = [
    "ChannelSpec",
    "Generator",
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
    "average_fidelity",
    "central_difference",
    "channel_from_angles",
    "completeness_gram",
    "depolarizing_channel",
    "dominant_kraus_report",
    "finite_transform",
    "flip_channel",
    "frame_to_kraus",
    "generator_basis",
    "hermitian_eig",
    "identity_frame",
    "kraus_to_frame",
    "learn_quasi_inverse",
    "matrix_exp_series",
    "psd_sqrt",
    "sample_bloch_ball",
    "sample_bures",
    "sample_hilbert_schmidt",
    "symplectic_form",
    "tensor_flip_channel",
    "uhlmann_fidelity",
]

__version__ = "0.1.0"
