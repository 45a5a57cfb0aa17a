"""Spin tomographic probability representation for 4x4 states.

The same density matrix can be read as a two-qubit state or as a single
spin-3/2 state; this package evaluates both spin tomograms, reconstructs
states from them, converts one tomogram into the other through intertwining
kernels, and analyses correlations (CHSH bounds, a steering inequality) in
tomographic form, with the Werner family as the worked validation case.
"""

from .matcore import (
    BASIS_QUDIT,
    BASIS_TWO_QUBIT,
    DensityMatrix,
    ValidationReport,
    kron,
    random_density,
    validate_density,
    werner,
    werner_matrix,
)
from .su2 import (
    EulerAngles,
    PHASE_CONVENTION,
    as_direction,
    jacobi_poly,
    qubit_rotation,
    wigner_D,
    wigner_d,
    wigner_d_matrix,
)
from .frames import (
    FramePoint2Q,
    FramePointQudit,
    QuadratureGrid,
    TomogramTable,
    dequantizer_2q,
    dequantizer_qudit,
    dual_symbol,
    make_grid,
    quantizer_2q,
    quantizer_qudit,
    quantizer_qudit_explicit,
    qudit_quantizer_authority,
    reconstruct_state,
    symbol,
    tomogram,
    tomogram_table,
)
from .kernel import (
    KernelPoint,
    closed_kernel_report,
    dual_kernels,
    kernel_pair_to_qudit,
    kernel_qudit_to_pair,
    kernel_qudit_to_pair_closed,
    map_qudit_to_two_qubit,
    map_two_qubit_to_qudit,
)
from .steering import (
    ChshResult,
    SteeringReport,
    WernerReport,
    chsh_max,
    chsh_value,
    correlation_direct,
    correlation_tensor,
    correlation_tomographic_qudit,
    correlation_tomographic_two_qubit,
    max_correlation,
    product_observable,
    steering_check,
    werner_report,
)
from .selftest import run_selftest

__version__ = "0.1.0"
