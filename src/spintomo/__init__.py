"""Spin tomographic probability representation for 4x4 states.

The same density matrix can be read as a two-qubit state or as a single
spin-3/2 state; this package evaluates both spin tomograms, reconstructs
states from them, converts one tomogram into the other through intertwining
kernels, and analyses correlations (CHSH bounds, a steering inequality) in
tomographic form, with the Werner family as the worked validation case.

``import spintomo`` loads no layer module: each exported name, and each
layer (``spintomo.frames`` and so on), is imported on first access (PEP 562),
so a program pays at start-up only for the layers it uses.
"""

#: the exported names of each layer module
_EXPORTS = {
    "matcore": ("BASIS_QUDIT", "BASIS_TWO_QUBIT", "DensityMatrix", "ValidationReport", "kron",
                "random_density", "validate_density", "werner", "werner_matrix"),
    "su2": ("EulerAngles", "PHASE_CONVENTION", "as_direction", "jacobi_poly", "qubit_rotation",
            "wigner_D", "wigner_d", "wigner_d_matrix"),
    "frames": ("FramePoint2Q", "FramePointQudit", "QuadratureGrid", "TomogramTable",
               "dequantizer_2q", "dequantizer_qudit", "dual_symbol", "make_grid", "quantizer_2q",
               "quantizer_qudit", "quantizer_qudit_explicit", "qudit_quantizer_authority",
               "reconstruct_state", "symbol", "tomogram", "tomogram_table"),
    "kernel": ("KernelPoint", "closed_kernel_report", "dual_kernels", "kernel_pair_to_qudit",
               "kernel_qudit_to_pair", "kernel_qudit_to_pair_closed", "map_qudit_to_two_qubit",
               "map_two_qubit_to_qudit"),
    "steering": ("ChshResult", "SteeringReport", "WernerReport", "chsh_max", "chsh_value",
                 "correlation_direct", "correlation_tensor", "correlation_tomographic_qudit",
                 "correlation_tomographic_two_qubit", "max_correlation", "product_observable",
                 "steering_check", "werner_report"),
    "selftest": ("run_selftest",),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
_MODULES = (*_EXPORTS, "cli")

# `from spintomo import *` gives the exported names and the library layers
__all__ = [*_LAYER_OF, *_EXPORTS]

__version__ = "0.1.0"


def _layer(name):
    # __import__, not importlib.import_module: `python -X importtime` reports
    # only this path; the import binds the submodule on the package
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _MODULES:
        return _layer(name)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_layer(_LAYER_OF[name]), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_LAYER_OF, *_MODULES})
