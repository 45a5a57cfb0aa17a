"""Reference paths the package's frame, correlation and d^j code is checked against.

The per-node paths visit the frame points one at a time, through the public
per-point operators (``tomogram``, the quantizers), so they share no
arithmetic with the grid primitives in :mod:`spintomo.frames`. The rest are
the definitions the package's closed paths stand for and no longer call: the
frame pairing and the adjoint closure, the spin observables whose pairings
the correlation forms are, the forms' tensors, the paper's qubit axis
operator, the Pauli combination k . sigma, the dual-symbol kernels and the
Jacobi polynomial.
"""

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from spintomo import frames, steering
from spintomo.frames import (
    QUDIT_PROJECTIONS,
    TWO_QUBIT_PROJECTIONS,
    FramePoint2Q,
    FramePointQudit,
    QuadratureGrid,
    tomogram,
)
from spintomo.matcore import (BASIS_QUDIT, BASIS_TWO_QUBIT, IDENTITY_2, PAULI_X, PAULI_Y,
                              PAULI_Z, _kron)
from spintomo.paper_forms import KernelPoint, kernel_pair_to_qudit, kernel_qudit_to_pair
from spintomo.su2 import EulerAngles, as_direction


def sphere_points(grid):
    """(angles, weight) of every node of one sphere, azimuth-major."""
    return [(EulerAngles(a, b), w)
            for a, b, w in zip(grid.sphere_alpha(), grid.sphere_beta(), grid.sphere_weights())]


def tomogram_evaluator(state, representation):
    """Callable tomogram of a fixed state: ``f(m, angles)`` for the qudit
    picture, ``f(m1, m2, angles1, angles2)`` for the two-qubit picture."""
    if representation == BASIS_QUDIT:
        return lambda m, n: tomogram(state, FramePointQudit(m, n))
    if representation == BASIS_TWO_QUBIT:
        return lambda m1, m2, n1, n2: tomogram(state, FramePoint2Q(m1, m2, n1, n2))
    raise ValueError(f"unknown representation {representation!r}")


def node_values(tomogram_fn, representation, grid):
    """Values of a tomogram callable at every frame point, in the layout the
    evaluator maps take: (projection, node) for the qudit picture and
    (m1, node1, m2, node2) for the two-qubit picture."""
    nodes = [angles for angles, _ in sphere_points(grid)]
    if representation == BASIS_QUDIT:
        return np.array([[tomogram_fn(m, n) for n in nodes] for m in QUDIT_PROJECTIONS])
    return np.array([[[[tomogram_fn(m1, m2, n1, n2) for n2 in nodes]
                       for m2 in TWO_QUBIT_PROJECTIONS]
                      for n1 in nodes]
                     for m1 in TWO_QUBIT_PROJECTIONS])


def reconstruct(tomogram_fn, quantizer_fn, grid, representation):
    """Weighted sum of tomogram values against a quantizer family, one frame
    point at a time in a fixed order; returned unvalidated."""
    frames._frame(representation, grid)  # the check every grid operation passes
    points = sphere_points(grid)
    total = np.zeros((4, 4), dtype=complex)
    if representation == BASIS_QUDIT:
        for m in QUDIT_PROJECTIONS:
            for angles, w in points:
                total += w * tomogram_fn(m, angles) * quantizer_fn(FramePointQudit(m, angles))
        return total
    for m1 in TWO_QUBIT_PROJECTIONS:
        for m2 in TWO_QUBIT_PROJECTIONS:
            for n1, w1 in points:
                for n2, w2 in points:
                    point = FramePoint2Q(m1, m2, n1, n2)
                    total += w1 * w2 * tomogram_fn(m1, m2, n1, n2) * quantizer_fn(point)
    return total


# --------------------------------------------------------------------------
# the frame pairing and the closures

def closure(op: np.ndarray, representation: str, grid: QuadratureGrid) -> np.ndarray:
    """The round trip of op through the picture's grid, vec(op) G."""
    return frames._frame(representation, grid).closure(op)


def closure_adjoint(op: np.ndarray, representation: str, grid: QuadratureGrid) -> np.ndarray:
    """The operator Y with Tr(op closure(B)) = Tr(B Y) for every B: G vec(op^T),
    reshaped and transposed."""
    frame = frames._frame(representation, grid)
    return np.dot(frame.gram, op.T.reshape(-1)).reshape(op.shape).T


def frame_pairing(symbol_op, dual_op, representation: str, grid: QuadratureGrid) -> complex:
    # sum_x w symbol(A)(x) Tr(B D(x)) = Tr(B * synthesis of the symbols of A)
    rec = closure(np.asarray(symbol_op, dtype=complex), representation, grid)
    return complex(np.trace(np.asarray(dual_op, dtype=complex) @ rec))


def frame_pairing_two_qubit(symbol_op, dual_op, grid: QuadratureGrid) -> complex:
    """sum over points of symbol(symbol_op) * dual_symbol(dual_op), 2q frame."""
    return frame_pairing(symbol_op, dual_op, BASIS_TWO_QUBIT, grid)


def frame_pairing_qudit(symbol_op, dual_op, grid: QuadratureGrid) -> complex:
    """Same pairing in the spin-3/2 frame."""
    return frame_pairing(symbol_op, dual_op, BASIS_QUDIT, grid)


def qubit_axis_operator(phi: float, theta: float) -> np.ndarray:
    """F(phi, theta) = k . sigma along k = (-sin(theta) cos(phi),
    sin(theta) sin(phi), cos(theta)).

    Hermitian, traceless, F^2 = I, so (1/2) I + m F is a rank-1 projector
    for m = +-1/2. This is the paper's form of the qubit frame; the package
    builds the frame by the spin-j construction, which agrees with it.
    """
    st, ct = sin(theta), cos(theta)
    e = np.exp(1j * phi)
    return np.array([[ct, -e * st], [-st / e, -ct]])


# --------------------------------------------------------------------------
# spin observables and the correlation forms' tensors

def pauli_dot(k) -> np.ndarray:
    """k . sigma for a real 3-vector k (no unit-norm requirement here)."""
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise ValueError("expected a 3-vector")
    return k[0] * PAULI_X + k[1] * PAULI_Y + k[2] * PAULI_Z


@dataclass(frozen=True)
class ObservableTriple:
    """Commuting pair of single-side spin observables and their product."""

    first: np.ndarray
    second: np.ndarray
    product: np.ndarray


def observable_first(k1) -> np.ndarray:
    """Spin of the first side along k1: (k1 . sigma) (x) I."""
    return _kron(pauli_dot(as_direction(k1)), IDENTITY_2)


def observable_second(k2) -> np.ndarray:
    """Spin of the second side along k2: I (x) (k2 . sigma)."""
    return _kron(IDENTITY_2, pauli_dot(as_direction(k2)))


def product_observable(k1, k2) -> ObservableTriple:
    """The product observable (k1 . sigma) (x) (k2 . sigma).

    Squares to the identity for unit directions, so its eigenvalues are
    +-1 (each twice) and |E| <= 1 for any state.
    """
    a, b = pauli_dot(as_direction(k1)), pauli_dot(as_direction(k2))
    return ObservableTriple(first=_kron(a, IDENTITY_2), second=_kron(IDENTITY_2, b),
                            product=_kron(a, b))


def form_tensors(rho: np.ndarray, forms: tuple, grid_pair: QuadratureGrid | None = None,
                 grid_single: QuadratureGrid | None = None) -> np.ndarray:
    """The complex tensors of the correlation forms as a (len(forms), 3, 3)
    stack, from the cells the package reads."""
    return np.array(steering._form_cells(rho, forms, grid_pair, grid_single)).reshape(-1, 3, 3)


# --------------------------------------------------------------------------
# the kernels of dual symbols

def dual_kernels(point: KernelPoint) -> tuple[complex, complex]:
    """Kernels transporting dual symbols: the pair (K^d_12, K^d_21).

    Swapping quantizer and dequantizer roles swaps the kernels, so the
    first component is ``kernel_pair_to_qudit`` at the same point and the
    second is ``kernel_qudit_to_pair``.
    """
    return kernel_pair_to_qudit(point), kernel_qudit_to_pair(point)


# --------------------------------------------------------------------------
# the Jacobi polynomial

def jacobi_poly(n: int, a: float, b: float, x: float) -> float:
    """Jacobi polynomial P_n^{(a,b)}(x) by the three-term recurrence.

    Degenerate parameter combinations that would zero a recurrence
    denominator (possible for negative non-classical a, b) fall back to the
    explicit finite sum; neither path raises for finite inputs.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    if n == 0:
        return 1.0
    p_prev = 1.0
    p_cur = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        c0 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        if abs(c0) < 1e-12:
            return _jacobi_sum(n, a, b, x)
        c1 = (2.0 * k + a + b - 1.0) * ((2.0 * k + a + b) * (2.0 * k + a + b - 2.0) * x + a * a - b * b)
        c2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p_prev, p_cur = p_cur, (c1 * p_cur - c2 * p_prev) / c0
    return p_cur


def _jacobi_sum(n: int, a: float, b: float, x: float) -> float:
    # hypergeometric finite sum; only used when the recurrence degenerates
    total = 0.0
    for s in range(n + 1):
        c = _binom_real(n + a, n - s) * _binom_real(n + b, s)
        total += c * ((x - 1.0) / 2.0) ** s * ((x + 1.0) / 2.0) ** (n - s)
    return total


def _binom_real(top: float, k: int) -> float:
    out = 1.0
    for i in range(1, k + 1):
        out *= (top - i + 1) / i
    return out
