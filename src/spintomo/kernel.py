"""Intertwining kernels between the spin-3/2 and two-qubit tomograms.

The same 4x4 density matrix can be read as a two-qubit state or as a single
spin-3/2 state. Its two tomograms convert into each other by integral
kernels:

    omega(m1, m2, n1, n2) = sum_m int W(m, n) K_qudit_to_pair dn
    W(m, n) = sum_{m1,m2} int omega(m1, m2, n1, n2) K_pair_to_qudit dn1 dn2

with the trace-defined kernels

    K_qudit_to_pair = Tr[ D_qudit(m, n) U_pair(m1, m2, n1, n2) ]
    K_pair_to_qudit = Tr[ D_pair(m1, m2, n1, n2) U_qudit(m, n) ]

(U = dequantizer, D = quantizer, both from :mod:`spintomo.frames`; the
quantizers are the grid-independent multipole duals).

Mapping a tomogram never tabulates a kernel. The kernel integral is linear
in the tomogram and factors through operator space,

    sum_x w(x) value(x) K(x, y) = Tr[ (sum_x w(x) value(x) D(x)) U(y) ],

so each map reads one 4x4 operator A at the target point y as
Tr[A U(y)] = v A v^dag, with v the target's row of U (see
:mod:`spintomo.frames`); the target's dequantizer is never formed. The
trace kernels read the source point's quantizer the same way. This holds
for any tomogram values, physical or not. The evaluator maps take
the source tomogram as an array of node values, in the layout of
:func:`spintomo.frames._analyze` ((4, n) for the qudit, (2, n, 2, n) for
two qubits), and synthesize them into that operator. The state maps never
evaluate the state's tomogram on the grid: the operator is
:func:`spintomo.frames.reconstruct_state`, which applies the grid's
operator-space Gram to the state (same value, one 16 x 16 product instead
of a pass over every node). It returns a fresh array; repeat
reconstructions of the same matrix on the same picture and grid are read
from a small memo keyed by the matrix's content, and the state maps read
that memo directly, so a state mapped to many targets is reconstructed
once; at a :class:`~spintomo.frames.PointSet` every target is read in one
product W vec(A). The state maps read the state's matrix once: a DensityMatrix,
already checked when it was made, is not checked again, and a basis tag
does not stop a state from mapping in either direction.

The trace definition is authoritative. An explicit closed-form expression
for the qudit-to-pair kernel is also implemented; it fails the cross-check
against the trace definition (bare exp(i phi) factors where a real result
needs cos terms, and the same defects as the explicit quantizer blocks),
so :func:`closed_kernel_report` quantifies the disagreement term by term
instead of asserting it away. The closed form broadcasts over arrays of
point coordinates, so the report evaluates it once per sign reading, against
the trace kernel read at a qudit and a two-qubit point set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import pi, sqrt
from types import SimpleNamespace

import numpy as np

from .matcore import BASIS_QUDIT, BASIS_TWO_QUBIT, DensityMatrix
from .su2 import EulerAngles
from .frames import (
    FULL_SPHERE_MEASURE,
    QUDIT_PROJECTIONS,
    SIGN_READING_REAL,
    SIGN_READINGS,
    TWO_QUBIT_PROJECTIONS,
    FramePoint2Q,
    FramePointQudit,
    PointSet,
    QuadratureGrid,
    _dual,
    _point_symbol,
    _rank_one,
    _real_trace,
    _reconstruction,
    _sign_reading_factor,
    _synthesize,
    quantizer_2q,
    quantizer_qudit,
)


@dataclass(frozen=True)
class KernelPoint:
    """Full argument list of the conversion kernels: one qudit frame point
    and one two-qubit frame point."""

    m: float
    m1: float
    m2: float
    qudit: EulerAngles
    qubit1: EulerAngles
    qubit2: EulerAngles

    def qudit_point(self) -> FramePointQudit:
        return FramePointQudit(self.m, self.qudit)

    def pair_point(self) -> FramePoint2Q:
        return FramePoint2Q(self.m1, self.m2, self.qubit1, self.qubit2)


def kernel_qudit_to_pair(point: KernelPoint) -> complex:
    """Trace-defined kernel converting a qudit tomogram to a two-qubit one."""
    return complex(_point_symbol(quantizer_qudit(point.qudit_point()), point.pair_point()))


def kernel_pair_to_qudit(point: KernelPoint) -> complex:
    """Trace-defined kernel for the inverse direction (two-qubit quantizer
    against the qudit dequantizer); independent of all third Euler angles."""
    return complex(_point_symbol(quantizer_2q(point.pair_point()), point.qudit_point()))


def dual_kernels(point: KernelPoint) -> tuple[complex, complex]:
    """Kernels transporting dual symbols: the pair (K^d_12, K^d_21).

    Swapping quantizer and dequantizer roles swaps the kernels, so the
    first component is :func:`kernel_pair_to_qudit` at the same point and
    the second is :func:`kernel_qudit_to_pair`.
    """
    return kernel_pair_to_qudit(point), kernel_qudit_to_pair(point)


# --------------------------------------------------------------------------
# explicit closed form of the qudit-to-pair kernel

def closed_kernel_terms(point: KernelPoint, reading: str = SIGN_READING_REAL) -> dict:
    """Term-by-term evaluation of the explicit closed-form kernel.

    Returns named addends whose sum is the closed-form value. The overall
    scale matches the trace kernel only after dividing by the sphere
    measure 8 pi^2 (the constant term is 1/4, while the trace kernel's
    constant part is 1/(4 * 8 pi^2)); :func:`closed_kernel_report` compares
    both normalizations. The terms broadcast over arrays of coordinates
    (projections, and each rotation's azimuth and polar angle).
    """
    m, m1, m2 = point.m, point.m1, point.m2
    alpha, beta = point.qudit.azimuth, point.qudit.polar
    th1, ph1 = point.qubit1.polar, point.qubit1.azimuth
    th2, ph2 = point.qubit2.polar, point.qubit2.azimuth
    cb, sb, ca = np.cos(beta), np.sin(beta), np.cos(alpha)
    ct1, st1, ct2, st2 = np.cos(th1), np.sin(th1), np.cos(th2), np.sin(th2)
    e1, e2 = np.exp(1j * ph1), np.exp(1j * ph2)
    # -(i * (-1)^m) / ((m + 3/2)! (3/2 - m)!) under the reading
    pref = -_sign_reading_factor(m, reading)
    return {
        "constant": 0.25 + 0j,
        "linear_group": 3.0 * m / 5.0 * (
            cb * (2.0 * m1 * ct1 + m2 * ct2)
            + m2 * sb * ca * st2 * e2 * (-sqrt(3.0) + 2.0 * m1 * st1 * e1)
        ),
        "bracket_polar": pref * 21.0 * cb * (cb * cb - 0.6) * (0.5 * m1 * ct1 - m2 * ct2),
        "bracket_projections": pref * 10.0 * m * m1 * m2 * ct1 * ct2 * (1.0 - 3.0 * cb * cb),
        "bracket_mixed": pref * sqrt(3.0) * m2 * (
            10.5 * sb * st2 * e2 * ca * (cb * cb - 0.2)
            + 21.0 * m1 * cb * sb * sb * ct2 * st1 * e1 * np.cos(2.0 * alpha)
            + 10.0 * m * m1 * sb * sb * (
                e1 * ct2 * st1 * np.cos(2.0 * alpha)
                + 4.0 * e2 * ct1 * st2 * ca
            )
        ),
        "bracket_double_azimuth": pref * 10.5 * m1 * m2 * sb * st1 * st2 * e1 * e2 * (
            -0.6 * ca + 3.0 * cb * cb * ca - sb * sb * np.cos(3.0 * alpha)
        ),
    }


def kernel_qudit_to_pair_closed(point: KernelPoint, reading: str = SIGN_READING_REAL) -> complex:
    """Literal closed-form kernel value (see :func:`closed_kernel_terms`)."""
    return complex(sum(closed_kernel_terms(point, reading).values()))


#: Largest measure-normalized deviation at which the closed form agrees.
CLOSED_KERNEL_TOL = 1e-10


@dataclass(frozen=True)
class ClosedKernelReport:
    """Cross-check of the closed-form kernel against the trace definition.

    ``agrees`` is true when the best reading matches the trace kernel to
    ``tolerance`` after measure normalization; otherwise the per-reading
    deviation statistics and per-term magnitudes document the disagreement.
    """

    n_points: int
    seed: int
    tolerance: float
    agrees: bool
    best_reading: str
    reading_stats: dict
    term_max_abs: dict
    notes: tuple

    def as_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}


def _random_kernel_point(rng) -> KernelPoint:
    return KernelPoint(
        m=QUDIT_PROJECTIONS[rng.integers(4)],
        m1=TWO_QUBIT_PROJECTIONS[rng.integers(2)],
        m2=TWO_QUBIT_PROJECTIONS[rng.integers(2)],
        qudit=EulerAngles(rng.uniform(0, 2 * pi), rng.uniform(0, pi)),
        qubit1=EulerAngles(rng.uniform(0, 2 * pi), rng.uniform(0, pi)),
        qubit2=EulerAngles(rng.uniform(0, 2 * pi), rng.uniform(0, pi)),
    )


def _stacked(points) -> KernelPoint:
    """The points as one KernelPoint of coordinate arrays, each rotation a
    namespace of azimuth and polar arrays (all closed_kernel_terms reads)."""
    m, m1, m2, *angles = np.array([(p.m, p.m1, p.m2, p.qudit.azimuth, p.qudit.polar,
                                    p.qubit1.azimuth, p.qubit1.polar, p.qubit2.azimuth,
                                    p.qubit2.polar) for p in points]).T
    return KernelPoint(m, m1, m2, *(SimpleNamespace(azimuth=a, polar=b)
                                    for a, b in zip(angles[::2], angles[1::2])))


def closed_kernel_report(n_points: int = 100, seed: int = 515) -> ClosedKernelReport:
    """Compare trace-defined and closed-form kernels at random points: the
    trace kernel read at a qudit and a two-qubit point set, the closed form
    once per reading, each over all points."""
    rng = np.random.default_rng(seed)
    batch = _stacked([_random_kernel_point(rng) for _ in range(n_points)])
    qudit = PointSet(FramePointQudit, batch.m, batch.qudit.azimuth, batch.qudit.polar)
    qubits = (batch.qubit1, batch.qubit2)
    pair = PointSet(FramePoint2Q, np.stack([batch.m1, batch.m2], axis=-1),
                    np.stack([q.azimuth for q in qubits], axis=-1),
                    np.stack([q.polar for q in qubits], axis=-1))
    # Tr(D_qudit U_pair) = w . vec(D_qudit) at each pair point
    trace_values = (pair.functionals * _dual(_rank_one(qudit.rows)).reshape(-1, 16)).sum(axis=1)
    stats = {}
    for reading in SIGN_READINGS:
        terms = closed_kernel_terms(batch, reading)
        closed = sum(terms.values())
        raw = np.abs(closed - trace_values)
        normalized = np.abs(closed / FULL_SPHERE_MEASURE - trace_values)
        stats[reading] = {
            "max_abs_deviation_raw": float(raw.max()),
            "max_abs_deviation_measure_normalized": float(normalized.max()),
            "mean_abs_deviation_measure_normalized": float(normalized.mean()),
        }
        if reading == SIGN_READING_REAL:  # term magnitudes over the first 20 points
            term_max = {name: np.abs(np.broadcast_to(value, closed.shape)[:20]).max()
                        for name, value in terms.items()}
    best = min(SIGN_READINGS, key=lambda r: stats[r]["max_abs_deviation_measure_normalized"])
    agrees = stats[best]["max_abs_deviation_measure_normalized"] <= CLOSED_KERNEL_TOL
    notes = (
        "the closed form's scale matches the trace kernel only after dividing by 8*pi^2",
        "bare exp(i*phi1)/exp(i*phi2) factors make the closed form complex at points "
        "where the trace kernel mapping of Hermitian states must stay real",
    )
    return ClosedKernelReport(
        n_points=n_points,
        seed=seed,
        tolerance=CLOSED_KERNEL_TOL,
        agrees=agrees,
        best_reading=best,
        reading_stats=stats,
        term_max_abs={k: float(v) for k, v in term_max.items()},
        notes=notes,
    )


# --------------------------------------------------------------------------
# tomogram mapping

def _read_against(rec: np.ndarray, target, picture: type):
    # a point of the other picture would read the source tomogram, not map it;
    # a PointSet of the picture reads all its points in one product
    points = isinstance(target, PointSet)
    kind = target.picture if points else type(target)
    if not issubclass(kind, picture):
        raise TypeError(f"target must be a {picture.__name__}, got {kind.__name__}")
    if points:
        return target.read(rec, 1e-10, "mapped tomogram")
    return _real_trace(_point_symbol(rec, target), 1e-10, "mapped tomogram")


def map_qudit_to_two_qubit(values, grid: QuadratureGrid, target: FramePoint2Q) -> float:
    """Convert qudit tomogram node values, shape (4, n) over (projection,
    node), into a two-qubit tomogram value at ``target``.

    The values are integrated against the qudit-to-pair kernel over the
    grid; the projection sum over m is always included. Values of any
    other shape raise ValueError.
    """
    return _read_against(_synthesize(np.asarray(values), BASIS_QUDIT, grid), target,
                         FramePoint2Q)


def map_two_qubit_to_qudit(values, grid: QuadratureGrid, target: FramePointQudit) -> float:
    """Convert two-qubit tomogram node values, shape (2, n, 2, n) over
    (m1, node1, m2, node2), into a qudit tomogram value at ``target``.
    Values of any other shape raise ValueError."""
    return _read_against(_synthesize(np.asarray(values), BASIS_TWO_QUBIT, grid), target,
                         FramePointQudit)


def _in_picture(state, representation: str):
    # The state maps read a state in either picture: a DensityMatrix tagged
    # with the other one goes in as its bare matrix. Any other state goes in
    # as it is, so a DensityMatrix is not checked again.
    if isinstance(state, DensityMatrix) and state.basis not in (None, representation):
        return state.mat
    return state


def map_state_qudit_to_two_qubit(state, grid: QuadratureGrid,
                                 target: FramePoint2Q | PointSet) -> float | np.ndarray:
    """:func:`map_qudit_to_two_qubit` of a density matrix's own tomogram; at a
    two-qubit :class:`~spintomo.frames.PointSet`, W vec(closure(rho))."""
    rec = _reconstruction(_in_picture(state, BASIS_QUDIT), BASIS_QUDIT, grid)
    return _read_against(rec, target, FramePoint2Q)


def map_state_two_qubit_to_qudit(state, grid: QuadratureGrid,
                                 target: FramePointQudit | PointSet) -> float | np.ndarray:
    """:func:`map_two_qubit_to_qudit` of a density matrix's own tomogram; at a
    qudit :class:`~spintomo.frames.PointSet`, W vec(closure(rho))."""
    rec = _reconstruction(_in_picture(state, BASIS_TWO_QUBIT), BASIS_TWO_QUBIT, grid)
    return _read_against(rec, target, FramePointQudit)
