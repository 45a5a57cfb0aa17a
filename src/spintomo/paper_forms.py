"""The paper's closed forms, kept as diagnostics off the hot path.

Only the explicit-quantizer report (:func:`spintomo.frames.qudit_quantizer_authority`
imports this module on its first call), :mod:`spintomo.selftest` and the
tests read it. Each closed form is an array expression over projections
and angles, so a report evaluates it once per sign reading over all its
points.

The paper's explicit qudit quantizer (its prefactor i*(-1)^m is ambiguous
for half-integer m, so both natural readings are implemented) misses the
reconstruction identity on generic states; :class:`QuditQuantizerReport`
records its residuals and failing entries. The explicit qudit-to-pair
kernel fails the cross-check against the trace-defined kernel at one point
(bare exp(i phi) factors where a real result needs cos terms, and the same
defects as the explicit quantizer blocks); :func:`closed_kernel_report`
quantifies the disagreement term by term instead of asserting it away.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import pi, sqrt
from types import SimpleNamespace

import numpy as np

from .matcore import _random_densities, werner
from .su2 import EulerAngles
from .frames import (FULL_SPHERE_MEASURE, QUDIT_PROJECTIONS, TWO_QUBIT_PROJECTIONS, FramePoint2Q,
                     FramePointQudit, PointSet, _dual, _point_symbol, _qudit_tables, _rank_one,
                     make_grid, quantizer_2q, quantizer_qudit)

#: i * (-1)^m for half-integer m read as i * exp(i pi m); the product is a
#: real alternating sign (+1 for m = 3/2, -1/2; -1 for m = 1/2, -3/2).
SIGN_READING_REAL = "real_alternating"
#: i * (-1)^m read as i * (-1)^(m + 3/2); the factor stays imaginary.
SIGN_READING_IMAG = "imaginary_alternating"
SIGN_READINGS = (SIGN_READING_REAL, SIGN_READING_IMAG)

#: Reconstruction residual below which the report would select the explicit
#: qudit quantizer over the dual frame.
EXPLICIT_QUANTIZER_THRESHOLD = 1e-6


# --------------------------------------------------------------------------
# the paper's explicit qudit quantizer, as array expressions

def _sign_reading_factor(m, reading: str):
    """The paper's prefactor i * (-1)^m / ((m + 3/2)! (3/2 - m)!) under the
    two readings of its ambiguous sign, elementwise over projections m."""
    m2 = 2.0 * np.asarray(m, dtype=float)
    if not np.isin(m2, (3.0, 1.0, -1.0, -3.0)).all():
        raise ValueError(f"projections must lie in {QUDIT_PROJECTIONS}, got {m}")
    if reading == SIGN_READING_REAL:
        sign = np.where(m2 % 4 == 3, 1.0, -1.0)
    elif reading == SIGN_READING_IMAG:
        sign = np.where(m2 % 4 == 3, -1j, 1j)
    else:
        raise ValueError(f"unknown sign reading {reading!r}")
    return sign / np.where(np.abs(m2) == 3, 6.0, 2.0)  # (m + 3/2)! (3/2 - m)!


def _matrices(rows) -> np.ndarray:
    """Complex (..., 4, 4) stack from four rows of broadcastable entries."""
    entries = np.broadcast_arrays(*(x for row in rows for x in row))
    return np.stack(entries, axis=-1, dtype=complex).reshape(entries[0].shape + (4, 4))


def _explicit_block_degree1(m, alpha, beta) -> np.ndarray:
    """Tridiagonal block, trace 1; carries the projection m linearly."""
    sb, cb = np.sin(beta), np.cos(beta)
    e = np.exp(1j * alpha)
    q = 0.3 * sqrt(3.0) * m * sb
    r = 0.6 * m * sb  # 63/105 = 3/5
    return _matrices([
        [0.25 + 0.9 * m * cb, q / e, 0, 0],
        [q * e, 0.25 + 0.3 * m * cb, r * e, 0],
        [0, r * e, 0.25 - 0.3 * m * cb, q / e],
        [0, 0, q * e, 0.25 - 0.9 * m * cb],
    ])


def _explicit_block_degree2(alpha, beta) -> np.ndarray:
    """Traceless block, second order in the polar angle."""
    sb = np.sin(beta)
    s2b = np.sin(2.0 * beta)
    c2 = np.cos(beta) ** 2
    e = np.exp(1j * alpha)
    e2 = np.exp(2j * alpha)
    r3 = sqrt(3.0)
    return _matrices([
        [3 * c2 - 1, r3 * s2b / e, r3 * sb * sb / e2, 0],
        [r3 * s2b * e, 1 - 3 * c2, 0, -r3 * sb * sb / e2],
        [r3 * sb * sb * e2, 0, 1 - 3 * c2, -r3 * s2b / e],
        [0, -r3 * sb * sb * e2, -r3 * s2b * e, 3 * c2 - 1],
    ])


def _explicit_block_degree3_sin(alpha, beta) -> np.ndarray:
    """sin(beta) times the third-order block.

    The raw block carries cos(beta)/sin(beta) on its diagonal; multiplying
    by sin(beta) analytically removes the pole, so the assembled quantizer
    is finite at beta = 0 and beta = pi.
    """
    sb, cb = np.sin(beta), np.cos(beta)
    c2 = cb * cb
    e = np.exp(1j * alpha)
    e2 = np.exp(2j * alpha)
    e3 = np.exp(3j * alpha)
    r3 = sqrt(3.0)
    diag = cb * (c2 - 0.6)
    off1 = r3 * (c2 - 0.2) * sb
    off2 = r3 * sb * sb * cb
    off3 = sb**3
    mid = 3.0 * (0.2 - c2) * sb
    return _matrices([
        [diag, off1 / e, off2 / e2, off3 / e3],
        [off1 * e, 3 * diag, mid / e, -off2 / e2],
        [off2 * e2, mid * e, -3 * diag, off1 / e],
        [off3 * e3, off2 * e2, off1 * e, -diag],
    ])


def explicit_qudit_b_matrix(m, alpha, beta, reading: str = SIGN_READING_REAL) -> np.ndarray:
    """Unnormalized explicit quantizer candidate (trace 1 for every point),
    broadcast over arrays of projections and angles."""
    m = np.asarray(m, dtype=float)
    pref = 0.5 * _sign_reading_factor(m, reading)[..., None, None]
    return _explicit_block_degree1(m, alpha, beta) + pref * (
        5.0 * m[..., None, None] * _explicit_block_degree2(alpha, beta)
        + 10.5 * _explicit_block_degree3_sin(alpha, beta)
    )


def quantizer_qudit_explicit(point: FramePointQudit,
                             reading: str = SIGN_READING_REAL) -> np.ndarray:
    """Explicit closed-form qudit quantizer candidate, measure-normalized.

    See the module docstring: this construction is only cross-checked
    against the reconstruction identity (:func:`qudit_quantizer_report`);
    :func:`quantizer_qudit` is the operator used in reconstruction and
    kernels.
    """
    return explicit_qudit_b_matrix(point.m, point.n.azimuth, point.n.polar,
                                   reading) / FULL_SPHERE_MEASURE


# --------------------------------------------------------------------------
# the explicit quantizer report

_AUTHORITY_SAMPLE_SEEDS = tuple(range(9201, 9209))
_REPORT_ENTRY_TOL = 1e-9


@dataclass(frozen=True)
class QuditQuantizerReport:
    """Machine-readable record of the explicit-candidate check.

    ``selected`` is ``"explicit:<reading>"`` when a reading's residual is
    within ``threshold``, else ``"dual_frame"``. Residuals are Frobenius
    reconstruction round-trip errors; the entry lists enumerate, in the
    unnormalized (trace-1 candidate) scale, which matrix entries of the
    explicit construction break Hermiticity and which deviate from the
    dual frame.
    """

    scheme: tuple
    threshold: float
    selected: str
    dual_frame_max_residual: float
    explicit_residuals: dict
    werner_residuals: dict
    hermiticity_failures: dict
    entry_deviations_vs_dual: list

    def as_dict(self) -> dict:
        return {**asdict(self), "scheme": list(self.scheme)}


def _hermiticity_failures() -> dict:
    # 24 random points per block, each drawn as (azimuth, polar, projection)
    rng = np.random.default_rng(4096)
    draws = np.array([(rng.uniform(0, 2 * pi), rng.uniform(0, pi),
                       QUDIT_PROJECTIONS[rng.integers(4)]) for _ in range(3 * 24)])
    a, b, m = draws.reshape(3, 24, 3).transpose(2, 0, 1)  # each (block, point)
    blocks = {
        "block_degree1": _explicit_block_degree1(m[0], a[0], b[0]),
        "block_degree2": _explicit_block_degree2(a[1], b[1]),
        "block_degree3_sin": _explicit_block_degree3_sin(a[2], b[2]),
    }
    out = {}
    for name, x in blocks.items():
        worst = np.abs(x - x.conj().swapaxes(-1, -2)).max(axis=0)
        out[name] = [
            {"entry": [i, j], "max_defect": float(worst[i, j])}
            for i in range(4)
            for j in range(i + 1, 4)
            if worst[i, j] > _REPORT_ENTRY_TOL
        ]
    return out


def qudit_quantizer_report(n_azimuth: int, n_polar: int) -> QuditQuantizerReport:
    """Check the paper's explicit qudit quantizer on one grid and report.

    A diagnostic, computed on request: reconstruction and kernels always
    use the multipole dual. The explicit candidate (each sign reading) is
    evaluated once over every (projection, node) of the grid, and its round
    trip of a fixed sample of random states and of a Werner state is one
    matrix product; ``selected`` names it only if that round trip stays
    below ``EXPLICIT_QUANTIZER_THRESHOLD``.
    """
    grid = make_grid(n_azimuth, n_polar, spheres=1, enforce_minimum=False)
    tables = _qudit_tables(grid)
    explicit = {
        reading: explicit_qudit_b_matrix(np.array(QUDIT_PROJECTIONS)[:, None], grid.sphere_alpha(),
                                         grid.sphere_beta(), reading) / FULL_SPHERE_MEASURE
        for reading in SIGN_READINGS
    }
    # the sample states, then the Werner state, as rows of flattened matrices
    states = np.concatenate([_random_densities(4, _AUTHORITY_SAMPLE_SEEDS),
                             [werner(0.5).mat]]).reshape(-1, 16)
    values = (states @ tables.analysis.T).real

    def residuals(stack):
        # Frobenius error of each state's weighted sum of values against the stack
        rec = values @ (stack * tables.weights[:, None, None]).reshape(len(tables.analysis), 16)
        return np.linalg.norm(rec - states, axis=1)

    res = {reading: residuals(explicit[reading]) for reading in SIGN_READINGS}
    explicit_res = {reading: float(r[:-1].max()) for reading, r in res.items()}
    best_reading = min(SIGN_READINGS, key=explicit_res.get)
    if explicit_res[best_reading] <= EXPLICIT_QUANTIZER_THRESHOLD:
        selected = f"explicit:{best_reading}"
    else:
        selected = "dual_frame"
    dev = np.abs(explicit[best_reading] - tables.quantizer).max(axis=(0, 1))
    dev = dev * FULL_SPHERE_MEASURE  # report in the unnormalized candidate scale
    deviations = [
        {"entry": [i, j], "max_abs_deviation": float(dev[i, j])}
        for i in range(4)
        for j in range(4)
        if dev[i, j] > _REPORT_ENTRY_TOL
    ]
    return QuditQuantizerReport(
        scheme=(n_azimuth, n_polar),
        threshold=EXPLICIT_QUANTIZER_THRESHOLD,
        selected=selected,
        dual_frame_max_residual=float(residuals(tables.quantizer)[:-1].max()),
        explicit_residuals=explicit_res,
        werner_residuals={reading: float(r[-1]) for reading, r in res.items()},
        hermiticity_failures=_hermiticity_failures(),
        entry_deviations_vs_dual=deviations,
    )


# --------------------------------------------------------------------------
# the trace-defined kernels at one point

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


# --------------------------------------------------------------------------
# the paper's closed form of the qudit-to-pair kernel

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
