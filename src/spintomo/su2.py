"""SU(2) rotations for spin 1/2 and Wigner rotation matrices up to spin 2.

Spin labels are half-integers; internally they are carried as doubled
integers (2j, 2m) so index arithmetic is exact. The small-d function is
Wigner's finite sum

    d_{m',m}(beta) = sum_t (-1)^(t+m-m') sqrt[(j+m')!(j-m')!(j+m)!(j-m)!]
                     / [(j-m-t)! t! (j+m'-t)! (t+m-m')!]
                     * cos(beta/2)^(2j-2t-m+m') * sin(beta/2)^(2t+m-m'),

so each entry is a fixed combination of the 2j+1 monomials
x_k = cos(beta/2)^(2j-k) sin(beta/2)^k. One table per spin, built once,
holds each entry's terms (coefficient, k). It is evaluated in two ways
only. At one angle, in Python floats: :func:`wigner_d`,
:func:`wigner_d_matrix` and a single frame point's row take the same
operations in the same order, so the matrix is bit-identical to
:func:`wigner_d` entry by entry and a point's row to the matrix's row. Over
an array of angles, as the same terms in array products, in the one function
that builds the frame tables', point sets' and point operators' rows of U,
``spintomo.frames._set_rows``. The two agree to roundoff; numpy's
trigonometry need not match the math module's to the last bit.

The resulting convention is self-consistent (orthogonal, homomorphic in
beta); relative to the most common textbook table it is the transpose.
All downstream sign-sensitive anchors (Werner tomogram values, frame
completeness) are pinned against this convention by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, factorial, isfinite, pi, sin, sqrt

import numpy as np

#: Phase placement used by :func:`wigner_D`:
#: D_{m',m}(angles) = exp(i m' third) * d_{m',m}(polar) * exp(i m azimuth).
#: The column phase carries the column index m; with both phases on the row
#: index the family would not multiply like a representation. Under this
#: choice ``qubit_rotation(EulerAngles(a, b, c))`` equals
#: ``wigner_D(1/2, EulerAngles(azimuth=c, polar=b, third=a))`` exactly.
PHASE_CONVENTION = "D[m',m] = exp(i*m'*third) * d[m',m](polar) * exp(i*m*azimuth)"

#: Largest supported spin, as a doubled integer (j = 2). Factorial
#: arithmetic below this cap stays in exact small integers.
MAX_TWICE_J = 4


@dataclass(frozen=True)
class EulerAngles:
    """Rotation angles (azimuth, polar, third) in radians.

    ``azimuth`` and ``third`` are 2*pi-periodic; ``polar`` is clamped into
    [0, pi] on construction. For the single-qubit rotation the triple reads
    (phi, theta, psi); for the spin-3/2 rotation it reads (alpha, beta,
    gamma).
    """

    azimuth: float
    polar: float
    third: float = 0.0

    def __post_init__(self):
        for name in ("azimuth", "polar", "third"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"angle {name} must be finite, got {v}")
        object.__setattr__(self, "polar", min(max(float(self.polar), 0.0), pi))
        object.__setattr__(self, "azimuth", float(self.azimuth))
        object.__setattr__(self, "third", float(self.third))


def as_direction(k) -> np.ndarray:
    """Validate a measurement direction, a finite 3-vector with |k| within
    1e-9 of 1, and return it."""
    v = np.asarray(k, dtype=float)
    if v.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    x, y, z = v.tolist()  # the checks in scalar arithmetic
    if not (isfinite(x) and isfinite(y) and isfinite(z)):
        raise ValueError("direction components must be finite")
    norm = sqrt(x * x + y * y + z * z)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |k| = {norm}")
    return v


def twice(value) -> int:
    """Convert a (half-)integer spin label to its exact doubled integer."""
    t = 2.0 * float(value)
    if not isfinite(t) or abs(t - round(t)) > 1e-9:
        raise ValueError(f"{value} is not a half-integer")
    return round(t)


def _check_spin_indices(j2: int, mp2: int, m2: int) -> None:
    if j2 <= 0 or j2 > MAX_TWICE_J:
        raise ValueError(f"unsupported spin 2j={j2}; supported up to 2j={MAX_TWICE_J}")
    for label, v2 in (("m'", mp2), ("m", m2)):
        if abs(v2) > j2:
            raise IndexError(f"|{label}| exceeds j")
        if (j2 - v2) % 2 != 0:
            raise ValueError(f"{label} is not compatible with j (must differ by integers)")


def wigner_d(j, mp, m, beta: float) -> float:
    """Small rotation matrix element d^j_{m',m}(beta).

    Spins may be given as floats (3/2 -> 1.5) or exact integers. Raises
    IndexError when |m'| or |m| exceeds j.
    """
    j2, mp2, m2 = twice(j), twice(mp), twice(m)
    _check_spin_indices(j2, mp2, m2)
    return _wigner_d_row(j2, (j2 - mp2) // 2, beta)[(j2 - m2) // 2]


def spin_projections(j) -> np.ndarray:
    """Projections m = j, j-1, ..., -j in descending order."""
    j2 = twice(j)
    return np.arange(j2, -j2 - 1, -2) / 2.0


def wigner_d_matrix(j, beta: float) -> np.ndarray:
    """Full (2j+1)x(2j+1) small-d matrix, rows and columns by descending m."""
    j2 = twice(j)
    _check_spin_indices(j2, j2, j2)
    return np.array([_wigner_d_row(j2, row, beta) for row in range(j2 + 1)])


@lru_cache(maxsize=None)
def _wigner_d_table(j2: int) -> tuple:
    """Wigner's sum for d^j: (powers, rows, coefficients, k).

    Entry (m', m) is sum_t coefficients[r, c, t] * x[k[r, c, t]] over the
    monomials x_k = cos(beta/2)^a sin(beta/2)^b, (a, b) = powers[k] =
    (2j - k, k); r = j - m' and c = j - m index rows and columns by
    descending m. The sum has at most j + 1 terms (3 at j = 2); shorter
    entries end in zero terms. ``rows[r]`` holds row r's terms as Python
    tuples (coefficient, k) * 3, one per column.
    """
    f = [factorial(n) for n in range(j2 + 1)]
    coefficients, k = np.zeros((j2 + 1, j2 + 1, 3)), np.zeros((j2 + 1, j2 + 1, 3), dtype=int)
    for r, c in np.ndindex(j2 + 1, j2 + 1):  # j + m' = 2j - r, j + m = 2j - c, m - m' = r - c
        for i, t in enumerate(range(max(0, c - r), min(c, j2 - r) + 1)):
            k[r, c, i] = 2 * t + r - c
            coefficients[r, c, i] = ((-1) ** (t + r - c) * sqrt(f[j2 - r] * f[r] * f[j2 - c] * f[c])
                                     / (f[c - t] * f[t] * f[j2 - r - t] * f[t + r - c]))
    rows = tuple(tuple(sum(zip(a, i), ()) for a, i in zip(*row))
                 for row in zip(coefficients.tolist(), k.tolist()))
    coefficients.flags.writeable = k.flags.writeable = False  # shared by every caller
    return tuple((j2 - n, n) for n in range(j2 + 1)), rows, coefficients, k


def _wigner_d_row(j2: int, row: int, beta: float) -> list:
    """Row ``row`` (index of m' by descending m') of d^j(beta) as floats."""
    c, s = cos(beta / 2.0), sin(beta / 2.0)
    powers, rows, _, _ = _wigner_d_table(j2)
    x = [c ** a * s ** b for a, b in powers]
    return [a * x[i] + b * x[k] + e * x[n] for a, i, b, k, e, n in rows[row]]


def _wigner_d_array(j2: int, beta: np.ndarray) -> np.ndarray:
    """d^j at every angle of a 1-D array, shape (n, 2j+1, 2j+1): the table's
    terms as array products, added in the order :func:`_wigner_d_row` adds
    them, so an angle's matrix does not depend on the other angles."""
    powers, _, coefficients, k = _wigner_d_table(j2)
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    terms = coefficients * np.stack([c ** a * s ** b for a, b in powers], axis=-1)[:, k]
    return terms[..., 0] + terms[..., 1] + terms[..., 2]


def wigner_D(j, angles: EulerAngles) -> np.ndarray:
    """Rotation matrix D^j(angles) under :data:`PHASE_CONVENTION`.

    Unitary for any angles; supported for j in {1/2, 3/2} (and the other
    spins below the cap, which share the same construction).
    """
    d = wigner_d_matrix(j, angles.polar)  # rejects unsupported spins
    m = spin_projections(j)
    row_phase = np.exp(1j * m * angles.third)
    col_phase = np.exp(1j * m * angles.azimuth)
    return row_phase[:, None] * d * col_phase[None, :]


def qubit_rotation(angles: EulerAngles) -> np.ndarray:
    """Spin-1/2 rotation u(phi, theta, psi) with unit determinant.

    Entries: cos(theta/2) e^{i(phi+psi)/2}, sin(theta/2) e^{i(phi-psi)/2},
    -sin(theta/2) e^{i(psi-phi)/2}, cos(theta/2) e^{-i(phi+psi)/2}; equal to
    ``wigner_D(1/2, ...)`` under the identification in
    :data:`PHASE_CONVENTION`.
    """
    phi, theta, psi = angles.azimuth, angles.polar, angles.third
    c, s = cos(theta / 2.0), sin(theta / 2.0)
    return np.array(
        [
            [c * np.exp(1j * (phi + psi) / 2.0), s * np.exp(1j * (phi - psi) / 2.0)],
            [-s * np.exp(1j * (psi - phi) / 2.0), c * np.exp(-1j * (phi + psi) / 2.0)],
        ]
    )
