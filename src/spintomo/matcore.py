"""Dense complex matrix plumbing at dimensions 2 and 4, plus canonical states.

Every 4x4 operator in this package is expressed in one of two fixed bases
of C^4:

* ``two_qubit`` -- product basis |++>, |+->, |-+>, |-->, where ``+`` means
  spin projection m = +1/2 of that qubit;
* ``qudit_3_2`` -- single spin-3/2 basis ordered by descending projection
  m = 3/2, 1/2, -1/2, -3/2.

Fixing the orderings once avoids silent transposition bugs: all explicit
matrices below (Werner family, observables, frame operators) are written
relative to these orderings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

BASIS_TWO_QUBIT = "two_qubit"
BASIS_QUDIT = "qudit_3_2"
KNOWN_BASES = (BASIS_TWO_QUBIT, BASIS_QUDIT)

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10

#: Fewest quadrature nodes per sphere axis (the default grid), for frames and the CLI
MIN_AZIMUTH_NODES = 8
MIN_POLAR_NODES = 8

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)


def as_complex_matrix(m, dims=(2, 4)) -> np.ndarray:
    """Coerce ``m`` to a square complex128 array of an allowed dimension.

    Raises ValueError for non-square input, unsupported dimension, or
    non-finite entries.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in dims:
        raise ValueError(f"unsupported dimension {a.shape[0]}, expected one of {dims}")
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise ValueError("matrix entries must be finite")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 complex matrices.

    Tr(a (x) b) = Tr(a) Tr(b) and (a (x) b)^dag = a^dag (x) b^dag hold.
    """
    return _kron(as_complex_matrix(a, dims=(2,)), as_complex_matrix(b, dims=(2,)))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square factors as their regrouped outer
    product: the same single product per entry as ``np.kron``, far cheaper."""
    da, db = len(a), len(b)
    return np.outer(a, b).reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the density-matrix checks, with the raw defect numbers."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    psd_ok: bool

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def validate_density(m, tol: float = HERMITICITY_TOL) -> ValidationReport:
    """Check Hermiticity (max-norm) and unit trace to ``tol``, and positive
    semidefiniteness to :data:`PSD_TOL`.

    Always returns a report; never raises on a failing state. Eigenvalues
    are taken from the Hermitian part so the PSD number stays meaningful
    even when the Hermiticity check itself fails.
    """
    return _validation_report(as_complex_matrix(m), tol)


def _validation_report(a: np.ndarray, tol: float = HERMITICITY_TOL) -> ValidationReport:
    # the checks of validate_density on a coerced array, or the worst figures of
    # a stack (..., d, d); each trace defect is a scalar's abs, as for one matrix
    adjoint = a.conj().swapaxes(-1, -2)
    herm_defect = float(np.abs(a - adjoint).max())
    trace_defect = float(max(map(abs, (a.trace(0, -2, -1) - 1.0).flat)))
    herm_part = 0.5 * (a + adjoint)
    min_eig = float(min(np.linalg.eigvalsh(herm_part)[..., 0].flat))  # ascending
    return ValidationReport(hermiticity_defect=herm_defect, trace_defect=trace_defect,
                            min_eigenvalue=min_eig, hermitian_ok=herm_defect <= tol,
                            trace_ok=trace_defect <= tol, psd_ok=min_eig >= -PSD_TOL)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state.

    ``basis`` tags which ordering of C^4 the matrix refers to; ``None``
    means the state may be read in either picture (the Werner family and
    random test states are used both ways on purpose).
    """

    mat: np.ndarray
    basis: str | None = None
    validation: ValidationReport = field(compare=False, default=None)

    def __post_init__(self):
        a = as_complex_matrix(self.mat)
        object.__setattr__(self, "mat", a)
        if self.basis is not None and self.basis not in KNOWN_BASES:
            raise ValueError(f"unknown basis tag {self.basis!r}")
        report = _validation_report(a)
        object.__setattr__(self, "validation", report)
        if not report.passed:
            raise ValueError(f"not a density matrix: {report.as_dict()}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


WERNER_P_MIN = -1.0 / 3.0
WERNER_P_MAX = 1.0


def werner_matrix(p: float) -> np.ndarray:
    """Raw 4x4 Werner-family matrix, without any domain or state check.

    Diagonal ((1+p)/4, (1-p)/4, (1-p)/4, (1+p)/4) with corner entries p/2.
    Exposed separately so out-of-domain parameters can be fed to
    :func:`validate_density` (the PSD check is then expected to fail).
    """
    m = np.diag([(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4]).astype(complex)
    m[0, 3] = m[3, 0] = p / 2
    return m


def werner(p: float) -> DensityMatrix:
    """Werner state for -1/3 <= p <= 1.

    Eigenvalues are (1+3p)/4 (once) and (1-p)/4 (three times); separable
    for p <= 1/3, entangled for 1/3 < p <= 1.
    """
    if not np.isfinite(p) or p < WERNER_P_MIN or p > WERNER_P_MAX:
        raise ValueError(f"werner parameter p={p} outside [-1/3, 1]")
    return DensityMatrix(werner_matrix(p))


def random_density(dim: int, seed: int) -> DensityMatrix:
    """Reproducible random state rho = G G^dag / Tr(G G^dag).

    G has i.i.d. standard complex Gaussian entries drawn from
    ``numpy.random.default_rng(seed)``, so a fixed seed gives a fixed state.
    """
    return DensityMatrix(_random_matrices(dim, (seed,))[0])


def _random_densities(dim: int, seeds) -> np.ndarray:
    """:func:`random_density`'s matrices at the seeds as one stack, validated in one pass."""
    m = _random_matrices(dim, seeds)
    report = _validation_report(m)
    if not report.passed:
        raise ValueError(f"not a density matrix: {report.as_dict()}")
    return m


def _random_matrices(dim: int, seeds) -> np.ndarray:
    # each seed's own generator draws its 2 x dim x dim normals, Re G then Im G
    if dim not in (2, 4):
        raise ValueError(f"unsupported dimension {dim}, expected 2 or 4")
    x = np.array([np.random.default_rng(seed).standard_normal((2, dim, dim)) for seed in seeds])
    g = x[:, 0] + 1j * x[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    m /= m.trace(0, -2, -1).real[:, None, None]
    return m


def state_matrix(state) -> np.ndarray:
    """Accept a DensityMatrix or a bare array and return the matrix."""
    if isinstance(state, DensityMatrix):
        return state.mat
    return as_complex_matrix(state)


# --------------------------------------------------------------------------
# matrix JSON interchange (consumed and produced by the command-line tool)

def matrix_to_json_dict(m, basis: str | None = None) -> dict:
    """Encode a matrix as {"dim", "re", "im", "basis"} with full precision."""
    a = as_complex_matrix(m)
    out = {
        "dim": int(a.shape[0]),
        "re": [[float(x) for x in row] for row in a.real],
        "im": [[float(x) for x in row] for row in a.imag],
    }
    if basis is not None:
        out["basis"] = basis
    return out


def matrix_from_json_dict(d: dict) -> tuple[np.ndarray, str | None]:
    """Decode the matrix JSON object; returns (matrix, basis tag or None)."""
    if not isinstance(d, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("dim", "re", "im"):
        if key not in d:
            raise ValueError(f"matrix JSON missing key {key!r}")
    dim = d["dim"]
    if dim not in (2, 4):
        raise ValueError(f"unsupported dimension {dim}, expected 2 or 4")
    try:
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except TypeError as exc:  # an object (dict) where a number or a row belongs
        raise ValueError("re/im entries must be numbers") from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"re/im entries must fit a float: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError("re/im arrays do not match the declared dimension")
    basis = d.get("basis")
    if basis is not None and basis not in KNOWN_BASES:
        raise ValueError(f"unknown basis tag {basis!r}")
    return as_complex_matrix(re + 1j * im), basis
