"""Correlation functions, Bell/CHSH bounds and the steering inequality.

The correlation function of a 4x4 state along unit directions k1, k2 is
E(k1, k2) = Tr[(k1.sigma (x) k2.sigma) rho]. E is bilinear in the
directions through the 3x3 correlation tensor T_ij = Tr(rho sigma_i (x)
sigma_j): E = k1^T T k2.

E is computed four ways: directly, through the two-qubit frame pairing in
both symbol/dual orders, and through the spin-3/2 frame pairing. Every form
is k1^T T_f k2 for the tensor T_f = Tr(X_f sigma_i (x) sigma_j) of one
operator X_f read in its picture, because a form is the pairing Tr(b X_f)
of the product observable b = (k1.sigma) (x) (k2.sigma) with it. X_f is the
state for the direct form. For a frame pairing it is the state's grid
closure, vec(X_f) = vec(rho) G with G the picture's operator-space Gram,
when the state takes the symbol side, and the adjoint closure, vec(X_f) =
vec(rho) Pi G^T Pi with Pi the swap of vec(A) and vec(A^T), when it takes
the dual side. G is self-adjoint, Pi G^T Pi = G, on every product grid,
exact or degraded, as the property tests check: the dual map S^-1 acts by a
scalar on each multipole rank, and a sum over nodes and projections does not
mix ranks. So the two pairing orders are one map, and every tomographic form
reads its picture's G. On an exact grid G is the identity and each T_f is T to
roundoff; on a degraded grid the tomographic forms keep G's defects. No
form builds the product observable or runs the frame pairing.

X_f is linear in the state, so a form's cells are vec(rho) K_f for a 16x9
map K_f built once per grid: one product for the forms of a call, read into
Python numbers once. Past it all is scalar arithmetic on at most 36 numbers:
the imaginary-part checks, E_f, the sums of T, the maximizing directions and
CHSH, so a value takes the same operations whichever reader asks. The
largest E over direction pairs is the top singular value of T, and the CHSH
maximum is the Horodecki closed form 2*sqrt(s1^2 + s2^2) over the two
largest singular values; a steering report takes both from one SVD.
:func:`max_correlation_grid` stays as an independent check of the first;
the tests check the second against a brute-force search.

The steering inequality evaluated here reads

    max_{k1,k2} E(k1, k2) >= (2/3) * sum_{ij} T_ij   (non-steerable states)

and the report exposes the numbers under both readings of the sum (all
nine entries, and the diagonal only), never just a boolean: for the Werner
family the inequality holds over the whole parameter range, so it cannot
by itself single out a steerable subdomain.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import atan2, cos, pi, sin, sqrt

import numpy as np

from .matcore import BASIS_QUDIT, BASIS_TWO_QUBIT, PAULI, DensityMatrix, _kron, werner
from .su2 import as_direction
from .frames import (QUDIT_PROJECTIONS, TWO_QUBIT_PROJECTIONS, FramePoint2Q, FramePointQudit,
                     PointSet, QuadratureGrid, _four_by_four, _frame, _read_only, make_grid,
                     tomograms, werner_qudit_tomogram_closed, werner_two_qubit_tomogram_closed)

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])

# P, column 3i + j vec((sigma_i (x) sigma_j)^T): Tr(A B) = vec(A) . vec(B^T), so
# vec(X) P holds the cells Tr(X sigma_i (x) sigma_j) of X's tensor row by row
_PAULI_PAIRS = np.array([_kron(s, t).T.ravel() for s in PAULI for t in PAULI]).T

NOTE_SUM_READINGS = (
    "rhs_all_entries sums all nine correlation-tensor entries and drives "
    "inequality_holds; rhs_diagonal sums the diagonal only. Both are reported "
    "because the two readings differ for generic states."
)
NOTE_WERNER_DOMAIN = (
    "For the Werner family lhs = |p| and both rhs readings equal (2/3)p, so the "
    "inequality lhs >= rhs holds for every p in [-1/3, 1]; it does not by itself "
    "certify steering in any subdomain (in particular not in 1/3 < p < 1/2). "
    "Verdicts are raw numbers; apply your preferred reading."
)
NOTE_ZZ_RESTRICTION = (
    "correlation_zz is E along the z axes only; the Werner correlation tensor "
    "diag(p, -p, p) carries equal-magnitude x and y contributions, so the zz "
    "value alone understates the correlation structure."
)


#: Each form's map M_f of operator space, vec(X_f) = vec(rho) M_f: the state
#: itself, or its closure vec(rho) G through the picture's Gram G, whichever
#: side of the frame pairing the state takes (the adjoint closure Pi G^T Pi is
#: G again).
_OPERATOR_MAPS = {
    "direct": lambda pair, single: np.eye(16),
    "tomo_2q_a": lambda pair, single: pair.gram,
    "tomo_2q_b": lambda pair, single: pair.gram,
    "tomo_qudit": lambda pair, single: single.gram,
}
_FORMS = tuple(_OPERATOR_MAPS)


@lru_cache(maxsize=32)
def _form_maps(forms: tuple, pair, single) -> np.ndarray:
    """The forms' 16x9 maps K_f = M_f P on the picture frames, stacked."""
    return _read_only([np.dot(_OPERATOR_MAPS[form](pair, single), _PAULI_PAIRS) for form in forms])


def _form_cells(rho: np.ndarray, forms: tuple, grid_pair: QuadratureGrid | None = None,
                grid_single: QuadratureGrid | None = None) -> list:
    """The nine complex cells of each form's tensor T_f = Tr(X_f sigma_i (x)
    sigma_j), row by row: vec(rho) K_f in one matmul, which takes each of the
    stacked maps on its own, so a form's cells do not depend on the others read."""
    pair = None if grid_pair is None else _frame(BASIS_TWO_QUBIT, grid_pair)
    single = None if grid_single is None else _frame(BASIS_QUDIT, grid_single)
    return np.matmul(rho.ravel(), _form_maps(forms, pair, single)).tolist()


def _form_values(cells: list, forms: tuple, k1: list, k2: list) -> dict:
    """E_f = k1^T T_f k2 of each form from its nine cells, a float; the
    direct form's imaginary part must vanish to 1e-12."""
    (x, y, z), (a, b, c) = k1, k2
    values = {}
    for form, t in zip(forms, cells):
        value = (x * (t[0] * a + t[1] * b + t[2] * c) + y * (t[3] * a + t[4] * b + t[5] * c)
                 + z * (t[6] * a + t[7] * b + t[8] * c))
        if form == "direct" and abs(value.imag) > 1e-12:
            raise ArithmeticError(f"correlation has imaginary part {value.imag:.3e}")
        values[form] = value.real
    return values


def _forms(state, k1, k2, forms: tuple, grid_pair: QuadratureGrid | None = None,
           grid_single: QuadratureGrid | None = None) -> dict:
    """The named forms of E(k1, k2) for a state, by :func:`_form_values`."""
    cells = _form_cells(_four_by_four(state), forms, grid_pair, grid_single)
    return _form_values(cells, forms, as_direction(k1).tolist(), as_direction(k2).tolist())


def _real_cells(cells: list) -> list:
    """A tensor's nine cells as floats: each finite, with an imaginary part
    of at most 1e-12."""
    for x in cells:
        if not isfinite(x):
            raise ValueError("correlation tensor entries must be finite")
        if abs(x.imag) > 1e-12:
            raise ArithmeticError("correlation tensor entry not real")
    return [x.real + 0.0 for x in cells]  # a zero entry prints as 0.0, never -0.0


def _given_cells(t) -> list:
    """The cells of a tensor passed as an array-like, under :func:`_real_cells`."""
    t = np.asarray(t)
    if t.shape != (3, 3) or t.dtype.kind not in "biufc":
        raise ValueError("correlation tensor must be a numeric 3x3 array")
    return _real_cells(t.ravel().tolist())


def _state_cells(state) -> list:
    """The real cells of a state's correlation tensor T, its direct form."""
    return _real_cells(_form_cells(_four_by_four(state), ("direct",))[0])


def _tensor_array(t: list) -> np.ndarray:
    return np.array(t).reshape(3, 3)


def correlation_direct(state, k1, k2) -> float:
    """E(k1, k2) = Tr[(k1.sigma (x) k2.sigma) rho], read as k1^T T k2."""
    return _forms(state, k1, k2, ("direct",))["direct"]


def correlation_tomographic_two_qubit(state, k1, k2, grid: QuadratureGrid) -> float:
    """E(k1, k2) through the two-qubit frame pairing.

    Either symbol order of the pairing (reports keep both, as ``tomo_2q_a``
    and ``tomo_2q_b``) is one map, the state's closure through the picture's
    self-adjoint Gram, so this reads the one two-qubit form.
    """
    return _forms(state, k1, k2, ("tomo_2q_a",), grid_pair=grid)["tomo_2q_a"]


def correlation_tomographic_qudit(state, k1, k2, grid: QuadratureGrid) -> float:
    """E(k1, k2) through the spin-3/2 frame pairing.

    The state and the product observable are read in the spin-3/2 basis;
    the numerical value coincides with :func:`correlation_direct`.
    """
    return _forms(state, k1, k2, ("tomo_qudit",), grid_single=grid)["tomo_qudit"]


def correlation_tensor(state) -> np.ndarray:
    """T_ij = Tr(rho sigma_i (x) sigma_j), a real 3x3 matrix: the cells
    vec(rho) P of the direct form."""
    return _tensor_array(_state_cells(state))


# --------------------------------------------------------------------------
# direction maximization

def _lexicographic_unit(subspace: np.ndarray) -> np.ndarray:
    """Lexicographically largest unit vector in the span of the columns."""
    projector = subspace @ subspace.T
    for axis in range(3):
        candidate = projector @ np.eye(3)[axis]
        norm = np.linalg.norm(candidate)
        if norm > 1e-12:
            return candidate / norm
    raise ValueError("empty subspace")


def max_correlation(t) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest E over direction pairs: top singular value of T.

    Returns (value, k1, k2) with value >= 0. Degenerate top singular
    spaces are tie-broken deterministically by picking the
    lexicographically largest maximizing direction. T is any array-like of
    shape (3, 3) with finite entries (else ValueError) whose imaginary
    parts are at most 1e-12 (else ArithmeticError).
    """
    cells = _given_cells(t)
    value, k1, k2 = _max_correlation(cells, _svd(_tensor_array(cells)))
    return value, np.array(k1), np.array(k2)


def _svd(t: np.ndarray) -> list:
    """T's SVD [u, s, vt], the one array call both maxima read; u, s as lists."""
    u, s, vt = np.linalg.svd(t)
    return [u.tolist(), s.tolist(), vt]


def _max_correlation(t: list, svd) -> tuple[float, list, list]:
    (u0, u1, u2), s, _ = svd
    if s[0] <= 1e-300:
        return 0.0, X_AXIS.tolist(), X_AXIS.tolist()
    top = s[0] * (1.0 - 1e-9)
    if s[1] < top:  # one top singular value (s is sorted): the larger of +-u1
        k1 = max([u0[0], u1[0], u2[0]], [-u0[0], -u1[0], -u2[0]])
    else:
        k1 = _lexicographic_unit(np.array(svd[0])[:, [x >= top for x in s]]).tolist()
    a, b, c = k1  # w = T^T k1
    w0, w1, w2 = (a * t[0] + b * t[3] + c * t[6], a * t[1] + b * t[4] + c * t[7],
                  a * t[2] + b * t[5] + c * t[8])
    norm = sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    k2 = [w0 / norm, w1 / norm, w2 / norm]
    return w0 * k2[0] + w1 * k2[1] + w2 * k2[2], k1, k2


def sphere_directions() -> np.ndarray:
    """Deterministic direction lattice, antipodally closed.

    theta runs over 9 values from 0 to pi inclusive, phi over 8 uniform
    values; the lattice contains the coordinate axes and the diagonal
    directions, which are exact maximizers for tensors that are diagonal in
    the coordinate frame. Its size is 58 directions.
    """
    theta = np.linspace(0.0, pi, 9)
    phi = 2.0 * pi * np.arange(8) / 8
    dirs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for th in theta[1:-1]:
        for ph in phi:
            dirs.append(np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]))
    return np.array(dirs)


def max_correlation_grid(t) -> float:
    """Grid-search confirmation of :func:`max_correlation`.

    Searches the direction lattice and then refines by 60 rounds of the
    alternating closed-form best response (k1 -> T k2 / |..|,
    k2 -> T^T k1 / |..|), which increases the value monotonically; a round that
    leaves k2's bits as they were is a fixed point, which the rest would repeat.
    """
    t = np.asarray(t, dtype=float)
    dirs = sphere_directions()
    values = dirs @ t @ dirs.T
    i, j = np.unravel_index(np.argmax(values), values.shape)
    k1, k2 = dirs[i], dirs[j]
    best = float(values[i, j])
    for _ in range(60):  # sqrt(v . v) is np.linalg.norm(v), bit for bit
        v = t @ k2
        norm = sqrt(v.dot(v))
        if norm > 1e-15:
            k1 = v / norm
        v, previous = t.T @ k1, k2.tobytes()
        norm = sqrt(v.dot(v))
        if norm > 1e-15:
            k2 = v / norm
        best = max(best, float(k1 @ t @ k2))
        if k2.tobytes() == previous:
            break
    return best


# --------------------------------------------------------------------------
# CHSH

def chsh_value(state, a, b, c, d) -> float:
    """The four-direction combination E(a,b) + E(a,c) + E(d,b) - E(d,c): each
    E as :func:`correlation_direct` reads it, from T's cells read once."""
    cells = _form_cells(_four_by_four(state), ("direct",))
    a, b, c, d = (as_direction(k).tolist() for k in (a, b, c, d))
    ab, ac, db, dc = (_form_values(cells, ("direct",), k1, k2)["direct"]
                      for k1, k2 in ((a, b), (a, c), (d, b), (d, c)))
    return ab + ac + db - dc


@dataclass(frozen=True)
class ChshResult:
    """Maximum of :func:`chsh_value` and four directions ``a``..``d`` that attain it."""

    value: float
    directions: dict


def chsh_max(state_or_tensor) -> ChshResult:
    """Maximum CHSH combination over four directions, in closed form.

    Accepts a state or its correlation tensor T, any real array-like of
    shape (3, 3) (entries as in :func:`max_correlation`). With singular
    values s1 >= s2 >= s3 and singular vectors u_i, v_i of T the maximum is
    2*sqrt(s1^2 + s2^2) (Horodecki, Horodecki & Horodecki, Phys. Lett. A
    200, 340 (1995)). It is attained at a = u1, d = u2 and
    b, c = cos(chi) v1 +- sin(chi) v2 with chi = atan2(s2, s1); for T = 0
    all four directions are the x axis.
    """
    given = not isinstance(state_or_tensor, DensityMatrix) and np.shape(state_or_tensor) == (3, 3)
    t = _given_cells(state_or_tensor) if given else _state_cells(state_or_tensor)
    return _chsh_max(_svd(_tensor_array(t)))


def _chsh_bound(s: list) -> float:
    return 2.0 * sqrt(s[0] ** 2 + s[1] ** 2)


def _chsh_max(svd) -> ChshResult:
    u, s, vt = svd
    value = _chsh_bound(s)
    if value > 0:
        chi = atan2(s[1], s[0])
        c, d = cos(chi), sin(chi)
        v1, v2, _ = vt.tolist()
        directions = ([row[0] for row in u], [c * x + d * y for x, y in zip(v1, v2)],
                      [c * x - d * y for x, y in zip(v1, v2)], [row[1] for row in u])
    else:
        directions = (X_AXIS.tolist(),) * 4
    return ChshResult(value=value, directions=dict(zip("abcd", map(list, directions))))


# --------------------------------------------------------------------------
# steering report

@dataclass(frozen=True)
class SteeringReport:
    """Numbers behind the steering inequality and the CHSH diagnostics."""

    p: float | None
    tensor: np.ndarray
    lhs: float
    rhs_all_entries: float
    rhs_diagonal: float
    inequality_holds: bool
    chsh_max: float
    bell_violated: bool
    correlation_forms: dict
    max_directions: dict
    notes: tuple

    def as_dict(self) -> dict:
        return {**asdict(self), "tensor": self.tensor.tolist(), "notes": list(self.notes)}


def correlation_forms(state, k1, k2, grid_pair: QuadratureGrid,
                      grid_single: QuadratureGrid) -> dict:
    """All four correlation-function forms at one direction pair, each
    k1^T T_f k2 of its tensor."""
    return _forms(state, k1, k2, _FORMS, grid_pair, grid_single)


def _form_spread(forms: dict) -> float:
    return max(abs(x - y) for x in forms.values() for y in forms.values())


def steering_check(state, k1=Z_AXIS, k2=Z_AXIS,
                   grid_pair: QuadratureGrid | None = None,
                   grid_single: QuadratureGrid | None = None,
                   p: float | None = None) -> SteeringReport:
    """Evaluate the steering inequality and CHSH diagnostics for a state.

    ``k1``/``k2`` pick the direction pair at which the four correlation
    forms are reported (default: both along z).
    """
    grid_pair = make_grid(spheres=2) if grid_pair is None else grid_pair
    grid_single = make_grid(spheres=1) if grid_single is None else grid_single
    cells = _form_cells(_four_by_four(state), _FORMS, grid_pair, grid_single)
    t = _real_cells(cells[0])  # the direct form's tensor is T
    forms = _form_values(cells, _FORMS, as_direction(k1).tolist(), as_direction(k2).tolist())
    tensor = _tensor_array(t)
    svd = _svd(tensor)  # one SVD for both maxima
    lhs, d1, d2 = _max_correlation(t, svd)
    chsh = _chsh_bound(svd[1])
    # the sums in numpy's order for nine and three entries
    rhs_all = 2.0 / 3.0 * ((((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7])))
                           + t[8])
    notes = (NOTE_SUM_READINGS,) if p is None else (NOTE_SUM_READINGS, NOTE_WERNER_DOMAIN)
    return SteeringReport(
        p=p, tensor=tensor, lhs=lhs, rhs_all_entries=rhs_all,
        rhs_diagonal=2.0 / 3.0 * ((t[0] + t[4]) + t[8]), inequality_holds=lhs >= rhs_all,
        chsh_max=chsh, bell_violated=chsh > 2.0, correlation_forms=forms,
        max_directions={"k1": d1, "k2": d2}, notes=notes)


@dataclass(frozen=True)
class WernerReport:
    """Aggregated Werner-family diagnostics around one parameter value."""

    p: float
    correlation_zz: float
    steering: SteeringReport
    correlation_form_spread: float
    tomogram_spot_checks: dict
    kernel_mapping_residual: dict
    notes: tuple

    def as_dict(self) -> dict:
        return {**self.steering.as_dict(), "correlation_zz": self.correlation_zz,
                "correlation_form_spread": self.correlation_form_spread,
                "tomogram_spot_checks": self.tomogram_spot_checks,
                "kernel_mapping_residual": self.kernel_mapping_residual, "notes": list(self.notes)}


def werner_report(p: float, grid_pair: QuadratureGrid | None = None,
                  grid_single: QuadratureGrid | None = None,
                  n_spot_points: int = 12) -> WernerReport:
    """Full Werner-state analysis at parameter ``p``.

    Aggregates E(z, z), the correlation tensor and steering/CHSH numbers,
    the four correlation-function forms with their spread, spot checks of
    both tomograms against their closed forms, and the kernel-mapping
    residual in both directions.
    """
    grid_pair = make_grid(spheres=2) if grid_pair is None else grid_pair
    grid_single = make_grid(spheres=1) if grid_single is None else grid_single
    from .kernel import map_state_qudit_to_two_qubit, map_state_two_qubit_to_qudit
    state = werner(p)
    report = steering_check(state, Z_AXIS, Z_AXIS, grid_pair, grid_single, p=p)
    rng = np.random.default_rng(97)  # the same spot-check points on every call
    # per spot point: alpha, beta of the qudit rotation, theta1, theta2, phi1, phi2
    draws = rng.uniform(0.0, (2 * pi, pi, pi, pi, 2 * pi, 2 * pi), (n_spot_points, 6))
    alpha, beta, th1, th2, ph1, ph2 = draws.T.tolist()
    qudit = PointSet(FramePointQudit, np.array(QUDIT_PROJECTIONS)[:, None], *draws.T[:2])
    pairs = [(m1, m2) for m1 in TWO_QUBIT_PROJECTIONS for m2 in TWO_QUBIT_PROJECTIONS]
    pair = PointSet(FramePoint2Q, np.array(pairs)[:, None], draws[:, [4, 5]], draws[:, [2, 3]])
    direct_q, direct_2q = tomograms(state, qudit), tomograms(state, pair)
    closed_q = [[werner_qudit_tomogram_closed(m, p, a, b) for a, b in zip(alpha, beta)]
                for m in QUDIT_PROJECTIONS]
    closed_2q = [[werner_two_qubit_tomogram_closed(p, m1, m2, *angles)
                  for angles in zip(th1, th2, ph1, ph2)] for m1, m2 in pairs]
    mapped_q = map_state_two_qubit_to_qudit(state, grid_pair, qudit)
    mapped_2q = map_state_qudit_to_two_qubit(state, grid_single, pair)
    qudit_dev, pair_dev, map_dev_p2q, map_dev_q2p = (
        np.abs(x - y).max(initial=0.0) for x, y in ((direct_q, closed_q), (direct_2q, closed_2q),
                                                    (mapped_q, direct_q), (mapped_2q, direct_2q)))

    return WernerReport(
        p=float(p),
        correlation_zz=report.correlation_forms["direct"],
        steering=report,
        correlation_form_spread=_form_spread(report.correlation_forms),
        tomogram_spot_checks={"qudit_closed_form_max_dev": float(qudit_dev),
                              "two_qubit_closed_form_max_dev": float(pair_dev),
                              "n_points": n_spot_points},
        kernel_mapping_residual={"qudit_to_two_qubit": float(map_dev_q2p),
                                 "two_qubit_to_qudit": float(map_dev_p2q)},
        notes=tuple(list(report.notes) + [NOTE_ZZ_RESTRICTION]),
    )
