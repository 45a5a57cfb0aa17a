"""Dequantizer/quantizer operator frames for the two state pictures.

A spin tomogram is an ordinary probability distribution that fully encodes
a quantum state: for each frame point x (spin projections plus rotation
angles) the tomogram value is Tr(rho * U(x)) for a positive "dequantizer"
operator U(x), and the state is recovered as the weighted sum/integral of
tomogram values against a companion "quantizer" family D(x).

Both pictures use one construction, the spin-j frame of rotated projectors
U^dag |m><m| U: the qudit frame is j = 3/2 on one sphere, the two-qubit
frame a product of two j = 1/2 frames. The qubit factor at azimuth phi is
the rotated projector at pi - phi, which is the paper's (1/2) I + m F with
F = k . sigma along k = (-sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)).
Every row of U is row m of d^j, from the table of Wigner's sum in
:mod:`spintomo.su2`, times the column phases exp(i m' azimuth). The grid
tables, a :class:`PointSet` and the point operators share one function for
arrays of such rows, :func:`_set_rows`, which builds each point's row from
its own angles alone, so at a node they agree bit for bit. A point value
needs no operator: Tr(A U) = v A v^dag, v the point's row of U (for two
qubits the Kronecker product of the factor rows). A point builds v in
Python floats on its first read and keeps it, read-only, so every later
read of the same point is one vector-matrix product. A :class:`PointSet`'s
values are one product W vec(A), each row of W being v (x) conj(v).

The quantizer is the canonical dual D(x) = S^-1 U(x), S = int |U(x)><U(x)|
being the frame superoperator. S is 8 pi^2 / (2L+1) on multipole rank L,
so S^-1 = (1/8 pi^2) sum_L (2L+1) P_L, with P_L the eigenprojector of the
Casimir superoperator X -> sum_i [J_i, [J_i, X]] for L(L+1) (D'Ariano,
Maccone & Paini, J. Opt. B 5, 77 (2003); Man'ko & Man'ko, JETP 85, 430
(1997)). It needs the spin matrices only, not the grid; for j = 1/2 it is
the paper's qubit quantizer ((1/2) I + 3 m F) / 8 pi^2.

The paper's explicit qudit quantizer misses the reconstruction identity on
generic states. It is a diagnostic only, in :mod:`spintomo.paper_forms`,
which no frame operation imports: :func:`qudit_quantizer_authority` loads
it on request and caches its report per grid.

On a grid each picture is a pair of factor frames: the two-qubit picture
is (spin-1/2, spin-1/2), the qudit picture (spin-3/2, the one-point frame
of C^1, whose analysis, synthesis and Gram are all [[1]]). Every grid
operation is then one expression for both pictures, on the operator
regrouped by factor, R[(a c), (b d)] = A[(a b), (c d)]: analysis (Tr(A U)
at every frame point) is a1 R a2^T, synthesis (the weighted sum of node
values against the quantizers) is b1^T V b2 regrouped back. Tabulating a
tomogram is analysis alone; mapping given node values is synthesis alone.
A round trip of an operator (reconstruction, the frame pairings behind the
correlation forms of :mod:`spintomo.steering`, and so the state maps in
:mod:`spintomo.kernel`) never forms the node values: by associativity it is
vec(A) G with the picture's 16 x 16 operator-space Gram, the Kronecker
product of the factor Grams a^T b; reconstruction applies it to the state's
Hermitian part, whose symbols are the real tomogram. Built from the grid's
own tables, the Gram is the identity on an exact grid and keeps every
defect of a coarse one. On every product grid it is self-adjoint for the
trace pairing, Pi G^T Pi = G with Pi the swap of vec(A) and vec(A^T), so a
frame pairing gives one number whichever operator takes the symbol side.

Angular integrals use a product quadrature: uniform azimuth nodes, Gauss-
Legendre nodes in cos(polar), and an analytic 2*pi factor for the third
Euler angle (no frame operator depends on it). Every integrand produced by
the frame operators is a trigonometric polynomial within the default
scheme's exactness degree, so "numerical" integration is exact to roundoff.
Every table is built from the node arrays of the grid it is given, and
every frame cache is keyed by that grid object: :func:`make_grid` is the
one place node counts become nodes, and it returns one shared, read-only
grid per node count, so equal counts share their tables.
"""

from __future__ import annotations

import cmath
import io
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import cos, isqrt, pi, sin
from operator import mul

import numpy as np

from .matcore import (BASIS_QUDIT, BASIS_TWO_QUBIT, MIN_AZIMUTH_NODES, MIN_POLAR_NODES,
                      DensityMatrix, _kron, state_matrix)
from .su2 import EulerAngles, _wigner_d_array, _wigner_d_row, spin_projections, twice

TWO_QUBIT_PROJECTIONS = (0.5, -0.5)
QUDIT_PROJECTIONS = (1.5, 0.5, -0.5, -1.5)

#: Largest number of nodes (azimuth x polar) on one rotation sphere: 32x32.
#: It bounds the Gauss-Legendre solve and the frame tables.
MAX_SPHERE_NODES = 1024

#: Largest full-grid tomogram table: the 16x16 two-sphere table. A
#: two-sphere table at the node cap would have 4 * 1024^2 rows (235 MB as
#: the row array alone); tomogram_table refuses it before building.
MAX_TABLE_ROWS = 4 * 256**2

#: Rows TomogramTable.to_csv formats and writes at a time.
CSV_BLOCK_ROWS = 1024

#: Total measure of one rotation sphere, third Euler angle included:
#: int dphi int sin(theta) dtheta int dpsi = 2pi * 2 * 2pi.
FULL_SPHERE_MEASURE = 8.0 * pi**2


# --------------------------------------------------------------------------
# frame points

def _check_projection(m, allowed, label):
    m2 = twice(m)
    if m2 not in tuple(twice(a) for a in allowed):
        raise ValueError(f"projection {label}={m} not in {allowed}")
    return m2 / 2.0


class _FramePoint:
    """Base of the frame point types. A point's row v of U is the cached
    property ``_row``: built on the point's first read, kept read-only and
    not a field, so equality, hash, repr, copies and pickles see the fields
    only."""

    def __getstate__(self):
        return {name: value for name, value in vars(self).items() if name != "_row"}


def _read_only(values) -> np.ndarray:
    v = np.array(values)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class FramePoint2Q(_FramePoint):
    """Frame point of the two-qubit picture: projections and one rotation
    per qubit. The third Euler angle of each rotation is carried but does
    not enter the frame operators."""

    m1: float
    m2: float
    n1: EulerAngles
    n2: EulerAngles

    def __post_init__(self):
        object.__setattr__(self, "m1", _check_projection(self.m1, TWO_QUBIT_PROJECTIONS, "m1"))
        object.__setattr__(self, "m2", _check_projection(self.m2, TWO_QUBIT_PROJECTIONS, "m2"))

    @cached_property
    def _row(self) -> np.ndarray:
        """The Kronecker product of the two factor rows."""
        r1, r2 = _point_row(0.5, self.m1, self.n1), _point_row(0.5, self.m2, self.n2)
        return _read_only([a * b for a in r1 for b in r2])


@dataclass(frozen=True)
class FramePointQudit(_FramePoint):
    """Frame point of the spin-3/2 picture: one projection, one rotation."""

    m: float
    n: EulerAngles

    def __post_init__(self):
        object.__setattr__(self, "m", _check_projection(self.m, QUDIT_PROJECTIONS, "m"))

    @cached_property
    def _row(self) -> np.ndarray:
        return _read_only(_point_row(1.5, self.m, self.n))


# --------------------------------------------------------------------------
# quadrature

@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product quadrature over one or two rotation spheres.

    Per sphere: the ``n_azimuth`` nodes of ``azimuth`` (weight 2pi/n each),
    the ``n_polar`` nodes of ``polar`` with the weights ``polar_weight`` in
    cos(polar), and the constant factor 2pi for the third angle folded into
    the weights. :func:`make_grid` gives uniform azimuths and Gauss-Legendre
    polar nodes, whose weights per sphere sum to 8*pi^2; a grid built here
    directly is tabulated at its own nodes all the same. A grid compares and
    hashes by identity, the key of every frame cache. Every grid operation
    refuses one whose counts disagree with its node arrays.
    """

    n_azimuth: int
    n_polar: int
    spheres: int
    azimuth: np.ndarray = field(repr=False)
    polar: np.ndarray = field(repr=False)
    polar_weight: np.ndarray = field(repr=False)

    @property
    def n_sphere_nodes(self) -> int:
        return self.n_azimuth * self.n_polar

    @property
    def n_angle_nodes(self) -> int:
        return self.n_sphere_nodes ** self.spheres

    def sphere_alpha(self) -> np.ndarray:
        return np.repeat(self.azimuth, self.n_polar)

    def sphere_beta(self) -> np.ndarray:
        return np.tile(self.polar, self.n_azimuth)

    def sphere_weights(self) -> np.ndarray:
        w = np.tile(self.polar_weight, self.n_azimuth)
        return w * (2.0 * pi / self.n_azimuth) * (2.0 * pi)


def _check_node_cap(n_azimuth: int, n_polar: int) -> None:
    """Refuse a sphere of more than :data:`MAX_SPHERE_NODES` nodes."""
    if n_azimuth * n_polar > MAX_SPHERE_NODES:
        raise ValueError(f"grid too fine: at most {MAX_SPHERE_NODES} nodes per sphere, "
                         f"got ({n_azimuth}, {n_polar})")


def make_grid(n_azimuth: int = 8, n_polar: int = 8, spheres: int = 1,
              enforce_minimum: bool = True) -> QuadratureGrid:
    """The angular quadrature grid of these node counts: uniform azimuths
    and Gauss-Legendre polar nodes.

    Below the declared minimum node counts it raises ValueError, unless
    ``enforce_minimum=False``: the one way to a deliberately degraded grid,
    which every grid operation then accepts. Either way the node counts must
    be whole numbers and a sphere holds at most :data:`MAX_SPHERE_NODES` nodes.
    Equal counts give one shared grid, whose node arrays are read-only, so
    its frame tables are built once.
    """
    if spheres not in (1, 2):
        raise ValueError("spheres must be 1 or 2")
    if not (float(n_azimuth).is_integer() and float(n_polar).is_integer()):
        raise ValueError(f"node counts must be whole numbers, got ({n_azimuth}, {n_polar})")
    n_azimuth, n_polar = int(n_azimuth), int(n_polar)
    if enforce_minimum and (n_azimuth < MIN_AZIMUTH_NODES or n_polar < MIN_POLAR_NODES):
        raise ValueError(
            f"grid too coarse: need at least {MIN_AZIMUTH_NODES} azimuth and "
            f"{MIN_POLAR_NODES} polar nodes, got ({n_azimuth}, {n_polar})"
        )
    if n_azimuth < 1 or n_polar < 1:
        raise ValueError("node counts must be positive")
    _check_node_cap(n_azimuth, n_polar)
    return _shared_grid(n_azimuth, n_polar, int(spheres))


# Unbounded, so that equal counts always give the same grid and so the same
# frame tables: the node cap leaves a few thousand count pairs of small arrays.
@lru_cache(maxsize=None)
def _shared_grid(n_azimuth: int, n_polar: int, spheres: int) -> QuadratureGrid:
    x, wx = _gauss_legendre(n_polar)
    return QuadratureGrid(n_azimuth=n_azimuth, n_polar=n_polar, spheres=spheres,
                          azimuth=_read_only(2.0 * pi * np.arange(n_azimuth) / n_azimuth),
                          polar=_read_only(np.arccos(x)), polar_weight=_read_only(wx))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit
    those of ``numpy.polynomial.legendre.leggauss(n)``, by its steps (so no
    grid imports numpy.polynomial): the eigenvalues of the symmetric
    companion matrix, one Newton step, weights from P_(n-1) and P_n',
    symmetrized and scaled to sum 2."""
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scale[:n - 1] * scale[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_n = np.zeros(n + 1)
    p_n[-1] = 1.0
    dp_n = np.zeros(n)  # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    dp_n[n - 1::-2] = np.arange(2 * n - 1, 0, -4)
    dy, df = _legendre_series(x, p_n), _legendre_series(x, dp_n)
    x -= dy / df
    fm = _legendre_series(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _legendre_series(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] P_k(x) by numpy's ``legval`` Clenshaw recurrence, step for step."""
    if len(c) < 3:
        return c[0] + (c[1] if len(c) == 2 else 0) * x
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


# --------------------------------------------------------------------------
# the spin-j frame: rotated projectors and their multipole dual

def _phase_array(j: float, azimuth: np.ndarray) -> np.ndarray:
    """exp(i m' azimuth) at each azimuth of an array (rows) over the columns
    m' of U, by descending m'; the qubit's azimuth phi enters as pi - phi."""
    return np.exp(1j * np.multiply.outer(pi - azimuth if j == 0.5 else azimuth, _projections(j)))


def _phases(j: float, azimuth: float) -> list:
    """:func:`_phase_array` at one azimuth, as Python complex numbers."""
    if j == 0.5:
        return [cmath.exp(complex(0.0, (pi - azimuth) * m)) for m in TWO_QUBIT_PROJECTIONS]
    return [cmath.exp(complex(0.0, azimuth * m)) for m in QUDIT_PROJECTIONS]


def _rank_one(rows: np.ndarray) -> np.ndarray:
    """U^dag |m><m| U = conj(r)^T r for each row r of U in the stack."""
    return rows.conj()[..., :, None] * rows[..., None, :]


@lru_cache(maxsize=None)
def _projections(j: float) -> np.ndarray:
    """:func:`spin_projections` of spin j, built once and read-only."""
    m = spin_projections(j)
    m.flags.writeable = False
    return m


def _point_projector(j: float, m: float, angles: EulerAngles) -> np.ndarray:
    """The dequantizer at one point, from its row in a one-point :func:`_set_rows`."""
    return _rank_one(_set_rows(j, np.array([m]), np.array([angles.azimuth]),
                               np.array([angles.polar])))[0]


def _point_row(j: float, m: float, angles: EulerAngles) -> list:
    """Row m of U at one rotation, row m of d^j times the phases, as scalars."""
    return list(map(mul, _wigner_d_row(round(2 * j), round(j - m), angles.polar),
                    _phases(j, angles.azimuth)))


def _set_rows(j: float, m: np.ndarray, azimuth: np.ndarray, polar: np.ndarray) -> np.ndarray:
    """Row m of U at each point of arrays of projections and angles, each
    from its own angles alone: d^j(polar)[m] * exp(i m' azimuth) over the
    columns m'. The grid tables, point sets and point operators all build
    their rows here. The third Euler angle cancels in the projector
    U^dag |m><m| U; the qubit factor measures its azimuth the other way
    round, so the spin-1/2 frame at phi is the rotated projector at azimuth
    pi - phi, i.e. (1/2) I + m F(phi, theta)."""
    d = _wigner_d_array(round(2 * j), polar)
    return d[np.arange(len(m)), np.rint(j - m).astype(int)] * _phase_array(j, azimuth)


#: A point set's picture by point type: basis, spin, projections, label per sphere.
_SET_PICTURES = {FramePointQudit: (BASIS_QUDIT, 1.5, QUDIT_PROJECTIONS, ("m",)),
                 FramePoint2Q: (BASIS_TWO_QUBIT, 0.5, TWO_QUBIT_PROJECTIONS, ("m1", "m2"))}


class PointSet:
    """n frame points of one picture, read as one matrix product.

    ``picture`` is the point type, :class:`FramePointQudit` or
    :class:`FramePoint2Q`. Projections ``m`` and the ``azimuth`` and
    ``polar`` angles broadcast together into the set's ``shape``; for two
    qubits they carry a last axis of length 2 over the qubits. They are
    checked as the point constructors check them. ``rows`` stacks each
    point's row v of U, ``functionals`` the vectors w = v (x) conj(v), so
    Tr(A U(x)) = w . vec(A) at every point at once.
    """

    def __init__(self, picture, m, azimuth, polar):
        if picture not in _SET_PICTURES:
            raise TypeError("picture must be FramePoint2Q or FramePointQudit")
        self.picture, (self.basis, j, allowed, labels) = picture, _SET_PICTURES[picture]
        m, azimuth, polar = np.broadcast_arrays(np.asarray(m), np.asarray(azimuth, dtype=float),
                                                np.asarray(polar, dtype=float))
        if len(labels) == 2 and m.shape[-1:] != (2,):
            raise ValueError("a two-qubit point set needs a last axis of length 2 (the qubits)")
        self.shape = m.shape[:m.ndim + 1 - len(labels)]
        m = m.ravel()
        m2 = 2.0 * m.astype(float)
        r2 = np.rint(m2)
        with np.errstate(invalid="ignore"):  # NaN and infinities are bad by the parity test
            bad = (abs(m2 - r2) > 1e-9) | (abs(r2) > 2 * j) | ((r2 + 2 * j) % 2 != 0)
        if bad.any():  # the first bad projection raises as the point constructors do
            i = bad.argmax()
            _check_projection(m[i].item(), allowed, labels[i % len(labels)])
        for name, angle in (("azimuth", azimuth), ("polar", polar)):
            if not np.isfinite(angle).all():  # the first one, as EulerAngles reports it
                bad = angle[~np.isfinite(angle)][0]
                raise ValueError(f"angle {name} must be finite, got {bad}")
        polar = np.minimum(np.maximum(polar.ravel(), 0.0), pi)  # clamped as EulerAngles does
        v = _set_rows(j, r2 / 2.0, azimuth.ravel(), polar).reshape(-1, len(labels), len(allowed))
        if len(labels) == 2:  # the Kronecker product of the qubit rows
            v = (v[:, 0, :, None] * v[:, 1, None, :]).reshape(-1, 1, 4)
        self.rows = v = v[:, 0]
        self.functionals = (v[:, :, None] * v.conj()[:, None, :]).reshape(-1, 16)

    def read(self, op: np.ndarray, tol: float, what: str = "trace") -> np.ndarray:
        """Re Tr(op U(x)) at every point, W vec(op) in the set's shape, after
        :func:`_real_trace`'s check of the largest imaginary residue."""
        values = np.dot(self.functionals, op.reshape(-1))
        if values.size:
            _real_trace(values[np.abs(values.imag).argmax()], tol, what)
        return values.real.reshape(self.shape)


@lru_cache(maxsize=8)
def _multipole_dual(dim: int) -> np.ndarray:
    """S^-1 = (1/8 pi^2) sum_L (2L+1) P_L for spin j = (dim - 1)/2.

    Acts on row-major flattened dim x dim operators. P_L is the eigenspace
    of the Casimir superoperator sum_i ad(J_i)^2 for L(L+1), and
    2L+1 = sqrt(1 + 4 L(L+1)).
    """
    j = (dim - 1) / 2.0
    m = spin_projections(j)
    raising = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1)
    spin = ((raising + raising.T) / 2, (raising - raising.T) / 2j, np.diag(m))
    eye = np.eye(dim)
    casimir = sum(ad @ ad for ad in (np.kron(s, eye) - np.kron(eye, s.T) for s in spin))
    level, vectors = np.linalg.eigh(casimir)
    multiplicity = np.rint(np.sqrt(1.0 + 4.0 * level))
    return (vectors * multiplicity) @ vectors.conj().T / FULL_SPHERE_MEASURE


def _dual(ops: np.ndarray) -> np.ndarray:
    """Quantizers S^-1 U of a (..., dim, dim) dequantizer stack."""
    dim = ops.shape[-1]
    return (ops.reshape(-1, dim * dim) @ _multipole_dual(dim).T).reshape(ops.shape)


def _regroup(mat: np.ndarray, d1: int, d2: int, inverse: bool = False) -> np.ndarray:
    """Regroup an operator on C^d1 (x) C^d2 by factor: A[(a b), (c d)] to
    R[(a c), (b d)], a d1^2 x d2^2 matrix; ``inverse`` takes R back to A.
    The outer product of two flattened factors regroups back to their
    Kronecker product; for d2 = 1, R is the flattened A as a column."""
    if inverse:
        return mat.reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)
    return mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)


def dequantizer_2q(point: FramePoint2Q) -> np.ndarray:
    """Product of the two single-qubit projectors; Hermitian, trace 1."""
    return _kron(_point_projector(0.5, point.m1, point.n1),
                 _point_projector(0.5, point.m2, point.n2))


def quantizer_2q(point: FramePoint2Q) -> np.ndarray:
    """Product of the two single-qubit dual factors, each carrying the
    1/(8 pi^2) sphere normalization."""
    return _kron(_dual(_point_projector(0.5, point.m1, point.n1)),
                 _dual(_point_projector(0.5, point.m2, point.n2)))


def dequantizer_qudit(point: FramePointQudit) -> np.ndarray:
    """Rotated projector U^dag |m><m| U; rank-1, independent of the third
    Euler angle (the two row phases cancel)."""
    return _point_projector(1.5, point.m, point.n)


def quantizer_qudit(point: FramePointQudit) -> np.ndarray:
    """Multipole dual of the qudit dequantizer at a frame point."""
    return _dual(dequantizer_qudit(point))


def _point_picture(point) -> tuple:
    """(basis, quantizer) of the picture a frame point's type selects."""
    if isinstance(point, FramePoint2Q):
        return BASIS_TWO_QUBIT, quantizer_2q
    if isinstance(point, FramePointQudit):
        return BASIS_QUDIT, quantizer_qudit
    raise TypeError("point must be FramePoint2Q or FramePointQudit")


def _point_symbol(op: np.ndarray, point) -> complex:
    """Tr(op U(point)) = v op v^dag, v the point's row of U, without forming
    U. Callers check the point's type; an op of another shape than U raises
    ValueError."""
    v = point._row
    if op.shape != (len(v), len(v)):
        raise ValueError(f"cannot read a {op.shape} operator at a {len(v)}-level frame point")
    return np.vdot(v, np.dot(v, op))  # v op v^dag, vdot conjugating v


# --------------------------------------------------------------------------
# cached per-grid frame tables, analysis and synthesis

class _SphereTables:
    """Dequantizer and dual stacks of the spin-j frame on one sphere.

    ``analysis`` (a) maps a row-major flattened operator A to Tr(A U) at
    every (projection, node), the ``axes`` of its rows; ``synthesis`` (b)
    maps node values back to the flattened weighted sum of quantizers.
    Their operator-space Gram ``gram`` = a^T b (dim^2 x dim^2) is the whole
    round trip on this grid: synthesis of the analysis of A is vec(A) a^T b.
    On an exact grid it is the identity; on a coarse one it carries the
    grid's defects. Any grid's own nodes are tabulated, on one sphere
    whatever the grid's sphere count.
    """

    def __init__(self, j: float, grid: QuadratureGrid):
        self.weights = grid.sphere_weights()
        m = _projections(j)
        dim = len(m)
        self.axes = (dim, grid.n_sphere_nodes)  # projections by descending m, nodes
        rows = _set_rows(j, np.repeat(m, grid.n_sphere_nodes), np.tile(grid.sphere_alpha(), dim),
                         np.tile(grid.sphere_beta(), dim))
        self.dequantizer = _rank_one(rows).reshape(self.axes + (dim, dim))
        self.quantizer = _dual(self.dequantizer)
        self.analysis = self.dequantizer.swapaxes(-1, -2).reshape(-1, dim * dim)
        self.synthesis = (self.quantizer * self.weights[:, None, None]).reshape(-1, dim * dim)
        self.gram = self.analysis.T @ self.synthesis


class _OnePointTables:
    """The frame of C^1 on any grid: U = D = 1 at one point of weight 1, so
    analysis, synthesis and Gram are [[1]] and there are no axes."""

    axes = ()
    analysis = synthesis = gram = np.ones((1, 1))

    def __init__(self, grid: QuadratureGrid):
        pass  # the grid does not enter


@lru_cache(maxsize=8)
def _two_qubit_tables(grid: QuadratureGrid) -> _SphereTables:
    return _SphereTables(0.5, grid)


@lru_cache(maxsize=8)
def _qudit_tables(grid: QuadratureGrid) -> _SphereTables:
    return _SphereTables(1.5, grid)


#: Each picture as its pair of factor frames, by table builder.
_PICTURES = {
    BASIS_TWO_QUBIT: (_two_qubit_tables, _two_qubit_tables),
    BASIS_QUDIT: (_qudit_tables, _OnePointTables),
}


#: Rotation spheres each picture's grid covers: one per factor frame other
#: than the one-point frame.
_SPHERES = {representation: sum(tables is not _OnePointTables for tables in factors)
            for representation, factors in _PICTURES.items()}


class _PictureFrame:
    """One picture on one grid: its factor tables, factor dimensions, the
    shape of its node values and its operator-space Gram, the Kronecker
    product of the factor Grams permuted into row-major operator order."""

    def __init__(self, first, second):
        self.factors = (first, second)
        self.dims = (isqrt(first.analysis.shape[1]), isqrt(second.analysis.shape[1]))
        self.shape = first.axes + second.axes  # (projection, node) per sphere
        dim = self.dims[0] * self.dims[1]
        order = np.argsort(_regroup(np.arange(dim * dim).reshape(dim, dim), *self.dims).ravel())
        self.gram = np.kron(first.gram, second.gram)[np.ix_(order, order)]

    def closure(self, op: np.ndarray) -> np.ndarray:
        """vec(op) G: the round trip of op through this picture's grid."""
        return np.dot(op.reshape(-1), self.gram).reshape(op.shape)


@lru_cache(maxsize=16)
def _picture_frame(representation: str, grid: QuadratureGrid) -> _PictureFrame:
    """The picture's frame on the grid, built once per grid object, and only
    for a grid whose counts are within the node cap and say how many nodes
    its node arrays hold; every grid operation reaches it before a result."""
    _check_node_cap(grid.n_azimuth, grid.n_polar)
    shapes = grid.azimuth.shape, grid.polar.shape, grid.polar_weight.shape
    if shapes != ((grid.n_azimuth,), (grid.n_polar,), (grid.n_polar,)):
        raise ValueError(f"grid counts ({grid.n_azimuth}, {grid.n_polar}) disagree with its node "
                         f"arrays: azimuth, polar and polar weight of shapes {shapes}")
    return _PictureFrame(*(tables(grid) for tables in _PICTURES[representation]))


def _check_picture(representation: str, grid: QuadratureGrid) -> None:
    """The check every grid operation passes first: a known picture on a
    grid of its sphere count."""
    if representation not in _SPHERES:
        raise ValueError(f"unknown representation {representation!r}")
    spheres = _SPHERES[representation]
    if grid.spheres != spheres:
        raise ValueError(f"grid covers {grid.spheres} sphere(s), {spheres} required")


def _frame(representation: str, grid: QuadratureGrid) -> _PictureFrame:
    """The picture's cached frame on the grid, after :func:`_check_picture`."""
    _check_picture(representation, grid)
    return _picture_frame(representation, grid)


def _analyze(op: np.ndarray, representation: str, grid: QuadratureGrid) -> np.ndarray:
    """Symbols Tr(op * U(x)) at every frame point of the grid, a1 R a2^T.

    Shape (4, n) in the qudit picture (projection, node) and (2, n, 2, n)
    in the two-qubit picture (m1, node1, m2, node2); complex.
    """
    frame = _frame(representation, grid)
    first, second = frame.factors
    return (first.analysis @ _regroup(op, *frame.dims) @ second.analysis.T).reshape(frame.shape)


def _synthesize(values: np.ndarray, representation: str, grid: QuadratureGrid) -> np.ndarray:
    """Weighted sum of node values (in the :func:`_analyze` layout) against
    the quantizers, b1^T V b2: the 4x4 operator whose symbols the values
    are, when the grid is exact. Values of any other shape raise ValueError."""
    frame = _frame(representation, grid)
    if values.shape != frame.shape:
        raise ValueError(f"node values must have shape {frame.shape}, got {values.shape}")
    b1, b2 = (tables.synthesis for tables in frame.factors)
    return _regroup(b1.T @ (values.reshape(len(b1), len(b2)) @ b2), *frame.dims, inverse=True)


# --------------------------------------------------------------------------
# the explicit quantizer report (on demand)

@lru_cache(maxsize=8)
def qudit_quantizer_authority(n_azimuth: int = MIN_AZIMUTH_NODES,
                              n_polar: int = MIN_POLAR_NODES):
    """:func:`spintomo.paper_forms.qudit_quantizer_report`, cached per grid:
    the check of the paper's explicit qudit quantizer on one grid."""
    from .paper_forms import qudit_quantizer_report
    return qudit_quantizer_report(n_azimuth, n_polar)


# --------------------------------------------------------------------------
# tomograms

def _four_by_four(state) -> np.ndarray:
    rho = state_matrix(state)
    if rho.shape != (4, 4):
        raise ValueError("tomographic frames act on 4x4 states")
    return rho


def _check_basis(state, expected: str) -> np.ndarray:
    rho = _four_by_four(state)
    if isinstance(state, DensityMatrix) and state.basis is not None and state.basis != expected:
        raise ValueError(f"state is tagged {state.basis!r} but {expected!r} was requested")
    return rho


def _real_trace(value: complex, tol: float, what: str = "trace") -> float:
    if abs(value.imag) > tol:
        raise ArithmeticError(f"{what} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def tomogram(state, point) -> float:
    """Tomogram value Tr(rho * dequantizer(point)) for either picture.

    The point type selects the picture; a DensityMatrix tagged with the
    other basis is rejected.
    """
    basis, _ = _point_picture(point)
    return _real_trace(_point_symbol(_check_basis(state, basis), point), 1e-12)


def tomograms(state, points: PointSet) -> np.ndarray:
    """:func:`tomogram` at every point of a set, Re W vec(rho), in the set's
    shape, with the same checks."""
    if not isinstance(points, PointSet):
        raise TypeError("points must be a PointSet")
    return points.read(_check_basis(state, points.basis), 1e-12)


@dataclass(frozen=True)
class TomogramTable:
    """Evaluated tomogram keyed by (projections, grid node).

    ``columns`` names the per-row fields (projections, angles, value);
    ``rows`` is the matching float array. Values are validated against
    [-1e-12, 1 + 1e-12] and per-node normalization; CSV export clamps the
    tiny negative roundoff to zero, the in-memory values stay untouched.

    :meth:`to_csv` writes the table in blocks of :data:`CSV_BLOCK_ROWS`
    rows through one flat list of cells, two more per row than the row has
    columns: the representation with its comma, the key cells, the value's
    ``repr`` and a newline. The list is built once (again only for a shorter last block)
    and carried from block to block; each block is written as one join of
    it. A projection or angle column holds few distinct values and mostly
    repeats the previous block's, so a key column is re-formatted only when
    its bits differ from the previous block's: each distinct bit pattern is
    then formatted once, with its trailing comma (keeping -0.0 apart from
    0.0), and gathered into the column's cells by index. The output is
    exactly that of formatting every cell with ``repr(float(x))``, the value
    as ``max(v, 0.0)`` when ``v >= -1e-12`` (so -0.0 and NaN pass through),
    and the memory it needs is bounded by the block, not the table.
    """

    representation: str
    columns: tuple
    rows: np.ndarray

    def to_csv(self, stream) -> None:
        header = ("representation",) + self.columns
        stream.write(",".join(header) + "\n")
        rows = np.asarray(self.rows, dtype=np.float64)
        cells, previous = [], None
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            width = block.shape[1] + 2  # representation, keys, value, newline
            bits = block[:, :-1].view(np.int64)
            if len(cells) != width * len(block):  # first block, or a shorter last one
                cells = ([self.representation + ","] + [""] * (width - 2) + ["\n"]) * len(block)
            for k, column in enumerate(bits.T):
                if previous is None or not np.array_equal(column, previous[:, k]):
                    keys, inverse = np.unique(column, return_inverse=True)
                    text = np.array([repr(x) + "," for x in keys.view(np.float64).tolist()],
                                    dtype=object)
                    cells[k + 1::width] = text[inverse].tolist()
            previous = bits
            value = block[:, -1].copy()
            value[(value >= -1e-12) & (value < 0.0)] = 0.0
            cells[width - 2::width] = map(repr, value.tolist())
            stream.write("".join(cells))

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def _validate_table(values_by_projection: np.ndarray) -> None:
    # axis 0 runs over projections, axis 1 over nodes
    if values_by_projection.min() < -1e-12 or values_by_projection.max() > 1 + 1e-12:
        raise ArithmeticError("tomogram values leave [0, 1] beyond roundoff")
    norm_defect = np.abs(values_by_projection.sum(axis=0) - 1.0).max()
    if norm_defect > 1e-12:
        raise ArithmeticError(f"tomogram normalization defect {norm_defect:.3e}")


def tomogram_table(state, representation: str, grid: QuadratureGrid) -> TomogramTable:
    """Tomogram of ``state`` over every (projection, grid node) pair.

    The row array is allocated once, shaped as the values (projections
    before nodes) with a trailing column axis, and each key column is filled
    by broadcasting the projections and the grid's sphere nodes into it.
    Raises ValueError when the table would exceed :data:`MAX_TABLE_ROWS`,
    before the picture's frame is built.
    """
    _check_picture(representation, grid)
    rows = 4 * grid.n_angle_nodes  # 4 projections, or 4 projection pairs, per node
    if rows > MAX_TABLE_ROWS:
        raise ValueError(f"table too large: at most {MAX_TABLE_ROWS} rows, got {rows}")
    rho = _check_basis(state, representation)
    values = _analyze(rho, representation, grid).real
    # row order: projections before nodes, (m, node) or (m1, m2, node1, node2)
    values = values.transpose(*range(0, values.ndim, 2), *range(1, values.ndim, 2))
    _validate_table(values.reshape(4, -1))
    alpha, beta = grid.sphere_alpha(), grid.sphere_beta()
    if representation == BASIS_QUDIT:
        columns = ("m", "alpha", "beta")
        keys = (np.array(QUDIT_PROJECTIONS)[:, None], alpha, beta)
    else:
        m = np.array(TWO_QUBIT_PROJECTIONS)
        columns = ("m1", "m2", "theta1", "phi1", "theta2", "phi2")
        keys = (m[:, None, None, None], m[:, None, None], beta[:, None], alpha[:, None],
                beta, alpha)
    table = np.empty(values.shape + (len(keys) + 1,))
    for k, column in enumerate(keys + (values,)):
        table[..., k] = column
    return TomogramTable(representation=representation, columns=columns + ("value",),
                         rows=table.reshape(-1, table.shape[-1]))


# --------------------------------------------------------------------------
# reconstruction

def reconstruct_state(state, representation: str, grid: QuadratureGrid) -> np.ndarray:
    """Round-trip a state through its tomogram: synthesis of its analysis,
    equal up to summation order to the weighted sum of its tomogram values
    against the frame's quantizers. On a grid below the minimum node counts
    (``make_grid(..., enforce_minimum=False)``) it shows that grid's defects.

    Returns a fresh array. Repeat reconstructions of the same matrix on the
    same picture and grid are read from a small memo keyed by the matrix's
    content, so a state mapped to many targets is reconstructed once.
    """
    return _reconstruction(state, representation, grid).copy()


def _reconstruction(state, representation: str, grid: QuadratureGrid) -> np.ndarray:
    """The read-only reconstruction :func:`reconstruct_state` copies."""
    rho = _check_basis(state, representation)
    _check_picture(representation, grid)
    return _reconstruction_memo(rho.tobytes(), representation, grid)


# Keyed by content, not identity (a DensityMatrix's matrix can alias a caller's
# array); four entries hold the reuse within one analysis of one state, no more.
@lru_cache(maxsize=4)
def _reconstruction_memo(key: bytes, representation: str, grid: QuadratureGrid):
    rho = np.frombuffer(key, dtype=complex).reshape(4, 4)
    # the tomogram is Re Tr(rho U) = Tr(((rho + rho^dag) / 2) U) for Hermitian U;
    # the table operators are Hermitian to roundoff, not bit for bit
    frame = _picture_frame(representation, grid)
    return _read_only(frame.closure(0.5 * (rho + rho.conj().T)))


def roundtrip_residual(state, representation: str, grid: QuadratureGrid) -> float:
    """Frobenius norm of (reconstructed - original)."""
    return float(np.linalg.norm(_reconstruction(state, representation, grid) - state_matrix(state)))


# --------------------------------------------------------------------------
# symbols, dual symbols and the trace pairing

def symbol(op, point) -> complex:
    """Tomographic symbol of an operator: Tr(A * dequantizer(point))."""
    _point_picture(point)  # a non-point raises TypeError
    return complex(_point_symbol(np.asarray(op, dtype=complex), point))


def dual_symbol(op, point) -> complex:
    """Dual tomographic symbol: Tr(A * quantizer(point)).

    Pairs with :func:`symbol` under the grid sum to give operator traces:
    sum over projections and nodes of symbol(A) * dual_symbol(rho) equals
    Tr(A rho).
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (4, 4):
        raise ValueError("dual symbols are defined for 4x4 operators here")
    _, quantizer = _point_picture(point)
    return complex((op * quantizer(point).T).sum())


# --------------------------------------------------------------------------
# Werner closed-form tomograms (used as spot-check anchors)

def werner_qudit_tomogram_closed(m: float, p: float, alpha: float, beta: float) -> float:
    """Closed-form spin-3/2 tomogram of the Werner family.

    At beta = 0 the values reduce to (1+p)/4 for m = +-3/2 and (1-p)/4 for
    m = +-1/2.
    """
    m2 = twice(m)
    quarter = 0.25
    if m2 in (3, -3):
        sign = 1.0 if m2 == 3 else -1.0
        return (
            p / 16.0
            + 3.0 * p / 16.0 * cos(2.0 * beta)
            + sign * (3.0 * p / 32.0 * sin(beta) * cos(3.0 * alpha)
                      - p / 32.0 * cos(3.0 * alpha) * sin(3.0 * beta))
            + quarter
        )
    if m2 in (1, -1):
        sign = 1.0 if m2 == 1 else -1.0
        half_angle = 2.0 * sin(1.5 * alpha) ** 2 - 1.0  # = -cos(3 alpha)
        return (
            3.0 * p / 16.0 * (2.0 * sin(beta) ** 2 - 1.0)
            - p / 16.0
            + sign * (-3.0 * p / 32.0 * sin(3.0 * beta) * half_angle
                      + 9.0 * p / 32.0 * sin(beta) * half_angle)
            + quarter
        )
    raise ValueError(f"projection m={m} not in {QUDIT_PROJECTIONS}")


def werner_two_qubit_tomogram_closed(p: float, m1: float, m2: float,
                                     theta1: float, theta2: float,
                                     phi1: float, phi2: float) -> float:
    """Closed-form two-qubit tomogram of the Werner family.

    The azimuthal dependence enters through cos(phi1 + phi2), which keeps
    the value real (a bare product of phase factors would not).
    """
    return 0.25 + p * m1 * m2 * (
        cos(theta1) * cos(theta2) + sin(theta1) * sin(theta2) * cos(phi1 + phi2)
    )
