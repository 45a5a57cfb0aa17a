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

The trace definition is authoritative. The kernels at one point, and the
paper's explicit closed form of the qudit-to-pair kernel with the report
that cross-checks it, are diagnostics in :mod:`spintomo.paper_forms`; no
map reads them.
"""

from __future__ import annotations

import numpy as np

from .matcore import BASIS_QUDIT, BASIS_TWO_QUBIT, DensityMatrix
from .frames import (FramePoint2Q, FramePointQudit, PointSet, QuadratureGrid, _point_symbol,
                     _real_trace, _reconstruction, _synthesize)


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
