"""Per-node reference paths the vectorized frame operations are checked against.

Each function visits the frame points one at a time, through the public
per-point operators (``tomogram``, the quantizers), so it shares no arithmetic
with the grid primitives in :mod:`spintomo.frames`.
"""

import numpy as np

from spintomo import frames
from spintomo.frames import (
    QUDIT_PROJECTIONS,
    TWO_QUBIT_PROJECTIONS,
    FramePoint2Q,
    FramePointQudit,
    tomogram,
)
from spintomo.matcore import BASIS_QUDIT, BASIS_TWO_QUBIT
from spintomo.su2 import EulerAngles


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
