"""Property tests: bounds every state and direction pair must satisfy.

The cases come from hypothesis with ``derandomize=True``, so every run
draws the same examples.
"""

from math import sqrt

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from spintomo.steering import (  # noqa: E402
    chsh_max,
    chsh_value,
    correlation_forms,
    correlation_tensor,
    steering_check,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

components = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def states(draw):
    """rho = G G^dag / Tr(G G^dag) for a drawn complex 4x4 G, made exactly Hermitian."""
    re = np.array(draw(st.lists(components, min_size=16, max_size=16))).reshape(4, 4)
    im = np.array(draw(st.lists(components, min_size=16, max_size=16))).reshape(4, 4)
    g = re + 1j * im
    rho = g @ g.conj().T
    trace = rho.trace().real
    assume(trace > 1e-3)
    rho = rho / trace
    return (rho + rho.conj().T) / 2


@st.composite
def directions(draw):
    v = np.array(draw(st.lists(components, min_size=3, max_size=3)))
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return v / norm


@pytest.fixture(scope="module")
def grids():
    from spintomo.frames import make_grid

    return make_grid(spheres=2), make_grid(spheres=1)


@SETTINGS
@given(rho=states(), k1=directions(), k2=directions())
def test_correlation_forms_bounded(grids, rho, k1, k2):
    for value in correlation_forms(rho, k1, k2, *grids).values():
        assert abs(value) <= 1 + 1e-12


@SETTINGS
@given(rho=states(), k1=directions(), k2=directions())
def test_report_bounds(grids, rho, k1, k2):
    report = steering_check(rho, k1, k2, *grids)
    # E at any pair stays below the maximum over pairs
    assert report.correlation_forms["direct"] <= report.lhs + 1e-12
    # the CHSH maximum lies between 2 lhs (b = c) and Tsirelson's bound
    assert 2 * report.lhs - 1e-12 <= report.chsh_max <= 2 * sqrt(2) + 1e-12
    # the maximizing directions attain lhs
    d1, d2 = (np.array(report.max_directions[k]) for k in ("k1", "k2"))
    assert d1 @ correlation_tensor(rho) @ d2 == pytest.approx(report.lhs, abs=1e-12)


@SETTINGS
@given(rho=states())
def test_chsh_attained_at_its_directions(rho):
    result = chsh_max(rho)
    a, b, c, d = (result.directions[k] for k in "abcd")
    assert chsh_value(rho, a, b, c, d) == pytest.approx(result.value, abs=1e-12)
