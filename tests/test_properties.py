"""Property tests: bounds every state and direction pair must satisfy,
correlation form maps that read what the frame closures give, point sets
that read what their points read one by one, rows of U with the same bits
alone, in a set and at a grid node, tomograms that are probability
distributions, two-qubit marginals that do not signal, and the facts about
each picture's operator-space Gram G through which alone the grid enters:
G is self-adjoint on every product grid, and G is the identity from the
derived minimum grid up (and, for the qudit, at five azimuth nodes).

The cases come from hypothesis with ``derandomize=True``, so every run
draws the same examples.
"""

from math import pi, sqrt

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from spintomo.frames import (  # noqa: E402
    QUDIT_PROJECTIONS,
    TWO_QUBIT_PROJECTIONS,
    FramePoint2Q,
    FramePointQudit,
    MAX_SPHERE_NODES,
    PointSet,
    _SPHERES,
    _frame,
    _projections,
    _qudit_tables,
    _rank_one,
    _set_rows,
    _two_qubit_tables,
    make_grid,
    tomogram,
    tomograms,
)
from spintomo.kernel import (  # noqa: E402
    map_state_qudit_to_two_qubit,
    map_state_two_qubit_to_qudit,
)
from spintomo.steering import (  # noqa: E402
    chsh_max,
    chsh_value,
    correlation_forms,
    correlation_tensor,
    steering_check,
)
from spintomo.matcore import BASIS_QUDIT, BASIS_TWO_QUBIT, PAULI  # noqa: E402
from spintomo.su2 import EulerAngles  # noqa: E402

from frame_reference import closure, closure_adjoint, form_tensors  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)
#: the form-map cases run at three grids each, so fewer examples per grid
FORM_SETTINGS = settings(SETTINGS, max_examples=40)

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


@st.composite
def operators(draw):
    """A drawn complex 4x4 matrix, in general not Hermitian."""
    parts = [np.array(draw(st.lists(components, min_size=16, max_size=16))) for _ in range(2)]
    return (parts[0] + 1j * parts[1]).reshape(4, 4)


@pytest.fixture(scope="module")
def grids():
    return make_grid(spheres=2), make_grid(spheres=1)


#: (pair grid, single grid) at each node count; 2x2 is below the exact minimum
FORM_GRIDS = {nodes: tuple(make_grid(nodes, nodes, spheres=s, enforce_minimum=False)
                           for s in (2, 1)) for nodes in (2, 8, 16)}
FORMS = ("direct", "tomo_2q_a", "tomo_2q_b", "tomo_qudit")


def closure_tensors(op, pair, single):
    """Each form's tensor Tr(X_f sigma_i (x) sigma_j), X_f built through the
    frame closures and the trace taken entry by entry."""
    ops = (op, closure_adjoint(op, BASIS_TWO_QUBIT, pair), closure(op, BASIS_TWO_QUBIT, pair),
           closure_adjoint(op, BASIS_QUDIT, single))
    return np.array([[[np.trace(x @ np.kron(s, t)) for t in PAULI] for s in PAULI] for x in ops])


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


@pytest.mark.parametrize("nodes", sorted(FORM_GRIDS))
@FORM_SETTINGS
@given(rho=states())
def test_form_maps_read_the_closures(nodes, rho):
    pair, single = FORM_GRIDS[nodes]
    want = closure_tensors(rho, pair, single)
    assert np.abs(form_tensors(rho, FORMS, pair, single) - want).max() <= 1e-14


@pytest.mark.parametrize("nodes", sorted(FORM_GRIDS))
@FORM_SETTINGS
@given(a=operators(), b=operators(), x=components, y=components)
def test_form_maps_are_linear(nodes, a, b, x, y):
    pair, single = FORM_GRIDS[nodes]
    tensors = [form_tensors(op, FORMS, pair, single) for op in (a, b, x * a + y * b)]
    assert np.abs(tensors[2] - (x * tensors[0] + y * tensors[1])).max() <= 1e-13


@st.composite
def point_sets(draw):
    """(picture, m, azimuth, polar) of one to eight frame points of a drawn
    picture; polar angles reach a little beyond [0, pi], where they clamp."""
    picture = draw(st.sampled_from([FramePointQudit, FramePoint2Q]))
    projections = QUDIT_PROJECTIONS if picture is FramePointQudit else TWO_QUBIT_PROJECTIONS
    shape = (draw(st.integers(1, 8)),) + (() if picture is FramePointQudit else (2,))
    size = int(np.prod(shape))

    def values(elements):
        return np.reshape(draw(st.lists(elements, min_size=size, max_size=size)), shape)

    angle = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    polar = st.floats(-0.5, 3.7, allow_nan=False, allow_infinity=False)
    return picture, values(st.sampled_from(projections)), values(angle), values(polar)


@SETTINGS
@given(rho=states(), drawn=point_sets())
def test_point_set_reads_match_the_points(grids, rho, drawn):
    picture, m, azimuth, polar = drawn
    points = PointSet(picture, m, azimuth, polar)
    if picture is FramePointQudit:
        singles = [picture(*x, EulerAngles(a, b)) for x, a, b in zip(m[:, None], azimuth, polar)]
        state_map, grid = map_state_two_qubit_to_qudit, grids[0]
    else:
        singles = [picture(*x, EulerAngles(a[0], b[0]), EulerAngles(a[1], b[1]))
                   for x, a, b in zip(m, azimuth, polar)]
        state_map, grid = map_state_qudit_to_two_qubit, grids[1]
    assert np.abs(points.rows - [p._row for p in singles]).max() <= 1e-15
    assert np.abs(tomograms(rho, points) - [tomogram(rho, p) for p in singles]).max() <= 1e-14
    mapped = [state_map(rho, grid, p) for p in singles]
    assert np.abs(state_map(rho, grid, points) - mapped).max() <= 1e-14


@SETTINGS
@given(j=st.sampled_from([0.5, 1.5]), nodes=st.sampled_from([8, 16, 32]), data=st.data())
def test_a_point_row_has_the_same_bits_alone_in_a_set_and_at_its_node(j, nodes, data):
    # _set_rows is the one array construction of the rows of U: a grid node's
    # row is the same alone, among other points and in the grid's table's batch
    grid = make_grid(nodes, nodes)
    alpha, beta, m = grid.sphere_alpha(), grid.sphere_beta(), _projections(j)
    node, k = data.draw(st.integers(0, len(alpha) - 1)), data.draw(st.integers(0, len(m) - 1))
    alone = _set_rows(j, m[k:k + 1], alpha[node:node + 1], beta[node:node + 1])[0]
    n = data.draw(st.integers(1, 40))
    others = [data.draw(st.lists(elements, min_size=n, max_size=n)) for elements in
              (st.sampled_from(m.tolist()), st.floats(-10.0, 10.0), st.floats(0.0, pi))]
    at = data.draw(st.integers(0, n))
    in_set = _set_rows(j, *(np.insert(x, at, y) for x, y in
                            zip(others, (m[k], alpha[node], beta[node]))))[at]
    table_rows = _set_rows(j, np.repeat(m, len(alpha)), np.tile(alpha, len(m)),
                           np.tile(beta, len(m))).reshape(len(m), len(alpha), -1)
    assert alone.tobytes() == in_set.tobytes() == table_rows[k, node].tobytes()
    tables = _two_qubit_tables if j == 0.5 else _qudit_tables
    assert _rank_one(alone).tobytes() == tables(grid).dequantizer[k, node].tobytes()


@SETTINGS
@given(rho=states(), picture=st.sampled_from([FramePointQudit, FramePoint2Q]),
       data=st.data())
def test_tomograms_are_probabilities(rho, picture, data):
    # every projection (pair) at one to eight random rotations: values (4, n)
    n = data.draw(st.integers(1, 8))
    if picture is FramePointQudit:
        m, shape = np.array(QUDIT_PROJECTIONS)[:, None], (n,)
    else:
        pairs = [(m1, m2) for m1 in TWO_QUBIT_PROJECTIONS for m2 in TWO_QUBIT_PROJECTIONS]
        m, shape = np.array(pairs)[:, None], (n, 2)
    size = int(np.prod(shape))
    azimuth, polar = (np.reshape(data.draw(st.lists(st.floats(lo, hi), min_size=size,
                                                    max_size=size)), shape)
                      for lo, hi in ((-10.0, 10.0), (-0.5, 3.7)))
    values = tomograms(rho, PointSet(picture, m, azimuth, polar))
    assert values.shape == (4, n)
    assert values.min() >= -1e-12 and values.max() <= 1 + 1e-12
    assert np.abs(values.sum(axis=0) - 1).max() <= 1e-12


@SETTINGS
@given(rho=states(), data=st.data())
def test_two_qubit_marginals_do_not_signal(rho, data):
    # one to eight pairs of directions (n1, n2), each with a second n2' and a
    # second n1'; values w(m1, m2 | x) over the point choices x = (n1, n2),
    # (n1, n2'), (n1', n2)
    n = data.draw(st.integers(1, 8))
    azimuth, polar = (np.reshape(data.draw(st.lists(st.floats(lo, hi), min_size=4 * n,
                                                    max_size=4 * n)), (4, n))
                      for lo, hi in ((-10.0, 10.0), (-0.5, 3.7)))
    choices = ((0, 1), (0, 3), (2, 1))  # rows of (first, second) angles per choice

    def sides(angles):
        return np.stack([np.stack([angles[i], angles[k]], axis=-1) for i, k in choices])

    m = np.array([[(m1, m2) for m2 in TWO_QUBIT_PROJECTIONS] for m1 in TWO_QUBIT_PROJECTIONS])
    values = tomograms(rho, PointSet(FramePoint2Q, m[:, :, None, None], sides(azimuth),
                                     sides(polar)))
    assert values.shape == (2, 2, 3, n)
    first, second = values.sum(axis=1), values.sum(axis=0)  # over m2, over m1
    assert np.abs(first[:, 1] - first[:, 0]).max() <= 1e-12  # n2 changed
    assert np.abs(second[:, 2] - second[:, 0]).max() <= 1e-12  # n1 changed


#: each picture's derived minimum grid, (4j + 1, 2j + 1) per sphere: j = 3/2
#: for the qudit, j = 1/2 for each qubit
MINIMUM_GRID = {BASIS_QUDIT: (7, 4), BASIS_TWO_QUBIT: (3, 2)}
#: Pi, the swap of vec(A) and vec(A^T): M[np.ix_(SWAP, SWAP)] = Pi M Pi
SWAP = np.arange(16).reshape(4, 4).T.ravel()


def gram(representation, n_azimuth, n_polar):
    grid = make_grid(n_azimuth, n_polar, spheres=_SPHERES[representation], enforce_minimum=False)
    return _frame(representation, grid).gram


@SETTINGS
@given(representation=st.sampled_from(sorted(MINIMUM_GRID)), n_azimuth=st.integers(1, 12),
       n_polar=st.integers(1, 12))
def test_gram_is_self_adjoint_on_every_product_grid(representation, n_azimuth, n_polar):
    g = gram(representation, n_azimuth, n_polar)
    assert np.abs(g.T[np.ix_(SWAP, SWAP)] - g).max() <= 1e-13


@FORM_SETTINGS
@given(representation=st.sampled_from(sorted(MINIMUM_GRID)), data=st.data())
def test_gram_is_the_identity_from_the_minimum_up(representation, data):
    min_azimuth, min_polar = MINIMUM_GRID[representation]
    n_azimuth = data.draw(st.integers(min_azimuth, MAX_SPHERE_NODES // min_polar))
    n_polar = data.draw(st.integers(min_polar, MAX_SPHERE_NODES // n_azimuth))
    assert np.abs(gram(representation, n_azimuth, n_polar) - np.eye(16)).max() <= 1e-13


@pytest.mark.parametrize("representation", sorted(MINIMUM_GRID))
def test_gram_is_exact_at_the_minimum_and_not_one_node_below(representation):
    minimum = MINIMUM_GRID[representation]
    assert np.abs(gram(representation, *minimum) - np.eye(16)).max() <= 1e-13
    for below in ((1, 0), (0, 1)):
        n_azimuth, n_polar = np.subtract(minimum, below).tolist()
        assert np.abs(gram(representation, n_azimuth, n_polar) - np.eye(16)).max() >= 0.1


@pytest.mark.parametrize("n_polar", [4, 8, 16])
def test_qudit_gram_is_exact_at_five_azimuth_nodes(n_polar):
    # below the minimum (7, 4), only five azimuth nodes are exact: the residue
    # they alias, azimuthal frequency +-5, is odd and cancels on the symmetric
    # Gauss-Legendre polar nodes
    assert np.abs(gram(BASIS_QUDIT, 5, n_polar) - np.eye(16)).max() <= 1e-13
    for n_azimuth in (4, 6):
        assert np.abs(gram(BASIS_QUDIT, n_azimuth, 4) - np.eye(16)).max() >= 0.1
