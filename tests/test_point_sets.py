"""Point sets: many frame points of one picture read as one matrix product.

A :class:`spintomo.frames.PointSet` must give what its points give one by
one (rows, tomogram values, mapped values), with the same checks, and the
callers moved onto it (the selftest and ``werner_report``) must keep their
report keys.
"""

from math import pi

import numpy as np
import pytest

from spintomo import frames, kernel, steering
from spintomo.frames import FramePoint2Q, FramePointQudit, PointSet, tomogram, tomograms
from spintomo.kernel import map_state_qudit_to_two_qubit, map_state_two_qubit_to_qudit
from spintomo.matcore import BASIS_TWO_QUBIT, DensityMatrix, random_density, werner
from spintomo.su2 import EulerAngles


def _qudit_points(rng, n):
    """(set, points): n random qudit points, polar angles a little outside
    [0, pi] so that the clamp is exercised."""
    m = rng.choice(frames.QUDIT_PROJECTIONS, n)
    azimuth, polar = rng.uniform(-7.0, 7.0, n), rng.uniform(-0.2, pi + 0.2, n)
    points = [FramePointQudit(mm, EulerAngles(a, b)) for mm, a, b in zip(m, azimuth, polar)]
    return PointSet(FramePointQudit, m, azimuth, polar), points


def _pair_points(rng, n):
    m = rng.choice(frames.TWO_QUBIT_PROJECTIONS, (n, 2))
    azimuth, polar = rng.uniform(-7.0, 7.0, (n, 2)), rng.uniform(-0.2, pi + 0.2, (n, 2))
    points = [FramePoint2Q(*mm, EulerAngles(a[0], b[0]), EulerAngles(a[1], b[1]))
              for mm, a, b in zip(m, azimuth, polar)]
    return PointSet(FramePoint2Q, m, azimuth, polar), points


SETS = {"qudit": _qudit_points, "two_qubit": _pair_points}


@pytest.mark.parametrize("picture", SETS)
def test_rows_match_the_points(picture):
    points, singles = SETS[picture](np.random.default_rng(2301), 400)
    assert points.shape == (400,)
    assert np.abs(points.rows - [p._row for p in singles]).max() <= 1e-15
    # w = v (x) conj(v) is the flattened transpose of the point's dequantizer
    dequantizer = frames.dequantizer_qudit if picture == "qudit" else frames.dequantizer_2q
    w = np.array([dequantizer(p).T.ravel() for p in singles[:50]])
    assert np.abs(points.functionals[:50] - w).max() <= 1e-15


@pytest.mark.parametrize("picture", SETS)
def test_values_match_the_points(picture, grid_single, grid_pair):
    points, singles = SETS[picture](np.random.default_rng(2302), 60)
    state_map = map_state_two_qubit_to_qudit if picture == "qudit" else map_state_qudit_to_two_qubit
    grid = grid_pair if picture == "qudit" else grid_single
    for seed in range(10):
        rho = random_density(4, 2302 + seed)
        values = tomograms(rho, points)
        assert np.abs(values - [tomogram(rho, p) for p in singles]).max() <= 1e-14
        mapped = state_map(rho, grid, points)
        assert np.abs(mapped - [state_map(rho, grid, p) for p in singles]).max() <= 1e-14


def test_values_keep_the_broadcast_shape():
    rotations = np.random.default_rng(2303).uniform(0, (2 * pi, pi), (5, 2))
    points = PointSet(FramePointQudit, np.array(frames.QUDIT_PROJECTIONS)[:, None],
                      rotations[:, 0], rotations[:, 1])
    assert points.shape == (4, 5)
    values = tomograms(werner(0.3), points)
    assert values.shape == (4, 5)
    assert np.abs(values.sum(axis=0) - 1.0).max() <= 1e-14  # normalized at each rotation
    pairs = PointSet(FramePoint2Q, [[(0.5, 0.5)], [(0.5, -0.5)]], [[0.1, 0.2]] * 3,
                     [[0.3, 0.4]])
    assert pairs.shape == (2, 3) and pairs.functionals.shape == (6, 16)


@pytest.mark.parametrize("m", [1.0, 0.7, 2.5, -3.5, float("nan")])
def test_bad_qudit_projection_raises_as_the_point(m):
    with pytest.raises(ValueError) as single:
        FramePointQudit(m, EulerAngles(0.1, 0.2))
    with pytest.raises(ValueError) as many:
        PointSet(FramePointQudit, [1.5, m, 0.5], 0.1, 0.2)
    assert str(many.value) == str(single.value)


@pytest.mark.parametrize("m", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_projection_is_not_a_half_integer(m):
    with pytest.raises(ValueError, match=rf"^{m} is not a half-integer$"):
        PointSet(FramePointQudit, [1.5, m], 0.1, 0.2)
    with pytest.raises(ValueError, match=rf"^{m} is not a half-integer$"):
        PointSet(FramePoint2Q, [(0.5, 0.5), (0.5, m)], [0.1, 0.1], [0.2, 0.2])


def test_bad_integer_projection_keeps_its_text():
    with pytest.raises(ValueError, match=r"^projection m=1 not in"):
        PointSet(FramePointQudit, [1, 2], 0.1, 0.2)


@pytest.mark.parametrize("m1, m2", [(0.5, 1.5), (1.0, 0.5), (0.5, -0.7)])
def test_bad_pair_projection_raises_as_the_point(m1, m2):
    angles = EulerAngles(0.1, 0.2)
    with pytest.raises(ValueError) as single:
        FramePoint2Q(m1, m2, angles, angles)
    with pytest.raises(ValueError) as many:
        PointSet(FramePoint2Q, [(0.5, 0.5), (m1, m2)], [0.1, 0.1], [0.2, 0.2])
    assert str(many.value) == str(single.value)


@pytest.mark.parametrize("azimuth, polar", [(float("nan"), 0.2), (0.1, float("inf")),
                                            (-float("inf"), 0.2)])
def test_bad_angle_raises_as_euler_angles(azimuth, polar):
    with pytest.raises(ValueError) as single:
        EulerAngles(azimuth, polar)
    with pytest.raises(ValueError) as many:
        PointSet(FramePointQudit, 1.5, [0.0, azimuth], [0.0, polar])
    assert str(many.value) == str(single.value)


def test_two_qubit_set_needs_the_qubit_axis():
    with pytest.raises(ValueError, match="last axis of length 2"):
        PointSet(FramePoint2Q, [0.5, 0.5, -0.5], 0.1, 0.2)


def test_picture_must_be_a_point_type():
    with pytest.raises(TypeError, match="FramePoint2Q or FramePointQudit"):
        PointSet(EulerAngles, 0.5, 0.1, 0.2)
    with pytest.raises(TypeError, match="PointSet"):
        tomograms(werner(0.3), FramePointQudit(1.5, EulerAngles(0.1, 0.2)))


def test_wrong_picture_raises_the_read_against_type_error(grid_single, grid_pair):
    angles = EulerAngles(0.1, 0.2)
    state = werner(0.3)
    cases = [(map_state_qudit_to_two_qubit, grid_single, FramePointQudit(1.5, angles),
              PointSet(FramePointQudit, 1.5, 0.1, 0.2)),
             (map_state_two_qubit_to_qudit, grid_pair, FramePoint2Q(0.5, 0.5, angles, angles),
              PointSet(FramePoint2Q, (0.5, 0.5), (0.1, 0.1), (0.2, 0.2)))]
    for state_map, grid, point, points in cases:
        with pytest.raises(TypeError) as single:
            state_map(state, grid, point)
        with pytest.raises(TypeError) as many:
            state_map(state, grid, points)
        assert str(many.value) == str(single.value)
        assert str(many.value).endswith(f"got {type(point).__name__}")


def test_basis_tag_is_checked():
    tagged = DensityMatrix(werner(0.3).mat, basis=BASIS_TWO_QUBIT)
    with pytest.raises(ValueError) as single:
        tomogram(tagged, FramePointQudit(1.5, EulerAngles(0.1, 0.2)))
    with pytest.raises(ValueError) as many:
        tomograms(tagged, PointSet(FramePointQudit, 1.5, 0.1, 0.2))
    assert str(many.value) == str(single.value)


def test_imaginary_residue_is_refused_as_for_one_point():
    op = 1j * np.eye(4)
    with pytest.raises(ArithmeticError) as single:
        tomogram(op, FramePointQudit(1.5, EulerAngles(0.1, 0.2)))
    with pytest.raises(ArithmeticError) as many:
        tomograms(op, PointSet(FramePointQudit, [0.5, 1.5], 0.1, 0.2))
    assert str(many.value) == str(single.value)


def test_empty_sets_give_empty_arrays(grid_single, grid_pair):
    state = werner(0.3)
    qudit = PointSet(FramePointQudit, [], [], [])
    pair = PointSet(FramePoint2Q, np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)))
    for values in (tomograms(state, qudit), tomograms(state, pair),
                   map_state_two_qubit_to_qudit(state, grid_pair, qudit),
                   map_state_qudit_to_two_qubit(state, grid_single, pair)):
        assert isinstance(values, np.ndarray) and values.shape == (0,)


def test_kernel_module_exposes_the_point_set():
    assert kernel.PointSet is PointSet


def test_werner_report_keys_unchanged(grid_single, grid_pair):
    report = steering.werner_report(0.4, grid_pair, grid_single, n_spot_points=3)
    d = report.as_dict()
    assert set(d) == {
        "p", "tensor", "lhs", "rhs_all_entries", "rhs_diagonal", "inequality_holds", "chsh_max",
        "bell_violated", "correlation_forms", "max_directions", "notes", "correlation_zz",
        "correlation_form_spread", "tomogram_spot_checks", "kernel_mapping_residual"}
    assert set(d["tomogram_spot_checks"]) == {
        "qudit_closed_form_max_dev", "two_qubit_closed_form_max_dev", "n_points"}
    assert set(d["kernel_mapping_residual"]) == {"qudit_to_two_qubit", "two_qubit_to_qudit"}
    assert all(isinstance(v, float) for v in d["kernel_mapping_residual"].values())
    assert d["tomogram_spot_checks"]["n_points"] == 3
    assert max(d["tomogram_spot_checks"]["qudit_closed_form_max_dev"],
               d["tomogram_spot_checks"]["two_qubit_closed_form_max_dev"],
               *d["kernel_mapping_residual"].values()) <= 1e-12


def test_werner_report_without_spot_points(grid_single, grid_pair):
    d = steering.werner_report(0.4, grid_pair, grid_single, n_spot_points=0).as_dict()
    assert d["tomogram_spot_checks"] == {"qudit_closed_form_max_dev": 0.0,
                                         "two_qubit_closed_form_max_dev": 0.0, "n_points": 0}
    assert d["kernel_mapping_residual"] == {"qudit_to_two_qubit": 0.0, "two_qubit_to_qudit": 0.0}


SELFTEST_DETAIL_KEYS = {
    1: {"max_completeness_defect", "max_normalization_defect"},
    2: {"max_frobenius_residual", "n_states"},
    3: {"max_frobenius_residual", "selected", "explicit_best_residual",
        "failing_entries_enumerated"},
    4: {"max_closed_form_dev", "max_beta0_dev"},
    5: {"max_residual_qudit_to_pair", "max_residual_pair_to_qudit", "n_states"},
    6: {"agrees", "best_reading", "max_dev_measure_normalized", "discrepancy_report_emitted"},
    7: {"max_pairwise_deviation", "n_triples"},
    8: {"max_zz_dev", "max_tensor_dev"},
    9: {"max_werner_dev", "max_product_chsh", "werner1_chsh"},
    10: {"max_lhs_dev", "max_grid_dev", "report_complete"},
    11: {"max_marginal_variation", "max_third_angle_variation"},
    12: {"within_budget"},
}


def test_selftest_details_keys_unchanged(selftest_report):
    assert {r.index: set(r.details) for r in selftest_report.results} == SELFTEST_DETAIL_KEYS
    assert all(isinstance(v, float) for r in selftest_report.results
               for k, v in r.details.items() if k.startswith("max_"))

