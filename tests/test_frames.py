import copy
import dataclasses
import pickle
import tracemalloc
from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from spintomo import frames, kernel, matcore, su2
from spintomo.frames import (
    FULL_SPHERE_MEASURE,
    FramePoint2Q,
    FramePointQudit,
    QUDIT_PROJECTIONS,
    TWO_QUBIT_PROJECTIONS,
    dequantizer_2q,
    dequantizer_qudit,
    dual_symbol,
    make_grid,
    quantizer_2q,
    quantizer_qudit,
    qudit_quantizer_authority,
    reconstruct_state,
    roundtrip_residual,
    symbol,
    tomogram,
    tomogram_table,
)
from spintomo.matcore import BASIS_QUDIT, BASIS_TWO_QUBIT, DensityMatrix, random_density, werner
from spintomo.paper_forms import (SIGN_READING_IMAG, SIGN_READING_REAL, explicit_qudit_b_matrix,
                                  quantizer_qudit_explicit)
from spintomo.su2 import EulerAngles, spin_projections

import frame_reference
from frame_reference import (closure, closure_adjoint, frame_pairing_qudit,
                             frame_pairing_two_qubit, qubit_axis_operator, reconstruct,
                             tomogram_evaluator)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_angles(rng, third=False):
    return EulerAngles(rng.uniform(0, 2 * pi), rng.uniform(0, pi),
                       rng.uniform(0, 2 * pi) if third else 0.0)


def werner_qudit_closed_oracle(m, p, a, b):
    """The four closed-form Werner tomogram expressions, restated literally."""
    if m == 1.5:
        return (p / 16 + 3 * p / 16 * cos(2 * b) + 3 * p / 32 * sin(b) * cos(3 * a)
                - p / 32 * cos(3 * a) * sin(3 * b) + 0.25)
    if m == -1.5:
        return (p / 16 + 3 * p / 16 * cos(2 * b) - 3 * p / 32 * sin(b) * cos(3 * a)
                + p / 32 * cos(3 * a) * sin(3 * b) + 0.25)
    s32 = 2 * sin(1.5 * a) ** 2 - 1
    if m == 0.5:
        return (3 * p / 16 * (2 * sin(b) ** 2 - 1) - p / 16
                - 3 * p / 32 * sin(3 * b) * s32 + 9 * p / 32 * sin(b) * s32 + 0.25)
    return (3 * p / 16 * (2 * sin(b) ** 2 - 1) - p / 16
            + 3 * p / 32 * sin(3 * b) * s32 - 9 * p / 32 * sin(b) * s32 + 0.25)


# --------------------------------------------------------------------------
# quadrature grid

class TestGrid:
    def test_total_weight_is_full_sphere_measure(self, grid_single):
        assert grid_single.sphere_weights().sum() == pytest.approx(FULL_SPHERE_MEASURE, abs=1e-10)

    def test_integrates_low_order_trig_exactly(self, grid_single):
        # int sin^2(beta) cos(3 alpha) dn = 0 analytically
        a, b, w = (grid_single.sphere_alpha(), grid_single.sphere_beta(),
                   grid_single.sphere_weights())
        val = np.sum(w * np.sin(b) ** 2 * np.cos(3 * a))
        assert abs(val) < 1e-12
        # int cos^2(beta) dn = 8 pi^2 / 3
        val = np.sum(w * np.cos(b) ** 2)
        assert val == pytest.approx(FULL_SPHERE_MEASURE / 3, abs=1e-10)

    def test_two_sphere_node_count(self):
        grid = make_grid(8, 8, spheres=2)
        assert grid.n_angle_nodes == 4096

    def test_minimum_enforced(self):
        with pytest.raises(ValueError):
            make_grid(4, 8)
        with pytest.raises(ValueError):
            make_grid(8, 7)

    def test_unchecked_constructor_for_tests(self):
        grid = make_grid(2, 2, enforce_minimum=False)
        assert grid.n_sphere_nodes == 4

    def test_node_cap_in_both_modes(self):
        assert make_grid(32, 32).n_sphere_nodes == frames.MAX_SPHERE_NODES
        for enforce in (True, False):
            with pytest.raises(ValueError, match="at most 1024 nodes"):
                make_grid(8, 129, enforce_minimum=enforce)
            with pytest.raises(ValueError, match="at most 1024 nodes"):
                make_grid(33, 32, spheres=2, enforce_minimum=enforce)

    def test_node_counts_must_be_whole(self):
        for n_azimuth, n_polar in ((8.5, 8), (8, 8.5)):
            for enforce in (True, False):
                with pytest.raises(ValueError, match="whole numbers"):
                    make_grid(n_azimuth, n_polar, enforce_minimum=enforce)
        grid = make_grid(9.0, 10.0)
        assert (grid.n_azimuth, grid.n_polar) == (9, 10)
        assert (len(grid.azimuth), len(grid.polar)) == (9, 10)

    def test_polar_rule_is_numpys_gauss_legendre_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss
        for n in (*range(1, 129), 256, 512, 1024):
            grid = make_grid(1, n, enforce_minimum=False)
            x, w = leggauss(n)
            assert grid.polar.tobytes() == np.arccos(x).tobytes(), n
            assert grid.polar_weight.tobytes() == w.tobytes(), n

    def test_one_shared_read_only_grid_per_node_count(self):
        grid = make_grid(8, 8)
        assert make_grid(8, 8) is grid
        assert make_grid(8.0, 8, enforce_minimum=False) is grid
        assert make_grid(8, 8, spheres=2) is not grid
        assert make_grid(8, 8, spheres=2) is make_grid(8, 8, spheres=2)
        for nodes in (grid.azimuth, grid.polar, grid.polar_weight):
            assert not nodes.flags.writeable


class TestHandMadeGrid:
    """A grid built directly, not by make_grid, is tabulated at its own
    nodes: here make_grid(8, 8)'s azimuths turned by 0.3."""

    @staticmethod
    def turned(spheres):
        grid = make_grid(8, 8, spheres=spheres)
        return dataclasses.replace(grid, azimuth=grid.azimuth + 0.3)

    def test_table_rows_are_the_point_reads_at_their_angles(self):
        state = random_density(4, 3201)
        table = tomogram_table(state, BASIS_QUDIT, self.turned(1))
        for m, alpha, beta, value in table.rows:
            point = FramePointQudit(m, EulerAngles(alpha, beta))
            assert abs(value - tomogram(state, point)) <= 1e-12
        table = tomogram_table(state, BASIS_TWO_QUBIT, self.turned(2))
        for m1, m2, theta1, phi1, theta2, phi2, value in table.rows[::61]:
            point = FramePoint2Q(m1, m2, EulerAngles(phi1, theta1), EulerAngles(phi2, theta2))
            assert abs(value - tomogram(state, point)) <= 1e-12

    @pytest.mark.parametrize("representation, spheres", [(BASIS_QUDIT, 1), (BASIS_TWO_QUBIT, 2)])
    def test_reconstruction_returns_the_state(self, representation, spheres):
        state = random_density(4, 3202)
        rec = reconstruct_state(state, representation, self.turned(spheres))
        assert np.abs(rec - state.mat).max() <= 1e-12

    def test_counts_that_disagree_with_the_nodes_are_refused(self):
        grid = make_grid(8, 8)
        for wrong in (dataclasses.replace(grid, n_azimuth=9),
                      dataclasses.replace(grid, polar_weight=grid.polar_weight[:4])):
            for operation in (reconstruct_state, tomogram_table):
                with pytest.raises(ValueError,
                                   match=r"^grid counts \(\d+, 8\) disagree with its node arrays"):
                    operation(werner(0.5), BASIS_QUDIT, wrong)
        empty = dataclasses.replace(grid, n_azimuth=0, azimuth=grid.azimuth[:0])
        for operation in (reconstruct_state, tomogram_table):
            with pytest.raises(ValueError, match="^node counts must be positive$"):
                operation(werner(0.5), BASIS_QUDIT, empty)

    def test_nodes_are_read_only_copies(self):
        # the frame is cached by grid identity, so the grid's nodes must not change
        state = random_density(4, 3203)
        azimuth = make_grid(8, 8).azimuth + 0.3
        grid = dataclasses.replace(make_grid(8, 8), azimuth=azimuth)
        before = tomogram_table(state, BASIS_QUDIT, grid).rows.copy()
        azimuth[:] = make_grid(8, 8).azimuth
        np.testing.assert_array_equal(tomogram_table(state, BASIS_QUDIT, grid).rows, before)
        for twin in (grid, copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
            for name in ("azimuth", "polar", "polar_weight"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(twin, name)[0] = 0.0

    @pytest.mark.parametrize("representation, spheres", [(BASIS_QUDIT, 1), (BASIS_TWO_QUBIT, 2)])
    def test_unequally_spaced_azimuths_are_refused(self, representation, spheres):
        # every azimuth weighs 2pi/n, which only equal spacing mod 2pi makes exact
        grid = make_grid(8, 8, spheres=spheres)
        uneven = np.sort(np.random.default_rng(1).uniform(0.0, 2.0 * pi, 8))
        for azimuth in (uneven, np.r_[grid.azimuth[:7], grid.azimuth[6]]):
            wrong = dataclasses.replace(grid, azimuth=azimuth)
            for operation in (reconstruct_state, tomogram_table):
                with pytest.raises(ValueError,
                                   match=r"^grid azimuths are not equally spaced mod 2pi"):
                    operation(random_density(4, 5), representation, wrong)
        # any order, any shift and any whole number of turns keep the spacing
        for azimuth in (grid.azimuth[::-1] - 4.0 * pi, grid.azimuth + 100.0):
            rec = reconstruct_state(random_density(4, 5), representation,
                                    dataclasses.replace(grid, azimuth=azimuth))
            assert np.abs(rec - random_density(4, 5).mat).max() <= 1e-12


# --------------------------------------------------------------------------
# two-qubit frame

class TestTwoQubitFrame:
    def test_dequantizer_completeness(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n1, n2 = rand_angles(rng), rand_angles(rng)
            total = sum(
                dequantizer_2q(FramePoint2Q(m1, m2, n1, n2))
                for m1 in TWO_QUBIT_PROJECTIONS for m2 in TWO_QUBIT_PROJECTIONS
            )
            np.testing.assert_allclose(total, np.eye(4), atol=1e-14)

    def test_north_pole_projector(self):
        point = FramePoint2Q(0.5, 0.5, EulerAngles(0.3, 0.0), EulerAngles(1.1, 0.0))
        np.testing.assert_allclose(dequantizer_2q(point), np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_factors_are_projectors(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            point = FramePoint2Q(0.5, -0.5, rand_angles(rng), rand_angles(rng))
            op = dequantizer_2q(point)
            # eigenvalue oracle: product of two rank-1 projectors
            vals = np.sort(np.linalg.eigvalsh(op))
            np.testing.assert_allclose(vals, [0, 0, 0, 1], atol=1e-13)
            assert np.trace(op) == pytest.approx(1.0, abs=1e-13)

    def test_single_qubit_factor_spectrum(self):
        # the axis operator squares to I, so each factor has eigenvalues {0, 1}
        rng = np.random.default_rng(111)
        for _ in range(20):
            phi, theta = rng.uniform(0, 2 * pi), rng.uniform(0, pi)
            f = qubit_axis_operator(phi, theta)
            np.testing.assert_allclose(f @ f, np.eye(2), atol=1e-14)
            for m in TWO_QUBIT_PROJECTIONS:
                vals = np.sort(np.linalg.eigvalsh(0.5 * np.eye(2) + m * f))
                np.testing.assert_allclose(vals, [0, 1], atol=1e-14)

    def test_quantizer_trace_constant(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            point = FramePoint2Q(0.5, 0.5, rand_angles(rng), rand_angles(rng))
            trace = np.trace(quantizer_2q(point))
            # each factor is traceless apart from (1/2) tr I = 1, scaled by 1/(8 pi^2)
            assert trace == pytest.approx(1.0 / FULL_SPHERE_MEASURE**2, abs=1e-16)

    def test_quantizer_hermitian(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            point = FramePoint2Q(
                TWO_QUBIT_PROJECTIONS[rng.integers(2)],
                TWO_QUBIT_PROJECTIONS[rng.integers(2)],
                rand_angles(rng), rand_angles(rng))
            op = quantizer_2q(point)
            assert np.abs(op - op.conj().T).max() < 1e-14

    def test_projection_validation(self):
        with pytest.raises(ValueError):
            FramePoint2Q(1.5, 0.5, EulerAngles(0, 0), EulerAngles(0, 0))

    def test_factors_are_the_paper_forms(self):
        # the spin-1/2 frame reproduces (1/2) I + m F and its dual
        # ((1/2) I + 3 m F) / 8 pi^2, F built from qubit_axis_operator
        rng = np.random.default_rng(112)
        eye = np.eye(2)
        for _ in range(20):
            n1, n2 = rand_angles(rng, third=True), rand_angles(rng, third=True)
            f1 = qubit_axis_operator(n1.azimuth, n1.polar)
            f2 = qubit_axis_operator(n2.azimuth, n2.polar)
            for m1 in TWO_QUBIT_PROJECTIONS:
                for m2 in TWO_QUBIT_PROJECTIONS:
                    point = FramePoint2Q(m1, m2, n1, n2)
                    np.testing.assert_allclose(
                        dequantizer_2q(point),
                        np.kron(0.5 * eye + m1 * f1, 0.5 * eye + m2 * f2), rtol=0, atol=1e-15)
                    np.testing.assert_allclose(
                        quantizer_2q(point),
                        np.kron(0.5 * eye + 3 * m1 * f1, 0.5 * eye + 3 * m2 * f2)
                        / FULL_SPHERE_MEASURE**2, rtol=0, atol=1e-17)

    def test_table_factors_are_the_paper_forms(self, grid_single):
        tables = frames._two_qubit_tables(grid_single)
        eye = np.eye(2)
        nodes = zip(grid_single.sphere_alpha(), grid_single.sphere_beta())
        for s, (phi, theta) in enumerate(nodes):
            f = qubit_axis_operator(phi, theta)
            for mi, m in enumerate(TWO_QUBIT_PROJECTIONS):
                np.testing.assert_allclose(tables.dequantizer[mi, s], 0.5 * eye + m * f,
                                           rtol=0, atol=1e-15)
                np.testing.assert_allclose(tables.quantizer[mi, s],
                                           (0.5 * eye + 3 * m * f) / FULL_SPHERE_MEASURE,
                                           rtol=0, atol=1e-16)


# --------------------------------------------------------------------------
# qudit frame

class TestQuditFrame:
    def test_origin_projector(self):
        point = FramePointQudit(1.5, EulerAngles(0.0, 0.0, 0.0))
        np.testing.assert_allclose(dequantizer_qudit(point), np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_rank_one_projector(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = QUDIT_PROJECTIONS[rng.integers(4)]
            point = FramePointQudit(m, rand_angles(rng, third=True))
            op = dequantizer_qudit(point)
            np.testing.assert_allclose(op @ op, op, atol=1e-13)
            assert np.trace(op) == pytest.approx(1.0, abs=1e-13)

    def test_completeness(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = rand_angles(rng)
            total = sum(dequantizer_qudit(FramePointQudit(m, n)) for m in QUDIT_PROJECTIONS)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-13)

    def test_third_angle_invariance(self):
        rng = np.random.default_rng(16)
        a, b = rng.uniform(0, 2 * pi), rng.uniform(0, pi)
        base = dequantizer_qudit(FramePointQudit(0.5, EulerAngles(a, b, 0.0)))
        for gamma in np.linspace(0, 2 * pi, 10):
            op = dequantizer_qudit(FramePointQudit(0.5, EulerAngles(a, b, gamma)))
            np.testing.assert_allclose(op, base, atol=1e-12)


class TestExplicitQuditQuantizer:
    def test_unit_trace_all_projections(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b = rng.uniform(0, 2 * pi), rng.uniform(0, pi)
            for m in QUDIT_PROJECTIONS:
                for reading in (SIGN_READING_REAL, SIGN_READING_IMAG):
                    mat = explicit_qudit_b_matrix(m, a, b, reading)
                    assert np.trace(mat) == pytest.approx(1.0, abs=1e-13)

    def test_finite_at_poles(self):
        # the cot(beta) diagonal is multiplied out analytically
        for m in QUDIT_PROJECTIONS:
            at_zero = explicit_qudit_b_matrix(m, 0.7, 0.0)
            near_zero = explicit_qudit_b_matrix(m, 0.7, 1e-8)
            assert np.all(np.isfinite(at_zero.real)) and np.all(np.isfinite(at_zero.imag))
            np.testing.assert_allclose(at_zero, near_zero, atol=1e-6)
            at_pi = explicit_qudit_b_matrix(m, 0.7, pi)
            near_pi = explicit_qudit_b_matrix(m, 0.7, pi - 1e-8)
            np.testing.assert_allclose(at_pi, near_pi, atol=1e-6)

    def test_real_reading_is_real_valued_combination(self):
        # under the exp(i pi m) reading the prefactor i*(-1)^m is +-1
        got = quantizer_qudit_explicit(FramePointQudit(1.5, EulerAngles(0.4, 1.2)))
        assert got.shape == (4, 4)

    @pytest.mark.parametrize("reading", (SIGN_READING_REAL, SIGN_READING_IMAG))
    def test_broadcast_equals_scalar_calls(self, reading):
        rng = np.random.default_rng(19)
        alpha, beta = rng.uniform(0, 2 * pi, 7), rng.uniform(0, pi, 7)
        m = np.array(QUDIT_PROJECTIONS)[:, None]
        stack = explicit_qudit_b_matrix(m, alpha, beta, reading)
        assert stack.shape == (4, 7, 4, 4)
        for k, mk in enumerate(QUDIT_PROJECTIONS):
            for n in range(7):
                np.testing.assert_allclose(
                    stack[k, n], explicit_qudit_b_matrix(mk, alpha[n], beta[n], reading),
                    rtol=0, atol=1e-15)

    def test_projection_outside_spin_three_halves_rejected(self):
        with pytest.raises(ValueError, match="projections"):
            explicit_qudit_b_matrix(2.5, 0.1, 0.2)
        with pytest.raises(ValueError, match="projections"):
            explicit_qudit_b_matrix(np.array([1.5, 0.3]), 0.1, 0.2)


def _batch_projectors(j, angles):
    """U^dag |m><m| U at each of ``angles`` for every projection, shape
    (2j+1, len(angles), 2j+1, 2j+1), from one frames._set_rows batch that
    appends the angles to the nodes of a 16x16 grid."""
    grid = make_grid(16, 16)
    azimuth = np.append(grid.sphere_alpha(), [n.azimuth for n in angles])
    polar = np.append(grid.sphere_beta(), [n.polar for n in angles])
    m = frames._projections(j)
    rows = frames._set_rows(j, np.repeat(m, len(azimuth)), np.tile(azimuth, len(m)),
                            np.tile(polar, len(m)))
    return frames._rank_one(rows.reshape(len(m), len(azimuth), -1)[:, grid.n_sphere_nodes:])


class TestPointProjector:
    @pytest.mark.parametrize("j", (0.5, 1.5))
    def test_equals_frame_projector_bitwise(self, j):
        rng = np.random.default_rng(20)
        for _ in range(3):
            a, b = rng.uniform(0, 2 * pi), rng.uniform(0, pi)
            table = _batch_projectors(j, [EulerAngles(a, b)])
            for k, m in enumerate(frames._projections(j)):
                np.testing.assert_array_equal(
                    frames._point_projector(j, m, EulerAngles(a, b)), table[k, 0])


class TestPointOperatorsFromOneRow:
    """The public point operators at off-grid angles, built from one row of
    d^j, equal the same angles' projectors inside a larger batch of rows bit
    for bit; azimuths outside [0, 2 pi) and polars clamped to 0 and pi
    included."""

    @staticmethod
    def angles():
        rng = np.random.default_rng(29)
        azimuths = (*rng.uniform(-4 * pi, 6 * pi, 12), -0.5, 2 * pi, 7.0)
        polars = (*rng.uniform(0, pi, 12), -0.3, pi + 0.2, 0.0)  # clamped into [0, pi]
        return [EulerAngles(a, b) for a, b in zip(azimuths, polars)]

    @staticmethod
    def table(j, angles):
        return _batch_projectors(j, [angles])[:, 0]

    def test_qudit(self):
        for n in self.angles():
            table = self.table(1.5, n)
            for k, m in enumerate(QUDIT_PROJECTIONS):
                point = FramePointQudit(m, n)
                assert dequantizer_qudit(point).tobytes() == table[k].tobytes()
                assert quantizer_qudit(point).tobytes() == frames._dual(table[k]).tobytes()

    def test_two_qubit(self):
        angles = self.angles()
        for n1, n2 in zip(angles, angles[::-1]):
            t1, t2 = self.table(0.5, n1), self.table(0.5, n2)
            for k1, m1 in enumerate(TWO_QUBIT_PROJECTIONS):
                for k2, m2 in enumerate(TWO_QUBIT_PROJECTIONS):
                    point = FramePoint2Q(m1, m2, n1, n2)
                    want = matcore._kron(t1[k1], t2[k2])
                    assert dequantizer_2q(point).tobytes() == want.tobytes()
                    want = matcore._kron(frames._dual(t1[k1]), frames._dual(t2[k2]))
                    assert quantizer_2q(point).tobytes() == want.tobytes()


@pytest.mark.parametrize("nodes", (8, 16, 32))
def test_tables_point_sets_and_point_operators_are_one_construction(nodes):
    """At the nodes of a grid, the grid tables, the rows of point sets and the
    point operators agree bit for bit. The two-qubit point set multiplies the
    single-qubit rows of frames._set_rows, checked here against the table."""
    grid = make_grid(nodes, nodes)
    nodes_at = [EulerAngles(a, b) for a, b in zip(grid.sphere_alpha(), grid.sphere_beta())]
    table = frames._qudit_tables(grid).dequantizer
    points = frames.PointSet(FramePointQudit, np.array(QUDIT_PROJECTIONS)[:, None],
                             grid.sphere_alpha(), grid.sphere_beta())
    assert frames._rank_one(points.rows).reshape(table.shape).tobytes() == table.tobytes()
    for k, m in enumerate(QUDIT_PROJECTIONS):
        for n, angles in enumerate(nodes_at):
            assert dequantizer_qudit(FramePointQudit(m, angles)).tobytes() == table[k, n].tobytes()
    table = frames._two_qubit_tables(grid).dequantizer
    m = np.repeat(TWO_QUBIT_PROJECTIONS, len(nodes_at))
    rows = frames._set_rows(0.5, m, np.tile(grid.sphere_alpha(), 2), np.tile(grid.sphere_beta(), 2))
    assert frames._rank_one(rows).reshape(table.shape).tobytes() == table.tobytes()
    for k1, m1 in enumerate(TWO_QUBIT_PROJECTIONS):
        for k2, m2 in enumerate(TWO_QUBIT_PROJECTIONS):
            for n, angles in enumerate(nodes_at):
                want = matcore._kron(table[k1, n], table[k2, n])
                got = dequantizer_2q(FramePoint2Q(m1, m2, angles, angles))
                assert got.tobytes() == want.tobytes()


class TestPointDispatch:
    """A point's picture, quantizer and factor frames come from one type
    dispatch, shared by every point read."""

    POINTS = (FramePoint2Q(0.5, -0.5, EulerAngles(0.3, 1.1), EulerAngles(2.0, 0.4)),
              FramePointQudit(-1.5, EulerAngles(4.0, 2.5)))

    READS = {"tomogram": lambda x: tomogram(werner(0.3), x),
             "symbol": lambda x: symbol(np.diag([1.0, 2.0, 3.0, 4.0]), x),
             "dual_symbol": lambda x: dual_symbol(np.diag([1.0, 2.0, 3.0, 4.0]), x)}

    @pytest.mark.parametrize("read", READS)
    @pytest.mark.parametrize("point", POINTS, ids=("two_qubit", "qudit"))
    def test_each_read_dispatches_once(self, monkeypatch, read, point):
        want = self.READS[read](point)
        calls = []
        picture = frames._point_picture
        monkeypatch.setattr(frames, "_point_picture", lambda p: calls.append(p) or picture(p))
        assert self.READS[read](point) == want
        assert calls == [point]

    @pytest.mark.parametrize("read", READS)
    def test_non_point_is_a_type_error(self, read):
        with pytest.raises(TypeError, match="point must be FramePoint2Q or FramePointQudit"):
            self.READS[read](EulerAngles(0.3, 1.1))


def _scalar_row(j, m, angles):
    # row m of U as the scalar composition: row m of d^j times the phases
    cells = su2.wigner_d_matrix(j, angles.polar)[round(j - m)].tolist()
    return [d * e for d, e in zip(cells, frames._phases(j, angles.azimuth))]


def _reference_read(op, point):
    # v op v^dag with v the point's row of U, built from scalars on each call
    if isinstance(point, FramePointQudit):
        v = _scalar_row(1.5, point.m, point.n)
    else:
        r1, r2 = _scalar_row(0.5, point.m1, point.n1), _scalar_row(0.5, point.m2, point.n2)
        v = [a * b for a in r1 for b in r2]
    v = np.array(v)
    return np.vdot(v, v @ op)


class TestPointRowMemo:
    """A point builds its row of U on its first read and keeps it: every
    read equals the scalar composition bit for bit, the row is built once
    and only when read, and it is not part of the point's value."""

    @staticmethod
    def points(count, seed):
        rng = np.random.default_rng(seed)
        out = []
        for k in range(count):
            n1, n2, n3 = (EulerAngles(rng.uniform(-4 * pi, 6 * pi), rng.uniform(-0.3, pi + 0.3))
                          for _ in range(3))
            out.append(FramePointQudit(QUDIT_PROJECTIONS[k % 4], n1))
            out.append(FramePoint2Q(TWO_QUBIT_PROJECTIONS[k % 2],
                                    TWO_QUBIT_PROJECTIONS[k // 2 % 2], n2, n3))
        return out

    @staticmethod
    def reads(point, grid_single, grid_pair):
        # (name, read, operator it reads) of every read of this point
        rng = np.random.default_rng(7)
        rho = random_density(4, 71)
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if isinstance(point, FramePointQudit):
            values = rng.uniform(0, 0.5, (2, grid_pair.n_sphere_nodes) * 2)
            return [
                ("map_state", lambda: kernel.map_state_two_qubit_to_qudit(rho, grid_pair, point),
                 reconstruct_state(rho, BASIS_TWO_QUBIT, grid_pair)),
                ("map", lambda: kernel.map_two_qubit_to_qudit(values, grid_pair, point),
                 frames._synthesize(values, BASIS_TWO_QUBIT, grid_pair)),
                ("tomogram", lambda: tomogram(rho, point), rho.mat),
                ("symbol", lambda: symbol(op, point), op),
            ]
        values = rng.uniform(0, 0.5, (4, grid_single.n_sphere_nodes))
        return [
            ("map_state", lambda: kernel.map_state_qudit_to_two_qubit(rho, grid_single, point),
             reconstruct_state(rho, BASIS_QUDIT, grid_single)),
            ("map", lambda: kernel.map_qudit_to_two_qubit(values, grid_single, point),
             frames._synthesize(values, BASIS_QUDIT, grid_single)),
            ("tomogram", lambda: tomogram(rho, point), rho.mat),
            ("symbol", lambda: symbol(op, point), op),
        ]

    def test_reads_equal_scalar_composition(self, grid_single, grid_pair):
        points = self.points(100, 515)
        assert len(points) >= 200
        for point in points:
            for name, read, op in self.reads(point, grid_single, grid_pair):
                want = _reference_read(op, point)
                want = complex(want) if name == "symbol" else float(want.real)
                for _ in range(2):  # the first read builds the row, the second reuses it
                    got = read()
                    assert type(got) is type(want) and got == want, (name, point)

    def test_second_read_builds_no_row(self, grid_single, grid_pair, monkeypatch):
        calls = []
        point_row = frames._point_row
        monkeypatch.setattr(frames, "_point_row", lambda *a: calls.append(a) or point_row(*a))
        for point in self.points(2, 3):
            factors = 1 if isinstance(point, FramePointQudit) else 2
            for _pass in range(2):  # the second pass builds no row
                for _, read, _ in self.reads(point, grid_single, grid_pair):
                    read()
                assert len(calls) == factors
            calls.clear()

    def test_unread_point_builds_no_row(self, monkeypatch):
        def disabled(*args):
            raise AssertionError("row built")

        monkeypatch.setattr(frames, "_point_row", disabled)
        op = np.diag([1.0, 2.0, 3.0, 4.0])
        for point in self.points(2, 4):
            # the operator reads form the projector and do not build the row
            dual_symbol(op, point)
            if isinstance(point, FramePointQudit):
                dequantizer_qudit(point), quantizer_qudit(point)
            else:
                dequantizer_2q(point), quantizer_2q(point)
            assert "_row" not in vars(point)

    def test_row_is_not_part_of_the_value(self):
        for point in self.points(2, 5):
            fresh = dataclasses.replace(point)
            symbol(np.eye(4), point)
            row = vars(point)["_row"]
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0
            assert "_row" not in vars(fresh)
            assert point == fresh and hash(point) == hash(fresh)
            assert repr(point) == repr(fresh)
            assert dataclasses.asdict(point) == dataclasses.asdict(fresh)
            assert dataclasses.astuple(point) == dataclasses.astuple(fresh)
            for twin in (copy.copy(point), pickle.loads(pickle.dumps(point))):
                assert vars(twin) == vars(fresh)
                assert twin == point and hash(twin) == hash(point)
                assert symbol(np.eye(4), twin) == symbol(np.eye(4), point)
                assert not vars(twin)["_row"].flags.writeable


class TestMultipoleDual:
    @pytest.mark.parametrize("nodes", (8, 12, 16))
    @pytest.mark.parametrize("tables_of", (frames._two_qubit_tables, frames._qudit_tables),
                             ids=("qubit", "qudit"))
    def test_equals_numerically_solved_dual(self, tables_of, nodes):
        # reference: the frame superoperator S summed over the table's own
        # dequantizer stack, then D = S^-1 U by a linear solve
        tables = tables_of(make_grid(nodes, nodes))
        n_proj, n_nodes, dim, _ = tables.dequantizer.shape
        vecs = tables.dequantizer.reshape(n_proj, n_nodes, dim * dim)
        superoperator = np.einsum("s,msi,msj->ij", tables.weights, vecs, vecs.conj())
        solved = np.linalg.solve(superoperator, vecs.reshape(-1, dim * dim).T).T
        np.testing.assert_allclose(tables.quantizer.reshape(-1, dim * dim), solved,
                                   rtol=0, atol=1e-13)


class TestSpinFrameProperties:
    """The shared spin-j construction for every supported spin, 2j <= 4."""

    SPINS = (0.5, 1.0, 1.5, 2.0)

    @staticmethod
    def spectrum(tables):
        # eigenvalues of the frame superoperator sum_x w vec(U) vec(U)^dag
        n_proj, n_nodes, dim, _ = tables.dequantizer.shape
        vecs = tables.dequantizer.reshape(n_proj, n_nodes, dim * dim)
        return np.linalg.eigvalsh(np.einsum("s,msi,msj->ij", tables.weights, vecs, vecs.conj()))

    @staticmethod
    def multipole_spectrum(j):
        # 8 pi^2 / (2L+1) with multiplicity 2L+1, L = 0 ... 2j
        return np.sort([FULL_SPHERE_MEASURE / (2 * rank + 1)
                        for rank in range(round(2 * j) + 1) for _ in range(2 * rank + 1)])

    @pytest.mark.parametrize("j", SPINS)
    def test_frame_superoperator_spectrum(self, j):
        np.testing.assert_allclose(self.spectrum(frames._SphereTables(j, make_grid(16, 16))),
                                   self.multipole_spectrum(j), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("j", SPINS)
    def test_analysis_then_synthesis_reconstructs(self, j):
        tables = frames._SphereTables(j, make_grid(16, 16))
        dim = round(2 * j) + 1
        rng = np.random.default_rng(round(2 * j))
        for _ in range(5):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
            values = (tables.analysis @ rho.ravel()).real
            np.testing.assert_allclose((values @ tables.synthesis).reshape(dim, dim), rho,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("j", SPINS)
    def test_cached_projections_are_read_only(self, j):
        m = frames._projections(j)
        assert m.tobytes() == spin_projections(j).tobytes()
        assert not m.flags.writeable

    def test_minimum_grid_is_exact_below_spin_two(self):
        # the superoperator carries azimuth frequencies up to 4j, and 8
        # uniform azimuth nodes integrate frequencies below 8 only: the 8x8
        # minimum is exact for j <= 3/2 and misses the j = 2 spectrum
        for j in self.SPINS[:-1]:
            np.testing.assert_allclose(self.spectrum(frames._SphereTables(j, make_grid(8, 8))),
                                       self.multipole_spectrum(j), rtol=1e-12, atol=0)
        deviation = (self.spectrum(frames._SphereTables(2.0, make_grid(8, 8)))
                     - self.multipole_spectrum(2.0))
        assert np.abs(deviation).max() == pytest.approx(8.8, abs=0.05)


class TestQuditAuthority:
    def test_dual_frame_selected_and_documented(self):
        report = qudit_quantizer_authority()
        assert report.selected == "dual_frame"
        # the explicit candidate fails on random states under both readings
        assert min(report.explicit_residuals.values()) > report.threshold
        # ... but reproduces the Werner family under the real-sign reading:
        # its defects live only in matrix entries the Werner states never probe
        assert report.werner_residuals[SIGN_READING_REAL] < 1e-12
        # non-Hermitian entries are enumerated per block
        herm = report.hermiticity_failures
        assert {"entry": [1, 2], "max_defect": herm["block_degree1"][0]["max_defect"]} \
            == herm["block_degree1"][0]
        assert herm["block_degree2"] == []
        assert [f["entry"] for f in herm["block_degree3_sin"]] == [[1, 3]]
        assert len(report.entry_deviations_vs_dual) > 0

    def test_dual_quantizer_hermitian_unit_trace(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            point = FramePointQudit(QUDIT_PROJECTIONS[rng.integers(4)], rand_angles(rng))
            op = quantizer_qudit(point)
            assert np.abs(op - op.conj().T).max() < 1e-12
            assert np.trace(op).real == pytest.approx(1.0 / FULL_SPHERE_MEASURE, abs=1e-12)

    def test_report_is_json_serializable(self):
        import json
        json.dumps(qudit_quantizer_authority().as_dict())

    def test_residuals_match_per_point_reference(self):
        # the report's values on the default 8x8 grid, as computed by the
        # per-node loop over scalar explicit matrices it replaced
        report = qudit_quantizer_authority()
        assert report.explicit_residuals == pytest.approx(
            {SIGN_READING_REAL: 0.5549429296081114, SIGN_READING_IMAG: 0.7530254888079291},
            rel=1e-12, abs=0)
        assert report.werner_residuals[SIGN_READING_IMAG] == pytest.approx(
            0.6123724356957945, rel=1e-12, abs=0)


# --------------------------------------------------------------------------
# tomograms

class TestTomogram:
    def test_maximally_mixed_is_flat(self):
        rng = np.random.default_rng(19)
        rho = np.eye(4) / 4
        for _ in range(10):
            assert tomogram(rho, FramePointQudit(0.5, rand_angles(rng))) == pytest.approx(0.25)
            assert tomogram(rho, FramePoint2Q(0.5, -0.5, rand_angles(rng), rand_angles(rng))) \
                == pytest.approx(0.25)

    def test_werner_qudit_closed_forms(self):
        rng = np.random.default_rng(20)
        for p in (-1 / 3, 0.0, 0.5, 1.0):
            rho = werner(p)
            for _ in range(20):
                a, b = rng.uniform(0, 2 * pi), rng.uniform(0, pi)
                for m in QUDIT_PROJECTIONS:
                    got = tomogram(rho, FramePointQudit(m, EulerAngles(a, b)))
                    assert got == pytest.approx(werner_qudit_closed_oracle(m, p, a, b), abs=1e-12)

    def test_werner_qudit_beta_zero(self):
        for p in (-1 / 3, 0.0, 0.5, 1.0):
            rho = werner(p)
            got = tomogram(rho, FramePointQudit(1.5, EulerAngles(0.9, 0.0)))
            assert got == pytest.approx((1 + p) / 4, abs=1e-14)
            got = tomogram(rho, FramePointQudit(0.5, EulerAngles(0.9, 0.0)))
            assert got == pytest.approx((1 - p) / 4, abs=1e-14)

    def test_werner_two_qubit_poles(self):
        for p in (-1 / 3, 0.2, 1.0):
            rho = werner(p)
            point = FramePoint2Q(0.5, 0.5, EulerAngles(0.4, 0.0), EulerAngles(2.2, 0.0))
            assert tomogram(rho, point) == pytest.approx((1 + p) / 4, abs=1e-14)

    def test_normalization_over_projections(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            rho = random_density(4, seed)
            n = rand_angles(rng)
            total = sum(tomogram(rho, FramePointQudit(m, n)) for m in QUDIT_PROJECTIONS)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_no_signaling_marginal(self):
        rng = np.random.default_rng(22)
        rho = random_density(4, 5)
        n1 = rand_angles(rng)
        reference = None
        for _ in range(20):
            n2 = rand_angles(rng)
            marginal = sum(
                tomogram(rho, FramePoint2Q(0.5, m2, n1, n2)) for m2 in TWO_QUBIT_PROJECTIONS
            )
            if reference is None:
                reference = marginal
            assert marginal == pytest.approx(reference, abs=1e-12)

    def test_basis_mismatch_rejected(self):
        rho = DensityMatrix(np.eye(4) / 4, basis=BASIS_TWO_QUBIT)
        with pytest.raises(ValueError):
            tomogram(rho, FramePointQudit(0.5, EulerAngles(0, 0)))

    def test_basis_mismatch_names_the_requested_picture(self, grid_pair):
        rho = DensityMatrix(np.eye(4) / 4, basis=BASIS_QUDIT)
        with pytest.raises(ValueError, match=f"tagged {BASIS_QUDIT!r} but {BASIS_TWO_QUBIT!r} was"):
            reconstruct_state(rho, BASIS_TWO_QUBIT, grid_pair)

    def test_psi_angles_ignored(self):
        rho = random_density(4, 9)
        base = tomogram(rho, FramePoint2Q(0.5, 0.5, EulerAngles(0.3, 1.0, 0.0),
                                          EulerAngles(0.8, 2.0, 0.0)))
        shifted = tomogram(rho, FramePoint2Q(0.5, 0.5, EulerAngles(0.3, 1.0, 1.7),
                                             EulerAngles(0.8, 2.0, -0.4)))
        assert shifted == base


def _loop_csv(table):
    # the per-cell writer TomogramTable.to_csv must reproduce byte for byte
    lines = [",".join(("representation",) + table.columns)]
    for row in table.rows:
        value = max(row[-1], 0.0) if row[-1] >= -1e-12 else row[-1]
        cells = [table.representation]
        cells += [repr(float(x)) for x in row[:-1]]
        cells.append(repr(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class _NullStream:
    # discards what is written, counting lines
    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


class TestTomogramTable:
    def test_qudit_table_rows_and_norm(self, grid_single):
        table = tomogram_table(werner(0.5), BASIS_QUDIT, grid_single)
        assert table.columns == ("m", "alpha", "beta", "value")
        assert table.rows.shape == (4 * grid_single.n_sphere_nodes, 4)
        values = table.rows[:, -1].reshape(4, -1)
        np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-12)

    def test_two_qubit_table_shape(self, grid_pair):
        table = tomogram_table(werner(0.2), BASIS_TWO_QUBIT, grid_pair)
        assert table.rows.shape == (4 * grid_pair.n_angle_nodes, 7)

    def test_row_cap(self):
        # The cap is read first, so a build without it fails before the
        # oversized 32x16 two-sphere table (4 * 512^2 rows) is attempted.
        assert frames.MAX_TABLE_ROWS == 4 * 256**2
        table = tomogram_table(werner(0.5), BASIS_TWO_QUBIT, make_grid(16, 16, spheres=2))
        assert table.rows.shape == (frames.MAX_TABLE_ROWS, 7)
        with pytest.raises(ValueError, match="table too large"):
            tomogram_table(werner(0.5), BASIS_TWO_QUBIT, make_grid(32, 16, spheres=2))
        table = tomogram_table(werner(0.5), BASIS_QUDIT, make_grid(32, 32))
        assert table.rows.shape == (4 * 1024, 4)

    def test_row_cap_refuses_before_building_the_frame(self):
        # node counts no other test uses, so the frame is not cached yet
        grid = make_grid(31, 33, spheres=2)
        misses = frames._picture_frame.cache_info().misses
        with pytest.raises(ValueError, match="table too large"):
            tomogram_table(werner(0.5), BASIS_TWO_QUBIT, grid)
        assert frames._picture_frame.cache_info().misses == misses
        # the picture checks still come first, in their order
        with pytest.raises(ValueError, match="unknown representation"):
            tomogram_table(werner(0.5), "bogus", grid)
        with pytest.raises(ValueError, match=r"grid covers 2 sphere\(s\), 1 required"):
            tomogram_table(werner(0.5), BASIS_QUDIT, grid)

    def test_csv_export_clamps_only_on_export(self):
        table = frames.TomogramTable(
            representation=BASIS_QUDIT,
            columns=("m", "alpha", "beta", "value"),
            rows=np.array([[1.5, 0.0, 0.0, -5e-13]]),
        )
        csv = table.to_csv_string()
        lines = csv.strip().split("\n")
        assert lines[0] == "representation,m,alpha,beta,value"
        assert lines[1].endswith(",0.0")
        assert table.rows[0, -1] == -5e-13

    @pytest.mark.parametrize("n_azimuth, n_polar", [(8, 8), (8, 12), (12, 8)])
    def test_csv_matches_cell_loop(self, n_azimuth, n_polar):
        for seed in range(5):
            rho = random_density(4, 50 + seed)
            for basis, spheres in ((BASIS_QUDIT, 1), (BASIS_TWO_QUBIT, 2)):
                grid = make_grid(n_azimuth, n_polar, spheres=spheres)
                table = tomogram_table(rho, basis, grid)
                assert table.to_csv_string() == _loop_csv(table)

    def test_csv_edge_values_match_cell_loop(self):
        values = [-0.0, -5e-13, -1e-11, float("nan"), 1e-05, 1e20]
        rows = np.array([[1.5, -0.0, 0.0, v] for v in values] + [[-1.5, 0.0, -0.0, 0.5]])
        table = frames.TomogramTable(BASIS_QUDIT, ("m", "alpha", "beta", "value"), rows)
        csv = table.to_csv_string()
        assert csv == _loop_csv(table)
        assert csv.split("\n")[1:-1] == [
            "qudit_3_2,1.5,-0.0,0.0,-0.0",
            "qudit_3_2,1.5,-0.0,0.0,0.0",
            "qudit_3_2,1.5,-0.0,0.0,-1e-11",
            "qudit_3_2,1.5,-0.0,0.0,nan",
            "qudit_3_2,1.5,-0.0,0.0,1e-05",
            "qudit_3_2,1.5,-0.0,0.0,1e+20",
            "qudit_3_2,-1.5,0.0,-0.0,0.5",
        ]

    @pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025, 2049])
    def test_csv_block_edges_match_cell_loop(self, n_rows):
        rng = np.random.default_rng(n_rows)
        rows = np.column_stack([
            rng.choice(QUDIT_PROJECTIONS, n_rows),
            rng.choice([0.0, -0.0, pi / 3, 2.5], n_rows),
            rng.uniform(0, pi, n_rows),
            rng.uniform(-2e-12, 1.0, n_rows),
        ]).reshape(n_rows, 4)
        table = frames.TomogramTable(BASIS_QUDIT, ("m", "alpha", "beta", "value"), rows)
        csv = table.to_csv_string()
        assert csv == _loop_csv(table)
        assert csv.count("\n") == 1 + n_rows

    @pytest.mark.parametrize("n_rows", [1023, 1024, 1025, 2049])
    def test_csv_special_floats_match_cell_loop(self, n_rows):
        # a table shaped like the two-qubit one, its keys and values drawn
        # from signed zeros, NaN, infinities and subnormals among ordinary floats
        rng = np.random.default_rng(1000 + n_rows)
        special = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
                   2.2250738585072014e-308 / 3, -1e-310]
        keys = np.array(special + [0.5, -0.5, pi / 3, 2.5])
        values = np.array(special + [-5e-13, -1e-11, 0.25, 1.0])
        rows = np.column_stack([rng.choice(keys, (n_rows, 6)), rng.choice(values, n_rows)])
        table = frames.TomogramTable(BASIS_TWO_QUBIT, ("m1", "m2", "theta1", "phi1", "theta2",
                                                       "phi2", "value"), rows)
        csv = table.to_csv_string()
        assert csv == _loop_csv(table)
        assert csv.count("\n") == 1 + n_rows

    def test_csv_memory_bounded_by_block(self):
        # the capped 16x16 two-qubit table is 262,144 rows (~15 MB as CSV)
        table = tomogram_table(werner(0.5), BASIS_TWO_QUBIT, make_grid(16, 16, spheres=2))
        stream = _NullStream()
        tracemalloc.start()
        try:
            table.to_csv(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stream.lines == 1 + frames.MAX_TABLE_ROWS
        assert peak < 2**20

    @staticmethod
    def _repeating_table(n_rows):
        # a qudit-shaped table whose every block repeats the first block's keys
        block = frames.CSV_BLOCK_ROWS
        rng = np.random.default_rng(n_rows)
        head = np.column_stack([
            rng.choice(QUDIT_PROJECTIONS, block),
            rng.choice([0.0, pi / 3, 2.5], block),
            rng.uniform(0, pi, block),
            rng.uniform(-2e-12, 1.0, block),
        ])
        return frames.TomogramTable(BASIS_QUDIT, ("m", "alpha", "beta", "value"),
                                    np.resize(head, (n_rows, 4)))

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("cell", [0, 517, 1023])
    def test_csv_key_column_changed_in_one_cell(self, column, cell):
        block = frames.CSV_BLOCK_ROWS
        keys = self._repeating_table(block).rows[:, column]
        # a value new to the column, and one it holds in another cell
        for new_value in (1.25, keys[keys != keys[cell]][0]):
            table = self._repeating_table(3 * block)
            # only the second block's cell changes: the third block equals the first
            table.rows[block + cell, column] = new_value
            assert table.to_csv_string() == _loop_csv(table)

    def test_csv_key_column_changed_in_zero_sign_only(self):
        block = frames.CSV_BLOCK_ROWS
        table = self._repeating_table(3 * block)
        table.rows[:, 1] = 0.0
        table.rows[block + 5, 1] = -0.0
        csv = table.to_csv_string()
        assert csv == _loop_csv(table)
        assert csv.count(",-0.0,") == 1

    def test_csv_key_column_changed_in_nan_payload_only(self):
        block = frames.CSV_BLOCK_ROWS
        payloads = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                            dtype=np.uint64).view(np.float64)
        for payload in payloads[1:]:
            table = self._repeating_table(3 * block)
            table.rows[:, 2] = payloads[0]
            table.rows[block + 9, 2] = payload
            assert table.to_csv_string() == _loop_csv(table)

    @pytest.mark.parametrize("n_rows", [1025, 2049])
    def test_csv_partial_last_block_repeating_keys(self, n_rows):
        table = self._repeating_table(n_rows)
        block = frames.CSV_BLOCK_ROWS
        tail = n_rows - n_rows // block * block
        assert table.rows[-tail:].tobytes() == table.rows[:tail].tobytes()
        csv = table.to_csv_string()
        assert csv == _loop_csv(table)
        assert csv.count("\n") == 1 + n_rows

    def test_csv_one_row_and_header_only(self):
        columns = ("m", "alpha", "beta", "value")
        one = frames.TomogramTable(BASIS_QUDIT, columns, np.array([[-0.5, 2.5, -0.0, 0.25]]))
        assert one.to_csv_string() == _loop_csv(one)
        assert one.to_csv_string().split("\n")[1] == "qudit_3_2,-0.5,2.5,-0.0,0.25"
        empty = frames.TomogramTable(BASIS_QUDIT, columns, np.empty((0, 4)))
        assert empty.to_csv_string() == _loop_csv(empty) == "representation,m,alpha,beta,value\n"

    @pytest.mark.parametrize("columns", [("m", "alpha", "value"), ("m", "alpha", "beta", "gamma", "value")])
    def test_csv_writes_every_row_cell_whatever_the_names(self, columns):
        # the row width, not the column names, sets the cells of a row
        rows = np.arange(4 * 1500, dtype=np.float64).reshape(-1, 4) % 7
        table = frames.TomogramTable(BASIS_QUDIT, columns, rows)
        assert table.to_csv_string() == _loop_csv(table)

    def test_csv_formats_a_key_column_only_when_it_changes(self, monkeypatch):
        # 16 blocks of 1024 rows: the first formats all 6 key columns; after
        # it phi1 changes at each of the 15 block boundaries, m2 at 3, m1 at 1
        table = tomogram_table(werner(0.5), BASIS_TWO_QUBIT, make_grid(8, 8, spheres=2))
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        csv = table.to_csv_string()
        monkeypatch.undo()
        assert len(calls) == 6 + 15 + 3 + 1
        assert csv == _loop_csv(table)

    @pytest.mark.parametrize("n_azimuth, n_polar", [(8, 8), (8, 12), (12, 8)])
    def test_rows_match_loop_order(self, n_azimuth, n_polar):
        rho = random_density(4, 34)
        grid = make_grid(n_azimuth, n_polar, spheres=1)
        alpha, beta = grid.sphere_alpha(), grid.sphere_beta()
        values = frames._analyze(rho.mat, BASIS_QUDIT, grid).real
        loop = np.array([(m, alpha[s], beta[s], values[mi, s])
                         for mi, m in enumerate(QUDIT_PROJECTIONS)
                         for s in range(len(alpha))])
        rows = tomogram_table(rho, BASIS_QUDIT, grid).rows
        assert rows.dtype == loop.dtype and rows.tobytes() == loop.tobytes()
        grid = make_grid(n_azimuth, n_polar, spheres=2)
        values = frames._analyze(rho.mat, BASIS_TWO_QUBIT, grid).real
        loop = np.array([(m1, m2, beta[s], alpha[s], beta[t], alpha[t], values[mi, s, ni, t])
                         for mi, m1 in enumerate(TWO_QUBIT_PROJECTIONS)
                         for ni, m2 in enumerate(TWO_QUBIT_PROJECTIONS)
                         for s in range(len(alpha))
                         for t in range(len(alpha))])
        rows = tomogram_table(rho, BASIS_TWO_QUBIT, grid).rows
        assert rows.dtype == loop.dtype and rows.tobytes() == loop.tobytes()

    @staticmethod
    def _stacked_rows(rho, representation, grid):
        # the row array formed column by column with np.repeat, np.tile and np.column_stack
        values = frames._analyze(rho.mat, representation, grid).real
        values = values.transpose(*range(0, values.ndim, 2), *range(1, values.ndim, 2))
        alpha, beta = grid.sphere_alpha(), grid.sphere_beta()
        n = len(alpha)
        if representation == BASIS_QUDIT:
            keys = (np.repeat(QUDIT_PROJECTIONS, n), np.tile(alpha, 4), np.tile(beta, 4))
        else:
            keys = (
                np.repeat(TWO_QUBIT_PROJECTIONS, 2 * n * n),
                np.tile(np.repeat(TWO_QUBIT_PROJECTIONS, n * n), 2),
                np.tile(np.repeat(beta, n), 4),
                np.tile(np.repeat(alpha, n), 4),
                np.tile(beta, 4 * n),
                np.tile(alpha, 4 * n),
            )
        return np.column_stack(keys + (values.ravel(),))

    @pytest.mark.parametrize("n_azimuth, n_polar, representation", [
        (8, 8, BASIS_QUDIT), (8, 12, BASIS_QUDIT), (12, 8, BASIS_QUDIT),
        (8, 8, BASIS_TWO_QUBIT), (8, 12, BASIS_TWO_QUBIT), (12, 8, BASIS_TWO_QUBIT),
        (16, 16, BASIS_TWO_QUBIT),
    ])
    def test_rows_match_stacked_columns(self, n_azimuth, n_polar, representation):
        rho = random_density(4, 35)
        grid = make_grid(n_azimuth, n_polar, spheres=1 if representation == BASIS_QUDIT else 2)
        rows = tomogram_table(rho, representation, grid).rows
        stacked = self._stacked_rows(rho, representation, grid)
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert rows.shape == stacked.shape and rows.tobytes() == stacked.tobytes()

    def test_values_match_pointwise_tomogram(self, grid_single):
        rho = random_density(4, 33)
        table = tomogram_table(rho, BASIS_QUDIT, grid_single)
        for row in table.rows[::37]:
            m, alpha, beta, value = row
            assert value == pytest.approx(
                tomogram(rho, FramePointQudit(m, EulerAngles(alpha, beta))), abs=1e-14)


class TestOnePointAndTableConstruction:
    """The per-point operators and the grid tables are one projector
    construction: at every frame point of the 8x8 grid they agree bit for
    bit, so a separate per-point formula cannot creep in unnoticed."""

    def test_qudit_dequantizer(self, grid_single):
        table = frames._qudit_tables(grid_single).dequantizer
        nodes = list(zip(grid_single.sphere_alpha(), grid_single.sphere_beta()))
        for k, m in enumerate(QUDIT_PROJECTIONS):
            for i, (a, b) in enumerate(nodes):
                point = dequantizer_qudit(FramePointQudit(m, EulerAngles(a, b)))
                assert point.tobytes() == table[k, i].tobytes()

    def test_two_qubit_dequantizer(self, grid_single):
        table = frames._two_qubit_tables(grid_single).dequantizer
        nodes = list(enumerate(zip(grid_single.sphere_alpha(), grid_single.sphere_beta())))
        for k1, m1 in enumerate(TWO_QUBIT_PROJECTIONS):
            for k2, m2 in enumerate(TWO_QUBIT_PROJECTIONS):
                for i1, (a1, b1) in nodes:
                    for i2, (a2, b2) in nodes:
                        point = dequantizer_2q(FramePoint2Q(m1, m2, EulerAngles(a1, b1),
                                                            EulerAngles(a2, b2)))
                        want = frames._regroup(np.outer(table[k1, i1], table[k2, i2]),
                                               2, 2, inverse=True)
                        assert point.tobytes() == want.tobytes()

    def test_tomogram_matches_table(self, grid_single, grid_pair):
        rho = random_density(4, 36)
        for m, alpha, beta, value in tomogram_table(rho, BASIS_QUDIT, grid_single).rows:
            point = FramePointQudit(m, EulerAngles(alpha, beta))
            assert abs(tomogram(rho, point) - value) <= 1e-15
        for m1, m2, theta1, phi1, theta2, phi2, value in tomogram_table(
                rho, BASIS_TWO_QUBIT, grid_pair).rows:
            point = FramePoint2Q(m1, m2, EulerAngles(phi1, theta1), EulerAngles(phi2, theta2))
            assert abs(tomogram(rho, point) - value) <= 1e-15


# --------------------------------------------------------------------------
# reconstruction

class TestReconstruction:
    def test_flat_input_two_qubit(self, grid_pair):
        rec = reconstruct(lambda m1, m2, n1, n2: 0.25, quantizer_2q, grid_pair,
                          BASIS_TWO_QUBIT)
        np.testing.assert_allclose(rec, np.eye(4) / 4, atol=1e-12)

    def test_flat_input_qudit(self, grid_single):
        rec = reconstruct(lambda m, n: 0.25, quantizer_qudit, grid_single, BASIS_QUDIT)
        np.testing.assert_allclose(rec, np.eye(4) / 4, atol=1e-12)

    def test_werner_two_qubit_roundtrip(self, grid_pair):
        assert roundtrip_residual(werner(0.7), BASIS_TWO_QUBIT, grid_pair) < 1e-10

    def test_random_states_both_frames(self, grid_single, grid_pair):
        for seed in range(20):
            rho = random_density(4, 1000 + seed)
            assert roundtrip_residual(rho, BASIS_TWO_QUBIT, grid_pair) < 1e-8
            assert roundtrip_residual(rho, BASIS_QUDIT, grid_single) < 1e-8

    def test_generic_matches_fast_path(self, grid_single, grid_pair):
        rho = random_density(4, 77)
        slow = reconstruct(tomogram_evaluator(rho, BASIS_QUDIT),
                           quantizer_qudit, grid_single, BASIS_QUDIT)
        fast = reconstruct_state(rho, BASIS_QUDIT, grid_single)
        np.testing.assert_allclose(slow, fast, atol=1e-12)
        slow = reconstruct(tomogram_evaluator(rho, BASIS_TWO_QUBIT),
                           quantizer_2q, grid_pair, BASIS_TWO_QUBIT)
        fast = reconstruct_state(rho, BASIS_TWO_QUBIT, grid_pair)
        np.testing.assert_allclose(slow, fast, atol=1e-12)

    def test_sphere_count_mismatch_rejected(self, grid_single):
        with pytest.raises(ValueError):
            reconstruct_state(werner(0.5), BASIS_TWO_QUBIT, grid_single)


#: Every grid entry point, with the picture whose grid it takes.
GRID_ENTRY_POINTS = [
    ("tomogram_table", BASIS_QUDIT), ("tomogram_table", BASIS_TWO_QUBIT),
    ("reconstruct_state", BASIS_QUDIT), ("reconstruct_state", BASIS_TWO_QUBIT),
    ("roundtrip_residual", BASIS_QUDIT), ("roundtrip_residual", BASIS_TWO_QUBIT),
    ("frame_pairing_qudit", BASIS_QUDIT), ("frame_pairing_two_qubit", BASIS_TWO_QUBIT),
    ("map_qudit_to_two_qubit", BASIS_QUDIT), ("map_state_qudit_to_two_qubit", BASIS_QUDIT),
    ("map_two_qubit_to_qudit", BASIS_TWO_QUBIT), ("map_state_two_qubit_to_qudit", BASIS_TWO_QUBIT),
]

#: The state and the (non-Hermitian) operator the entry points read.
_GATE_STATE = random_density(4, 81)
_GATE_OP = np.kron(SZ, np.array([[0.3, 1j], [2.0, -0.5]]))

#: A frame point of the picture each map's source picture maps to.
_MAP_TARGETS = {
    BASIS_QUDIT: FramePoint2Q(0.5, -0.5, EulerAngles(0.4, 1.2), EulerAngles(2.1, 0.7)),
    BASIS_TWO_QUBIT: FramePointQudit(0.5, EulerAngles(1.3, 0.9)),
}


def _call_entry_point(name, representation, grid, values):
    """The entry point on the grid; the evaluator maps read the given node
    values."""
    rho = _GATE_STATE
    if name.startswith("frame_pairing"):
        return getattr(frame_reference, name)(_GATE_OP, rho.mat, grid)
    if name.startswith("map_state"):
        return getattr(kernel, name)(rho, grid, _MAP_TARGETS[representation])
    if name.startswith("map"):
        return getattr(kernel, name)(values, grid, _MAP_TARGETS[representation])
    if name == "tomogram_table":
        return tomogram_table(rho, representation, grid).rows[:, -1]
    return getattr(frames, name)(rho, representation, grid)


def _composed(name, representation, grid):
    """The same value composed from ``_analyze`` and ``_synthesize``."""
    rho = _GATE_STATE.mat
    values = frames._analyze(rho, representation, grid).real
    rec = frames._synthesize(values, representation, grid)
    if name == "tomogram_table":  # rows by projections, then nodes
        return (values if values.ndim == 2 else values.transpose(0, 2, 1, 3)).ravel()
    if name == "reconstruct_state":
        return rec
    if name == "roundtrip_residual":
        return np.linalg.norm(rec - rho)
    if name.startswith("frame_pairing"):
        symbols = frames._analyze(_GATE_OP, representation, grid)
        return np.trace(rho @ frames._synthesize(symbols, representation, grid))
    return symbol(rec, _MAP_TARGETS[representation]).real


class TestOneGridGate:
    """Every grid operation checks the grid's sphere count against its
    picture in one place, and accepts any grid ``make_grid`` returns."""

    @pytest.mark.parametrize("name, representation", GRID_ENTRY_POINTS)
    def test_picture_checked_and_coarse_grid_accepted(self, name, representation):
        spheres = frames._SPHERES[representation]
        values = frames._analyze(_GATE_STATE.mat, representation,
                                 make_grid(8, 8, spheres=spheres)).real
        with pytest.raises(ValueError,
                           match=rf"^grid covers {3 - spheres} sphere\(s\), {spheres} required$"):
            _call_entry_point(name, representation, make_grid(8, 8, spheres=3 - spheres), values)
        coarse = make_grid(3, 2, spheres=spheres, enforce_minimum=False)
        values = frames._analyze(_GATE_STATE.mat, representation, coarse).real
        want = _composed(name, representation, coarse)
        got = _call_entry_point(name, representation, coarse, values)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("representation, spheres", [(BASIS_QUDIT, 1), (BASIS_TWO_QUBIT, 2)])
    def test_node_cap_holds_for_a_grid_made_by_hand(self, representation, spheres):
        # the cap is read from the grid's counts, before they are checked against its nodes
        grid = dataclasses.replace(make_grid(8, 8, spheres=spheres), n_azimuth=33, n_polar=32)
        with pytest.raises(ValueError, match="at most 1024 nodes"):
            reconstruct_state(_GATE_STATE, representation, grid)


class TestGramClosure:
    """The Gram closure is the analysis -> synthesis round trip, on any grid."""

    GRIDS = [(8, 8), (16, 16), (32, 32), (3, 2), (2, 3), (1, 1)]

    @pytest.mark.parametrize("representation, spheres",
                             [(BASIS_QUDIT, 1), (BASIS_TWO_QUBIT, 2)])
    @pytest.mark.parametrize("n_azimuth, n_polar", GRIDS)
    def test_matches_explicit_composition(self, representation, spheres, n_azimuth, n_polar):
        grid = make_grid(n_azimuth, n_polar, spheres=spheres, enforce_minimum=False)
        rng = np.random.default_rng(n_azimuth * 100 + n_polar)
        for seed in (71, 72):
            rho = random_density(4, seed).mat
            composed = frames._synthesize(frames._analyze(rho, representation, grid).real,
                                          representation, grid)
            got = closure(0.5 * (rho + rho.conj().T), representation, grid)
            np.testing.assert_allclose(got, composed, rtol=0, atol=1e-12)
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        composed = frames._synthesize(frames._analyze(op, representation, grid),
                                      representation, grid)
        got = closure(op, representation, grid)
        np.testing.assert_allclose(got, composed, rtol=0, atol=1e-12)
        composed = frames._synthesize(frames._analyze(op, representation, grid).real,
                                      representation, grid)
        got = closure(0.5 * (op + op.conj().T), representation, grid)
        np.testing.assert_allclose(got, composed, rtol=0, atol=1e-12)

    def test_two_qubit_round_trip_memory_is_bounded(self):
        grid = make_grid(32, 32, spheres=2)
        rho = random_density(4, 74)
        op = np.kron(SZ, SZ)
        reconstruct_state(rho, BASIS_TWO_QUBIT, grid)  # warm the tables
        tracemalloc.start()
        try:
            reconstruct_state(rho, BASIS_TWO_QUBIT, grid)
            _, peak_reconstruct = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            frame_pairing_two_qubit(op, rho.mat, grid)
            _, peak_pairing = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak_reconstruct < 2**20
        assert peak_pairing < 2**20


def _bits(x) -> bytes:
    """The bytes of an array or scalar, so that -0.0 and 0.0 differ."""
    return np.asarray(x).tobytes()


def _closure_reference(op, representation, grid):
    """vec(op) G with the ``@`` product, rebuilt from the picture's Gram."""
    return (op.reshape(-1) @ frames._frame(representation, grid).gram).reshape(op.shape)


PICTURES = [(BASIS_QUDIT, 1), (BASIS_TWO_QUBIT, 2)]


class TestReconstructionMemo:
    """``reconstruct_state`` reads a small memo keyed by the matrix's content
    on the picture and grid; every value is the uncached closure's."""

    @pytest.mark.parametrize("representation, spheres", PICTURES)
    @pytest.mark.parametrize("nodes", [8, 16, 32])
    def test_equals_the_uncached_closure_bit_for_bit(self, representation, spheres, nodes):
        grid = make_grid(nodes, nodes, spheres=spheres)
        for seed in range(16):
            rho = random_density(4, 5000 + seed).mat
            want = _closure_reference(0.5 * (rho + rho.conj().T), representation, grid)
            for _ in range(2):  # a miss, then a hit
                got = reconstruct_state(rho, representation, grid)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert _bits(got) == _bits(want)

    def test_returns_a_fresh_writable_array(self, grid_pair):
        rho = random_density(4, 5100)
        first = reconstruct_state(rho, BASIS_TWO_QUBIT, grid_pair)
        want = first.copy()
        assert first.flags.writeable
        first[:] = 7.0
        second = reconstruct_state(rho, BASIS_TWO_QUBIT, grid_pair)
        assert second is not first and second.flags.writeable
        assert _bits(second) == _bits(want)
        held = frames._reconstruction(rho, BASIS_TWO_QUBIT, grid_pair)
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 0.0
        assert _bits(held) == _bits(want)

    @pytest.mark.parametrize("wrap", [DensityMatrix, np.asarray], ids=["DensityMatrix", "array"])
    def test_a_matrix_changed_in_place_is_reconstructed_again(self, grid_single, wrap):
        mat = random_density(4, 5200).mat.copy()
        state = wrap(mat)
        assert matcore.state_matrix(state) is mat  # the state aliases the caller's array
        before = reconstruct_state(state, BASIS_QUDIT, grid_single)
        new = random_density(4, 5201).mat
        mat[:] = new
        got = reconstruct_state(state, BASIS_QUDIT, grid_single)
        assert _bits(got) == _bits(_closure_reference(0.5 * (new + new.conj().T),
                                                      BASIS_QUDIT, grid_single))
        assert _bits(got) != _bits(before)

    def test_memo_stays_small(self, grid_single):
        memo = frames._reconstruction_memo
        memo.cache_clear()
        for seed in range(300):
            reconstruct_state(random_density(4, 6000 + seed), BASIS_QUDIT, grid_single)
            assert memo.cache_info().currsize <= memo.cache_info().maxsize == 4
        assert memo.cache_info().misses == 300


class TestDotMatchesMatmul:
    """The point read and both closures take their vector-matrix products
    with ``np.dot``. They must give the bits of the ``@`` products, so a
    numpy where the two differ fails here instead of moving a number."""

    @pytest.mark.parametrize("representation, spheres", PICTURES)
    @pytest.mark.parametrize("nodes", [8, 16, 32])
    def test_closures_and_point_reads(self, representation, spheres, nodes):
        grid = make_grid(nodes, nodes, spheres=spheres)
        gram = frames._frame(representation, grid).gram
        rng = np.random.default_rng(100 * nodes + spheres)
        for _ in range(50):
            op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            closed = closure(op, representation, grid)
            assert _bits(closed) == _bits((op.reshape(-1) @ gram).reshape(4, 4))
            adjoint = closure_adjoint(op, representation, grid)
            assert _bits(adjoint) == _bits((gram @ op.T.reshape(-1)).reshape(4, 4).T)
            points = (FramePointQudit(QUDIT_PROJECTIONS[rng.integers(4)], rand_angles(rng)),
                      FramePoint2Q(TWO_QUBIT_PROJECTIONS[rng.integers(2)],
                                   TWO_QUBIT_PROJECTIONS[rng.integers(2)],
                                   rand_angles(rng), rand_angles(rng)))
            for point in points:
                v = point._row
                for read in (op, closed, adjoint):
                    assert _bits(frames._point_symbol(read, point)) == _bits(np.vdot(v, v @ read))


# --------------------------------------------------------------------------
# symbols and the trace pairing

class TestDualSymbols:
    def test_pairing_identity_two_qubit(self, grid_pair):
        rng = np.random.default_rng(30)
        for seed in range(50):
            rho = random_density(4, 2000 + seed).mat
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = a + a.conj().T
            got = frame_pairing_two_qubit(a, rho, grid_pair)
            assert got.real == pytest.approx(np.trace(a @ rho).real, abs=1e-8)
            assert abs(got.imag) < 1e-8

    def test_pairing_identity_qudit(self, grid_single):
        rng = np.random.default_rng(31)
        for seed in range(50):
            rho = random_density(4, 3000 + seed).mat
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = a + a.conj().T
            got = frame_pairing_qudit(a, rho, grid_single)
            assert got.real == pytest.approx(np.trace(a @ rho).real, abs=1e-8)

    def test_sigma_zz_pairing_gives_werner_parameter(self, grid_pair):
        op = np.kron(SZ, SZ)
        for p in (-0.2, 0.3, 0.9):
            got = frame_pairing_two_qubit(op, werner(p).mat, grid_pair)
            assert got.real == pytest.approx(p, abs=1e-10)
            # direct-trace oracle
            assert np.trace(op @ werner(p).mat).real == pytest.approx(p, abs=1e-14)

    def test_dual_symbol_identity_operator(self):
        rng = np.random.default_rng(32)
        point = FramePoint2Q(0.5, -0.5, rand_angles(rng), rand_angles(rng))
        got = dual_symbol(np.eye(4), point)
        assert got == pytest.approx(np.trace(quantizer_2q(point)), abs=1e-15)

    def test_symbol_of_state_is_tomogram(self):
        rho = werner(0.4)
        point = FramePointQudit(1.5, EulerAngles(0.2, 0.7))
        assert symbol(rho.mat, point).real == pytest.approx(tomogram(rho, point), abs=1e-14)
