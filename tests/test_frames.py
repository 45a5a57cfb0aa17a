import tracemalloc
from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from spintomo import frames, matcore
from spintomo.frames import (
    FULL_SPHERE_MEASURE,
    FramePoint2Q,
    FramePointQudit,
    QUDIT_PROJECTIONS,
    SIGN_READING_IMAG,
    SIGN_READING_REAL,
    TWO_QUBIT_PROJECTIONS,
    dequantizer_2q,
    dequantizer_qudit,
    dual_symbol,
    explicit_qudit_b_matrix,
    make_grid,
    quantizer_2q,
    quantizer_qudit,
    quantizer_qudit_explicit,
    qudit_quantizer_authority,
    reconstruct_state,
    roundtrip_residual,
    symbol,
    tomogram,
    tomogram_table,
)
from spintomo.matcore import BASIS_QUDIT, BASIS_TWO_QUBIT, DensityMatrix, random_density, werner
from spintomo.su2 import EulerAngles, spin_projections

from frame_reference import reconstruct, tomogram_evaluator

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
            f = frames.qubit_axis_operator(phi, theta)
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
            f1 = frames.qubit_axis_operator(n1.azimuth, n1.polar)
            f2 = frames.qubit_axis_operator(n2.azimuth, n2.polar)
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
        tables = frames._two_qubit_tables(grid_single.n_azimuth, grid_single.n_polar)
        eye = np.eye(2)
        nodes = zip(grid_single.sphere_alpha(), grid_single.sphere_beta())
        for s, (phi, theta) in enumerate(nodes):
            f = frames.qubit_axis_operator(phi, theta)
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


class TestPointProjector:
    @pytest.mark.parametrize("j", (0.5, 1.5))
    def test_equals_frame_projector_bitwise(self, j):
        rng = np.random.default_rng(20)
        for _ in range(3):
            a, b = rng.uniform(0, 2 * pi), rng.uniform(0, pi)
            table = frames._frame_projectors(j, (a,), (b,))
            for k, m in enumerate(frames._projections(j)):
                np.testing.assert_array_equal(
                    frames._point_projector(j, m, EulerAngles(a, b)), table[k, 0])


class TestPointOperatorsFromOneRow:
    """The public point operators at off-grid angles, built from one row of
    d^j, equal the single-node table of the grid construction bit for bit;
    azimuths outside [0, 2 pi) and polars clamped to 0 and pi included."""

    @staticmethod
    def angles():
        rng = np.random.default_rng(29)
        azimuths = (*rng.uniform(-4 * pi, 6 * pi, 12), -0.5, 2 * pi, 7.0)
        polars = (*rng.uniform(0, pi, 12), -0.3, pi + 0.2, 0.0)  # clamped into [0, pi]
        return [EulerAngles(a, b) for a, b in zip(azimuths, polars)]

    @staticmethod
    def table(j, angles):
        return frames._frame_projectors(j, (angles.azimuth,), (angles.polar,))[:, 0]

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


class TestMultipoleDual:
    @pytest.mark.parametrize("nodes", (8, 12, 16))
    @pytest.mark.parametrize("tables_of", (frames._two_qubit_tables, frames._qudit_tables),
                             ids=("qubit", "qudit"))
    def test_equals_numerically_solved_dual(self, tables_of, nodes):
        # reference: the frame superoperator S summed over the table's own
        # dequantizer stack, then D = S^-1 U by a linear solve
        tables = tables_of(nodes, nodes)
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
        np.testing.assert_allclose(self.spectrum(frames._SphereTables(j, 16, 16)),
                                   self.multipole_spectrum(j), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("j", SPINS)
    def test_analysis_then_synthesis_reconstructs(self, j):
        tables = frames._SphereTables(j, 16, 16)
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
            np.testing.assert_allclose(self.spectrum(frames._SphereTables(j, 8, 8)),
                                       self.multipole_spectrum(j), rtol=1e-12, atol=0)
        deviation = self.spectrum(frames._SphereTables(2.0, 8, 8)) - self.multipole_spectrum(2.0)
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
        table = frames._qudit_tables(8, 8).dequantizer
        nodes = list(zip(grid_single.sphere_alpha(), grid_single.sphere_beta()))
        for k, m in enumerate(QUDIT_PROJECTIONS):
            for i, (a, b) in enumerate(nodes):
                point = dequantizer_qudit(FramePointQudit(m, EulerAngles(a, b)))
                assert point.tobytes() == table[k, i].tobytes()

    def test_two_qubit_dequantizer(self, grid_single):
        table = frames._two_qubit_tables(8, 8).dequantizer
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

    def test_coarse_grid_rejected(self):
        grid = make_grid(2, 2, spheres=1, enforce_minimum=False)
        with pytest.raises(ValueError):
            reconstruct_state(werner(0.5), BASIS_QUDIT, grid)

    def test_sphere_count_mismatch_rejected(self, grid_single):
        with pytest.raises(ValueError):
            reconstruct_state(werner(0.5), BASIS_TWO_QUBIT, grid_single)


class TestGramClosure:
    """``_closure`` is the analysis -> synthesis round trip, on any grid."""

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
            got = frames._closure(rho, representation, grid, real_values=True)
            np.testing.assert_allclose(got, composed, rtol=0, atol=1e-12)
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        composed = frames._synthesize(frames._analyze(op, representation, grid),
                                      representation, grid)
        got = frames._closure(op, representation, grid, real_values=False)
        np.testing.assert_allclose(got, composed, rtol=0, atol=1e-12)
        composed = frames._synthesize(frames._analyze(op, representation, grid).real,
                                      representation, grid)
        got = frames._closure(op, representation, grid, real_values=True)
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
            frames.frame_pairing_two_qubit(op, rho.mat, grid)
            _, peak_pairing = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak_reconstruct < 2**20
        assert peak_pairing < 2**20


# --------------------------------------------------------------------------
# symbols and the trace pairing

class TestDualSymbols:
    def test_pairing_identity_two_qubit(self, grid_pair):
        rng = np.random.default_rng(30)
        for seed in range(50):
            rho = random_density(4, 2000 + seed).mat
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = a + a.conj().T
            got = frames.frame_pairing_two_qubit(a, rho, grid_pair)
            assert got.real == pytest.approx(np.trace(a @ rho).real, abs=1e-8)
            assert abs(got.imag) < 1e-8

    def test_pairing_identity_qudit(self, grid_single):
        rng = np.random.default_rng(31)
        for seed in range(50):
            rho = random_density(4, 3000 + seed).mat
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = a + a.conj().T
            got = frames.frame_pairing_qudit(a, rho, grid_single)
            assert got.real == pytest.approx(np.trace(a @ rho).real, abs=1e-8)

    def test_sigma_zz_pairing_gives_werner_parameter(self, grid_pair):
        op = np.kron(SZ, SZ)
        for p in (-0.2, 0.3, 0.9):
            got = frames.frame_pairing_two_qubit(op, werner(p).mat, grid_pair)
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
