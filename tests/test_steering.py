from math import pi, sqrt

import numpy as np
import pytest

from spintomo import steering
from spintomo.steering import (
    NOTE_WERNER_DOMAIN,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    chsh_max,
    chsh_value,
    correlation_direct,
    correlation_forms,
    correlation_tensor,
    correlation_tomographic_qudit,
    correlation_tomographic_two_qubit,
    max_correlation,
    max_correlation_grid,
    sphere_directions,
    steering_check,
    werner_report,
)
from spintomo.frames import make_grid
from spintomo.matcore import (BASIS_QUDIT, BASIS_TWO_QUBIT, IDENTITY_2, PAULI, PAULI_X, PAULI_Z,
                              random_density, werner)

from frame_reference import (closure, closure_adjoint, form_tensors, frame_pairing_qudit,
                             frame_pairing_two_qubit, observable_first, observable_second,
                             pauli_dot, product_observable)
from test_matcore import observable_matrix_reference


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def correlation_tensor_reference(rho):
    """Reference tensor, entry by entry: nine Kronecker products and traces."""
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            value = np.trace(rho @ np.kron(PAULI[i], PAULI[j]))
            if abs(value.imag) > 1e-12:
                raise ArithmeticError("correlation tensor entry not real")
            t[i, j] = value.real
    return t


def _best_response(v, current):
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-15 else current


def chsh_brute_force(t, max_steps=5000):
    """Reference CHSH search: (best lattice quadruple, alternating best response from it).

    The lattice is :func:`sphere_directions`. Each refinement step sets
    every direction in turn to its exact best response given the other
    three, so the value never decreases; it stops once a step gains less
    than 1e-15. Convergence is linear and slow when s2 and s3 nearly
    coincide: random state 8303 (s2/s3 = 1.0036) is still 3.7e-6 short
    after 80 steps and 8e-9 short after 500.
    """
    dirs = sphere_directions()
    m = dirs @ t @ dirs.T                   # m[i, j] = E(dir_i, dir_j)
    plus = m[:, :, None] + m[:, None, :]    # E(a, b) + E(a, c) over (a, b, c)
    minus = m[:, :, None] - m[:, None, :]   # E(d, b) - E(d, c) over (d, b, c)
    total = plus.max(axis=0) + minus.max(axis=0)
    bi, ci = np.unravel_index(np.argmax(total), total.shape)
    a, b, c = dirs[np.argmax(plus[:, bi, ci])], dirs[bi], dirs[ci]
    d = dirs[np.argmax(minus[:, bi, ci])]
    value = float(total[bi, ci])
    for _ in range(max_steps):
        a = _best_response(t @ (b + c), a)
        d = _best_response(t @ (b - c), d)
        b = _best_response(t.T @ (a + d), b)
        c = _best_response(t.T @ (a - d), c)
        step = float(a @ t @ (b + c) + d @ t @ (b - c))
        if step - value < 1e-15:
            break
        value = step
    return float(total[bi, ci]), max(value, step)


class TestObservables:
    def test_z_axis_layouts(self):
        np.testing.assert_array_equal(observable_first(Z_AXIS), np.diag([1, 1, -1, -1]))
        np.testing.assert_array_equal(observable_second(Z_AXIS), np.diag([1, -1, 1, -1]))
        np.testing.assert_array_equal(product_observable(Z_AXIS, Z_AXIS).product,
                                      np.diag([1, -1, -1, 1]))

    def test_single_side_printed_layout(self):
        rng = np.random.default_rng(60)
        k1x, k1y, k1z = k1 = random_unit(rng)
        got = observable_first(k1)
        want = np.array([
            [k1z, 0, k1x - 1j * k1y, 0],
            [0, k1z, 0, k1x - 1j * k1y],
            [k1x + 1j * k1y, 0, -k1z, 0],
            [0, k1x + 1j * k1y, 0, -k1z],
        ])
        np.testing.assert_allclose(got, want, atol=1e-15)
        k2x, k2y, k2z = k2 = random_unit(rng)
        got = observable_second(k2)
        want = np.array([
            [k2z, k2x - 1j * k2y, 0, 0],
            [k2x + 1j * k2y, -k2z, 0, 0],
            [0, 0, k2z, k2x - 1j * k2y],
            [0, 0, k2x + 1j * k2y, -k2z],
        ])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_product_matches_entrywise_layout(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            k1, k2 = random_unit(rng), random_unit(rng)
            triple = product_observable(k1, k2)
            np.testing.assert_allclose(triple.product,
                                       observable_matrix_reference(k1, k2), atol=1e-14)

    def test_commute_and_factor(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            triple = product_observable(random_unit(rng), random_unit(rng))
            comm = triple.first @ triple.second - triple.second @ triple.first
            assert np.abs(comm).max() < 1e-14
            np.testing.assert_allclose(triple.product, triple.first @ triple.second,
                                       atol=1e-14)

    def test_squares_to_identity_and_pm_one_spectrum(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            triple = product_observable(random_unit(rng), random_unit(rng))
            np.testing.assert_allclose(triple.first @ triple.first, np.eye(4), atol=1e-14)
            vals = np.sort(np.linalg.eigvalsh(triple.product))
            np.testing.assert_allclose(vals, [-1, -1, 1, 1], atol=1e-12)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            observable_first([0, 0, 1.0 + 1e-6])

    def test_bit_identical_to_kron(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            k1, k2 = random_unit(rng), random_unit(rng)
            first = np.kron(pauli_dot(k1), IDENTITY_2)
            second = np.kron(IDENTITY_2, pauli_dot(k2))
            triple = product_observable(k1, k2)
            np.testing.assert_array_equal(observable_first(k1), first)
            np.testing.assert_array_equal(observable_second(k2), second)
            np.testing.assert_array_equal(triple.first, first)
            np.testing.assert_array_equal(triple.second, second)
            np.testing.assert_array_equal(triple.product,
                                          np.kron(pauli_dot(k1), pauli_dot(k2)))


class TestCorrelationDirect:
    def test_werner_zz(self):
        for p in (-1 / 3, 0.0, 0.4, 1.0):
            assert correlation_direct(werner(p).mat, Z_AXIS, Z_AXIS) \
                == pytest.approx(p, abs=1e-14)

    def test_werner_yy_is_minus_p(self):
        assert correlation_direct(werner(0.6).mat, Y_AXIS, Y_AXIS) \
            == pytest.approx(-0.6, abs=1e-14)

    def test_maximally_mixed_vanishes(self):
        rng = np.random.default_rng(64)
        for _ in range(5):
            assert correlation_direct(np.eye(4) / 4, random_unit(rng), random_unit(rng)) \
                == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(65)
        for seed in range(20):
            rho = random_density(4, 6000 + seed).mat
            e = correlation_direct(rho, random_unit(rng), random_unit(rng))
            assert abs(e) <= 1 + 1e-12


class TestCorrelationTomographic:
    def test_werner_equivalence(self, grid_single, grid_pair):
        rho = werner(0.4).mat
        want = 0.4
        assert correlation_tomographic_two_qubit(rho, Z_AXIS, Z_AXIS, grid_pair) \
            == pytest.approx(want, abs=1e-8)
        assert correlation_tomographic_qudit(rho, Z_AXIS, Z_AXIS, grid_single) \
            == pytest.approx(want, abs=1e-8)

    def test_random_states_all_forms_agree(self, grid_single, grid_pair):
        rng = np.random.default_rng(66)
        for seed in range(15):
            rho = random_density(4, 7000 + seed).mat
            k1, k2 = random_unit(rng), random_unit(rng)
            direct = correlation_direct(rho, k1, k2)
            got = correlation_tomographic_two_qubit(rho, k1, k2, grid_pair)
            assert got == pytest.approx(direct, abs=1e-8)
            got = correlation_tomographic_qudit(rho, k1, k2, grid_single)
            assert got == pytest.approx(direct, abs=1e-8)

    def test_maximally_mixed(self, grid_pair):
        got = correlation_tomographic_two_qubit(np.eye(4) / 4, X_AXIS, Z_AXIS, grid_pair)
        assert got == pytest.approx(0.0, abs=1e-10)


class TestCorrelationForms:
    def test_equal_single_form_functions_bit_for_bit(self, grid_single, grid_pair):
        rng = np.random.default_rng(72)
        for seed in range(50):
            rho = random_density(4, 7100 + seed).mat
            k1, k2 = random_unit(rng), random_unit(rng)
            assert correlation_forms(rho, k1, k2, grid_pair, grid_single) == {
                "direct": correlation_direct(rho, k1, k2),
                "tomo_2q_a": correlation_tomographic_two_qubit(rho, k1, k2, grid_pair),
                "tomo_2q_b": correlation_tomographic_two_qubit(rho, k1, k2, grid_pair),
                "tomo_qudit": correlation_tomographic_qudit(rho, k1, k2, grid_single),
            }

    def test_non_unit_direction_rejected(self, grid_single, grid_pair):
        rho = werner(0.5).mat
        for k1, k2 in (([0, 0, 1.0 + 1e-6], Z_AXIS), (Z_AXIS, [0.5, 0, 0])):
            with pytest.raises(ValueError, match="unit vector"):
                correlation_forms(rho, k1, k2, grid_pair, grid_single)
            with pytest.raises(ValueError, match="unit vector"):
                steering_check(rho, k1, k2, grid_pair, grid_single)

    def test_two_by_two_state_rejected(self, grid_single, grid_pair):
        rho = np.eye(2) / 2
        with pytest.raises(ValueError, match="tomographic frames act on 4x4 states"):
            correlation_forms(rho, Z_AXIS, Z_AXIS, grid_pair, grid_single)
        with pytest.raises(ValueError, match="tomographic frames act on 4x4 states"):
            steering_check(rho, Z_AXIS, Z_AXIS, grid_pair, grid_single)


class TestFormTensors:
    """Every form is k1^T T_f k2 of one tensor read in its picture."""

    FORMS = ("direct", "tomo_2q_a", "tomo_2q_b", "tomo_qudit")

    @pytest.mark.parametrize("nodes", [8, 16])
    def test_forms_equal_their_frame_pairings(self, nodes):
        pair, single = make_grid(nodes, nodes, spheres=2), make_grid(nodes, nodes, spheres=1)
        rng = np.random.default_rng(73)
        for seed in range(24):
            rho = random_density(4, 7200 + seed).mat
            k1, k2 = random_unit(rng), random_unit(rng)
            b = product_observable(k1, k2).product
            want = {
                "direct": np.trace(rho @ b).real,
                "tomo_2q_a": frame_pairing_two_qubit(b, rho, pair).real,
                "tomo_2q_b": frame_pairing_two_qubit(rho, b, pair).real,
                "tomo_qudit": frame_pairing_qudit(b, rho, single).real,
            }
            got = correlation_forms(rho, k1, k2, pair, single)
            for form in self.FORMS:
                assert abs(got[form] - want[form]) <= 1e-15, form

    @pytest.mark.parametrize("nodes", [8, 16])
    def test_picture_tensors_are_the_correlation_tensor_on_exact_grids(self, nodes):
        pair, single = make_grid(nodes, nodes, spheres=2), make_grid(nodes, nodes, spheres=1)
        for seed in range(10):
            rho = random_density(4, 7300 + seed).mat
            tensors = form_tensors(rho, self.FORMS, pair, single)
            for form, t in zip(self.FORMS, tensors):
                np.testing.assert_allclose(t.real, correlation_tensor(rho), rtol=0, atol=1e-13,
                                           err_msg=form)

    def test_qudit_tensor_reads_the_frame(self):
        # on the degraded 2x2 grid the spin-3/2 reading is off by far more than roundoff
        pair = make_grid(2, 2, spheres=2, enforce_minimum=False)
        single = make_grid(2, 2, spheres=1, enforce_minimum=False)
        rho = random_density(4, 7400).mat
        t = form_tensors(rho, ("tomo_qudit",), pair, single)[0]
        assert np.abs(t.real - correlation_tensor(rho)).max() > 0.1

    def test_non_hermitian_direct_form_raises(self, grid_single, grid_pair):
        # an anti-Hermitian part puts 0.1j into T_xz, so E(x, z) has imaginary part 0.1
        rho = werner(0.5).mat + 0.1j * np.kron(PAULI_X, PAULI_Z) / 4
        with pytest.raises(ArithmeticError, match="correlation has imaginary part 1.000e-01"):
            correlation_direct(rho, X_AXIS, Z_AXIS)
        with pytest.raises(ArithmeticError, match="correlation has imaginary part"):
            correlation_forms(rho, X_AXIS, Z_AXIS, grid_pair, grid_single)
        # along z, z the imaginary part does not enter
        assert correlation_direct(rho, Z_AXIS, Z_AXIS) == pytest.approx(0.5, abs=1e-14)

    def test_default_grids_built_once(self, monkeypatch):
        seen = []
        frame = steering._frame
        monkeypatch.setattr(steering, "_frame",
                            lambda rep, grid: seen.append(grid) or frame(rep, grid))
        for _ in range(2):
            steering_check(werner(0.5).mat)
        # each call looks up the frame on the pair grid, then on the single one
        assert len(seen) == 4
        pair, single = seen[:2]
        assert seen[2] is pair and seen[3] is single
        assert (pair.spheres, single.spheres) == (2, 1)
        for grid in (pair, single):
            assert (grid.n_azimuth, grid.n_polar) == (8, 8)
            for nodes in (grid.azimuth, grid.polar, grid.polar_weight):
                assert not nodes.flags.writeable


class TestCorrelationTensor:
    def test_werner_diagonal(self):
        for p in (-1 / 3, 0.0, 0.5, 1.0):
            np.testing.assert_allclose(correlation_tensor(werner(p).mat),
                                       np.diag([p, -p, p]), atol=1e-14)

    def test_maximally_mixed_zero(self):
        np.testing.assert_allclose(correlation_tensor(np.eye(4) / 4), np.zeros((3, 3)),
                                   atol=1e-15)

    def test_bilinear_identity(self):
        rng = np.random.default_rng(67)
        for seed in range(5):
            rho = random_density(4, 8000 + seed).mat
            t = correlation_tensor(rho)
            for _ in range(4):
                k1, k2 = random_unit(rng), random_unit(rng)
                assert k1 @ t @ k2 == pytest.approx(correlation_direct(rho, k1, k2),
                                                    abs=1e-12)

    def test_entries_bounded(self):
        for seed in range(10):
            t = correlation_tensor(random_density(4, 8100 + seed).mat)
            assert np.abs(t).max() <= 1 + 1e-12

    def test_matches_per_entry_reference(self):
        states = [random_density(4, 8400 + seed).mat for seed in range(100)]
        states += [werner(p).mat for p in (-1 / 3, 0.0, 0.5, 1.0)]
        for rho in states:
            np.testing.assert_allclose(correlation_tensor(rho),
                                       correlation_tensor_reference(rho), rtol=0, atol=1e-15)

    def test_non_hermitian_rejected(self):
        # an anti-Hermitian part puts 0.1j into T_xz
        rho = werner(0.5).mat + 0.1j * np.kron(PAULI_X, PAULI_Z) / 4
        with pytest.raises(ArithmeticError, match="not real"):
            correlation_tensor_reference(rho)
        with pytest.raises(ArithmeticError, match="not real"):
            correlation_tensor(rho)


class TestMaxCorrelation:
    def test_werner_tensor(self):
        value, k1, k2 = max_correlation(np.diag([0.4, -0.4, 0.4]))
        assert value == pytest.approx(0.4, abs=1e-14)
        # grid-search oracle
        assert max_correlation_grid(np.diag([0.4, -0.4, 0.4])) \
            == pytest.approx(0.4, abs=1e-3)

    def test_zero_tensor(self):
        value, k1, k2 = max_correlation(np.zeros((3, 3)))
        assert value == 0.0
        assert np.linalg.norm(k1) == pytest.approx(1.0)

    def test_degenerate_tie_break_is_lexicographic(self):
        value, k1, k2 = max_correlation(np.diag([1.0, -1.0, 1.0]))
        assert value == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(k1, X_AXIS, atol=1e-12)
        np.testing.assert_allclose(k2, X_AXIS, atol=1e-12)

    def test_matches_brute_force_on_random_tensors(self):
        rng = np.random.default_rng(68)
        dirs = sphere_directions()
        for _ in range(10):
            t = rng.uniform(-1, 1, (3, 3))
            value, k1, k2 = max_correlation(t)
            # SVD value dominates every grid pair and is attained at (k1, k2)
            grid_best = (dirs @ t @ dirs.T).max()
            assert value >= grid_best - 1e-12
            assert k1 @ t @ k2 == pytest.approx(value, abs=1e-12)
            assert value == pytest.approx(max_correlation_grid(t), abs=1e-9)

    def test_scaling_invariance_of_argmax(self):
        t = np.diag([0.3, -0.2, 0.1])
        v1, k1a, k2a = max_correlation(t)
        v2, k1b, k2b = max_correlation(2.5 * t)
        assert v2 == pytest.approx(2.5 * v1, abs=1e-14)
        np.testing.assert_allclose(k1a, k1b, atol=1e-12)
        np.testing.assert_allclose(k2a, k2b, atol=1e-12)


class TestChsh:
    def test_maximally_mixed_is_zero(self):
        rng = np.random.default_rng(69)
        dirs = [random_unit(rng) for _ in range(4)]
        assert chsh_value(np.eye(4) / 4, *dirs) == pytest.approx(0.0, abs=1e-14)

    def test_canonical_quadruple_saturates(self):
        b = np.array([1, 0, 1]) / sqrt(2)
        c = np.array([1, 0, -1]) / sqrt(2)
        got = chsh_value(werner(1.0).mat, X_AXIS, b, c, Z_AXIS)
        assert got == pytest.approx(2 * sqrt(2), abs=1e-12)

    def test_werner_maximum_scales_with_p(self):
        for p in (-1 / 3, 0.2, 0.5, 1 / sqrt(2), 1.0):
            result = chsh_max(werner(p).mat)
            assert result.value == pytest.approx(2 * sqrt(2) * abs(p), abs=1e-3)

    def test_closed_form_against_brute_force(self):
        rng = np.random.default_rng(70)
        cases = [(t, None) for t in rng.uniform(-1, 1, (100, 3, 3))]
        cases += [(np.zeros((3, 3)), None), (0.7 * np.outer(X_AXIS, Y_AXIS), None)]
        cases += [(correlation_tensor(rho), rho)
                  for rho in (random_density(4, 8300 + seed).mat for seed in range(20))]
        for t, rho in cases:
            result = chsh_max(t if rho is None else rho)
            a, b, c, d = (np.array(result.directions[k]) for k in "abcd")
            attained = (a @ t @ (b + c) + d @ t @ (b - c) if rho is None
                        else chsh_value(rho, a, b, c, d))
            assert attained == pytest.approx(result.value, abs=1e-12)
            lattice_best, refined = chsh_brute_force(t)
            assert lattice_best <= result.value + 1e-12
            assert refined == pytest.approx(result.value, abs=1e-9)

    def test_separable_werner_respects_classical_bound(self):
        for p in (-1 / 3, 0.1, 1 / 3):
            assert chsh_max(werner(p).mat).value <= 2 + 1e-6

    def test_achieved_by_its_own_directions(self):
        result = chsh_max(werner(0.8).mat)
        dirs = [np.array(result.directions[k]) for k in "abcd"]
        assert chsh_value(werner(0.8).mat, *dirs) == pytest.approx(result.value, abs=1e-9)

    def test_product_states_respect_classical_bound(self):
        for seed in range(20):
            rho = np.kron(random_density(2, seed).mat, random_density(2, 100 + seed).mat)
            assert chsh_max(rho).value <= 2 + 1e-6

    def test_werner_one_violates_classical_bound(self):
        result = chsh_max(werner(1.0).mat)
        assert result.value > 2
        assert result.value == pytest.approx(2 * sqrt(2), abs=1e-3)


class TestSteeringCheck:
    def test_werner_04(self, grid_single, grid_pair):
        report = steering_check(werner(0.4).mat, grid_pair=grid_pair,
                                grid_single=grid_single, p=0.4)
        assert report.lhs == pytest.approx(0.4, abs=1e-10)
        assert report.rhs_all_entries == pytest.approx(2 / 3 * 0.4, abs=1e-12)
        assert report.rhs_diagonal == pytest.approx(2 / 3 * 0.4, abs=1e-12)
        assert report.inequality_holds
        assert report.chsh_max == pytest.approx(2 * sqrt(2) * 0.4, abs=1e-3)
        assert not report.bell_violated

    def test_werner_zero_equality(self, grid_single, grid_pair):
        report = steering_check(werner(0.0).mat, grid_pair=grid_pair,
                                grid_single=grid_single)
        assert report.lhs == pytest.approx(0.0, abs=1e-14)
        assert report.rhs_all_entries == pytest.approx(0.0, abs=1e-14)
        assert report.inequality_holds

    def test_werner_one_bell_violation(self, grid_single, grid_pair):
        report = steering_check(werner(1.0).mat, grid_pair=grid_pair,
                                grid_single=grid_single)
        assert report.bell_violated
        assert report.chsh_max == pytest.approx(2 * sqrt(2), abs=1e-3)

    def test_lhs_dominates_every_entry(self):
        for seed in range(10):
            rho = random_density(4, 8200 + seed).mat
            report = steering_check(rho)
            t = correlation_tensor(rho)
            assert report.lhs >= np.abs(t).max() - 1e-12

    def test_report_dict_schema(self, grid_single, grid_pair):
        report = steering_check(werner(0.5).mat, grid_pair=grid_pair,
                                grid_single=grid_single, p=0.5)
        d = report.as_dict()
        for key in ("p", "tensor", "lhs", "rhs_all_entries", "rhs_diagonal",
                    "inequality_holds", "chsh_max", "bell_violated",
                    "correlation_forms", "max_directions", "notes"):
            assert key in d
        assert set(d["correlation_forms"]) == {"direct", "tomo_2q_a", "tomo_2q_b",
                                               "tomo_qudit"}


class TestWernerReport:
    def test_p_04_aggregates(self, grid_single, grid_pair):
        report = werner_report(0.4, grid_pair, grid_single, n_spot_points=3)
        assert report.correlation_zz == pytest.approx(0.4, abs=1e-12)
        assert report.correlation_form_spread < 1e-8
        assert report.tomogram_spot_checks["qudit_closed_form_max_dev"] < 1e-10
        assert report.tomogram_spot_checks["two_qubit_closed_form_max_dev"] < 1e-10
        assert report.kernel_mapping_residual["qudit_to_two_qubit"] < 1e-8
        assert report.kernel_mapping_residual["two_qubit_to_qudit"] < 1e-8
        assert NOTE_WERNER_DOMAIN in report.notes

    def test_entangled_flag_values(self, grid_single, grid_pair):
        report = werner_report(1.0, grid_pair, grid_single, n_spot_points=2)
        assert report.steering.bell_violated
        assert report.steering.chsh_max > 2

    def test_zero_parameter_trivial(self, grid_single, grid_pair):
        report = werner_report(0.0, grid_pair, grid_single, n_spot_points=2)
        assert report.correlation_zz == pytest.approx(0.0, abs=1e-14)
        assert report.steering.lhs == pytest.approx(0.0, abs=1e-14)
        assert report.steering.chsh_max == pytest.approx(0.0, abs=1e-12)

    def test_correlation_zz_read_from_the_steering_check(self, grid_single, grid_pair,
                                                           monkeypatch):
        # E(z, z) is the direct form of the report's own steering check, the
        # number a second correlation_direct call would give, bit for bit
        sweep = np.linspace(-1 / 3, 1.0, 9)
        want = [correlation_direct(werner(p), Z_AXIS, Z_AXIS) for p in sweep]
        calls = []
        direct = steering.correlation_direct
        monkeypatch.setattr(steering, "correlation_direct",
                            lambda *a: calls.append(a) or direct(*a))
        for p, zz in zip(sweep, want):
            report = werner_report(p, grid_pair, grid_single, n_spot_points=2)
            assert type(report.correlation_zz) is float and report.correlation_zz == zz
            assert report.correlation_zz == report.steering.correlation_forms["direct"]
        assert calls == []

    def test_domain_error(self):
        with pytest.raises(ValueError):
            werner_report(1.5)

    def test_serializable(self, grid_single, grid_pair):
        import json
        json.dumps(werner_report(0.3, grid_pair, grid_single, n_spot_points=2).as_dict())


class TestTensorInputs:
    """max_correlation and chsh_max read a tensor through one shared check."""

    def test_complex_tensor_rejected(self):
        t = np.diag([0.5, -0.5, 0.5]).astype(complex)
        t[0, 1] = 0.3j
        with pytest.raises(ArithmeticError, match="correlation tensor entry not real"):
            max_correlation(t)
        with pytest.raises(ArithmeticError, match="correlation tensor entry not real"):
            chsh_max(t)

    def test_roundoff_imaginary_part_accepted(self):
        t = np.diag([0.5, -0.5, 0.5]) + 1e-13j
        assert max_correlation(t)[0] == max_correlation(t.real)[0]
        assert chsh_max(t).value == chsh_max(t.real).value

    def test_identity_list_is_a_tensor(self):
        result = chsh_max([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert result.value == pytest.approx(2 * sqrt(2), abs=1e-14)
        assert result.value == chsh_max(np.eye(3)).value
        assert max_correlation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        t = np.diag([0.5, -0.5, 0.5]).astype(complex if isinstance(bad, complex) else float)
        t[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            max_correlation(t)
        with pytest.raises(ValueError, match="finite"):
            chsh_max(t)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            max_correlation(np.eye(2))
        with pytest.raises(ValueError, match="3x3"):
            max_correlation([["a"] * 3] * 3)


_PAULI_ROWS = np.array([sigma.T.ravel() for sigma in PAULI])


def _reference_max_correlation(t):
    """The SVD maximum with numpy products throughout, and its tie-break."""
    u, s, _ = np.linalg.svd(t)
    if s[0] <= 1e-300:
        return 0.0, X_AXIS.copy(), X_AXIS.copy()
    degenerate = s >= s[0] * (1.0 - 1e-9)
    if degenerate.sum() == 1:
        k1 = u[:, 0]
        if (-k1).tolist() > k1.tolist():
            k1 = -k1
    else:
        projector = u[:, degenerate] @ u[:, degenerate].T
        k1 = next(c / np.linalg.norm(c) for c in (projector @ np.eye(3)[i] for i in range(3))
                  if np.linalg.norm(c) > 1e-12)
    k2 = t.T @ k1
    k2 /= sqrt(k2.dot(k2))
    return float(k1 @ t @ k2), k1, k2


#: Each form's operator X_f, its tensor being Tr(X_f sigma_i (x) sigma_j): the
#: state, its closure or its adjoint closure, built through the frame closures.
_FORM_OPERATORS = {
    "direct": lambda rho, pair, single: rho,
    "tomo_2q_a": lambda rho, pair, single: closure_adjoint(rho, BASIS_TWO_QUBIT, pair),
    "tomo_2q_b": lambda rho, pair, single: closure(rho, BASIS_TWO_QUBIT, pair),
    "tomo_qudit": lambda rho, pair, single: closure_adjoint(rho, BASIS_QUDIT, single),
}


def reference_report(rho, k1, k2, pair, single):
    """Every report field through S R S^T on the factor-regrouped operators
    and numpy reductions."""
    forms = steering._FORMS
    ops = np.array([_FORM_OPERATORS[f](rho, pair, single) for f in forms])
    regrouped = ops.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    tensors = _PAULI_ROWS @ regrouped @ _PAULI_ROWS.T
    t = tensors[0].real + 0.0
    lhs, d1, d2 = _reference_max_correlation(t)
    s = np.linalg.svd(t, compute_uv=False)
    chsh = 2.0 * sqrt(s[0] ** 2 + s[1] ** 2)
    rhs_all = 2.0 / 3.0 * float(t.sum())
    return {
        "tensor": t, "lhs": lhs, "rhs_all_entries": rhs_all,
        "rhs_diagonal": 2.0 / 3.0 * float(t.trace()), "inequality_holds": lhs >= rhs_all,
        "chsh_max": chsh, "bell_violated": chsh > 2.0,
        "correlation_forms": dict(zip(forms, ((tensors @ k2) * k1).sum(axis=-1).real.tolist())),
        "max_directions": {"k1": d1.tolist(), "k2": d2.tolist()},
    }


class TestOnePath:
    """Every correlation quantity takes the same operations whichever
    function or report reads it."""

    @staticmethod
    def cases(nodes):
        rng = np.random.default_rng(9400 + nodes)
        cases = [(random_density(4, 9500 + seed).mat, random_unit(rng), random_unit(rng))
                 for seed in range(200)]
        cases += [(werner(p).mat, random_unit(rng), random_unit(rng))
                  for p in np.linspace(-1 / 3, 1.0, 13)]
        return cases

    @pytest.mark.parametrize("nodes", [8, 16, 32])
    def test_report_reads_the_public_functions_bit_for_bit(self, nodes):
        pair, single = make_grid(nodes, nodes, spheres=2), make_grid(nodes, nodes, spheres=1)
        for rho, k1, k2 in self.cases(nodes):
            report = steering_check(rho, k1, k2, pair, single)
            forms = report.correlation_forms
            assert forms == correlation_forms(rho, k1, k2, pair, single)
            assert forms == {
                "direct": correlation_direct(rho, k1, k2),
                "tomo_2q_a": correlation_tomographic_two_qubit(rho, k1, k2, pair),
                "tomo_2q_b": correlation_tomographic_two_qubit(rho, k1, k2, pair),
                "tomo_qudit": correlation_tomographic_qudit(rho, k1, k2, single),
            }
            np.testing.assert_array_equal(report.tensor, correlation_tensor(rho))
            assert report.chsh_max == chsh_max(rho).value
            lhs, d1, d2 = max_correlation(correlation_tensor(rho))
            assert report.lhs == lhs
            assert report.max_directions == {"k1": d1.tolist(), "k2": d2.tolist()}

    def test_one_svd_per_report(self, monkeypatch, grid_single, grid_pair):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        states = [random_density(4, 9600 + seed).mat for seed in range(5)]
        states += [werner(p).mat for p in (-1 / 3, 0.0, 0.5, 1.0)] + [np.eye(4) / 4]
        for rho in states:
            calls.clear()
            steering_check(rho, X_AXIS, Z_AXIS, grid_pair, grid_single)
            assert len(calls) == 1

    @pytest.mark.parametrize("nodes", [8, 16, 32])
    def test_matches_the_regrouped_contraction(self, nodes):
        pair, single = make_grid(nodes, nodes, spheres=2), make_grid(nodes, nodes, spheres=1)
        for rho, k1, k2 in self.cases(nodes):
            report = steering_check(rho, k1, k2, pair, single)
            want = reference_report(rho, k1, k2, pair, single)
            np.testing.assert_allclose(report.tensor, want["tensor"], rtol=0, atol=1e-14)
            for key in ("lhs", "rhs_all_entries", "rhs_diagonal", "chsh_max"):
                assert abs(getattr(report, key) - want[key]) <= 1e-14, key
            for key in ("inequality_holds", "bell_violated"):
                assert getattr(report, key) == want[key], key
            for form, value in want["correlation_forms"].items():
                assert abs(report.correlation_forms[form] - value) <= 1e-14, form
            for side in ("k1", "k2"):
                np.testing.assert_allclose(report.max_directions[side],
                                           want["max_directions"][side], rtol=0, atol=1e-14)

    def test_tie_broken_directions_unchanged(self, grid_single, grid_pair):
        for p in np.linspace(-1 / 3, 1.0, 13):
            rho = werner(p).mat
            report = steering_check(rho, Z_AXIS, Z_AXIS, grid_pair, grid_single)
            assert report.max_directions == reference_report(
                rho, Z_AXIS, Z_AXIS, grid_pair, grid_single)["max_directions"]
        tensors = [np.zeros((3, 3))] + [np.diag([a, a, 0.0]) for a in (0.7, -0.3, 1e-3)]
        for t in tensors:
            value, k1, k2 = max_correlation(t)
            want_value, want_k1, want_k2 = _reference_max_correlation(t)
            assert value == want_value
            assert k1.tolist() == want_k1.tolist() and k2.tolist() == want_k2.tolist()


def test_chsh_value_equals_the_four_call_sum_bit_for_bit():
    rng = np.random.default_rng(2304)
    for seed in range(100):
        rho = random_density(4, 2304 + seed)
        a, b, c, d = (v / np.linalg.norm(v) for v in rng.standard_normal((4, 3)))
        expected = (steering.correlation_direct(rho, a, b) + steering.correlation_direct(rho, a, c)
                    + steering.correlation_direct(rho, d, b) - steering.correlation_direct(rho, d, c))
        assert steering.chsh_value(rho, a, b, c, d) == expected


def test_max_correlation_grid_keeps_its_bits():
    """One norm per refinement step gives the bits of the two-norm form."""
    def two_norms(t):
        t = np.asarray(t, dtype=float)
        dirs = steering.sphere_directions()
        values = dirs @ t @ dirs.T
        i, j = np.unravel_index(np.argmax(values), values.shape)
        k1, k2 = dirs[i], dirs[j]
        best = float(values[i, j])
        for _ in range(60):
            v = t @ k2
            if np.linalg.norm(v) > 1e-15:
                k1 = v / np.linalg.norm(v)
            v = t.T @ k1
            if np.linalg.norm(v) > 1e-15:
                k2 = v / np.linalg.norm(v)
            best = max(best, float(k1 @ t @ k2))
        return best

    rng = np.random.default_rng(2305)
    tensors = [rng.uniform(-1, 1, (3, 3)) for _ in range(50)]
    tensors += [np.zeros((3, 3)), np.diag([0.4, -0.4, 0.4]), np.diag([1e-16, 0.0, 0.0])]
    for t in tensors:
        assert steering.max_correlation_grid(t) == two_norms(t)
