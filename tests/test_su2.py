from math import cos, factorial, pi, sin, sqrt

import numpy as np
import pytest

from spintomo.su2 import (
    EulerAngles,
    _wigner_d_array,
    _wigner_d_row,
    as_direction,
    qubit_rotation,
    spin_projections,
    twice,
    wigner_D,
    wigner_d,
    wigner_d_matrix,
)

from frame_reference import jacobi_poly


def binom_real(top, k):
    out = 1.0
    for i in range(1, k + 1):
        out *= (top - i + 1) / i
    return out


def jacobi_sum_oracle(n, a, b, x):
    """Explicit hypergeometric finite sum, independent of the recurrence."""
    return sum(
        binom_real(n + a, n - s) * binom_real(n + b, s)
        * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s)
        for s in range(n + 1)
    )


def jacobi_form(j2, mp2, m2, beta):
    """d^j_{m',m}(beta) from the Jacobi-polynomial form where m' >= |m|,
    extended by d_{m',m} = d_{-m,-m'} = (-1)^(m-m') d_{m,m'}; doubled labels."""
    if mp2 >= abs(m2):
        pref = sqrt(factorial((j2 + mp2) // 2) * factorial((j2 - mp2) // 2)
                    / (factorial((j2 + m2) // 2) * factorial((j2 - m2) // 2)))
        n, a, b = (j2 - mp2) // 2, (mp2 - m2) // 2, (mp2 + m2) // 2
        return pref * cos(beta / 2) ** b * sin(beta / 2) ** a * jacobi_poly(n, a, b, cos(beta))
    if -m2 >= abs(mp2):
        return jacobi_form(j2, -m2, -mp2, beta)
    return (-1) ** ((m2 - mp2) // 2) * jacobi_form(j2, m2, mp2, beta)


class TestEulerAngles:
    def test_polar_clamped(self):
        assert EulerAngles(0.0, -0.5).polar == 0.0
        assert EulerAngles(0.0, 4.0).polar == pi

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EulerAngles(np.nan, 0.0)


class TestTwice:
    def test_half_integers(self):
        assert [twice(v) for v in (1.5, -0.5, 2, 0)] == [3, -1, 4, 0]

    @pytest.mark.parametrize("value", [0.7, float("nan"), float("inf"), -float("inf")])
    def test_anything_else_is_not_a_half_integer(self, value):
        with pytest.raises(ValueError, match=rf"^{value} is not a half-integer$"):
            twice(value)


class TestDirection:
    def test_accepts_unit(self):
        np.testing.assert_array_equal(as_direction([0, 0, 1]), [0, 0, 1])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            as_direction([0, 0, 1.1])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            as_direction([1, 0])


class TestQubitRotation:
    def test_identity(self):
        np.testing.assert_allclose(qubit_rotation(EulerAngles(0, 0, 0)), np.eye(2))

    def test_half_turn(self):
        got = qubit_rotation(EulerAngles(0, pi, 0))
        np.testing.assert_allclose(got, [[0, 1], [-1, 0]], atol=1e-15)

    def test_unitary_unit_determinant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = qubit_rotation(EulerAngles(rng.uniform(0, 2 * pi),
                                           rng.uniform(0, pi),
                                           rng.uniform(0, 2 * pi)))
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
            assert abs(np.linalg.det(u) - 1) < 1e-14


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_poly(0, 2.5, -0.5, 0.7) == 1.0

    def test_legendre_degree_one(self):
        assert jacobi_poly(1, 0, 0, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_against_sum_oracle_spotcheck(self):
        got = jacobi_poly(3, 1.0, 2.0, 0.5)
        assert got == pytest.approx(jacobi_sum_oracle(3, 1.0, 2.0, 0.5), rel=1e-12)

    def test_recurrence_matches_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(0, 7))
            a = rng.uniform(-4, 4)
            b = rng.uniform(-4, 4)
            x = rng.uniform(-1, 1)
            want = jacobi_sum_oracle(n, a, b, x)
            got = jacobi_poly(n, a, b, x)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            jacobi_poly(-1, 0, 0, 0)


class TestWignerSmallD:
    def test_beta_zero_is_delta(self):
        for j in (0.5, 1, 1.5, 2):
            np.testing.assert_array_equal(wigner_d_matrix(j, 0.0), np.eye(int(2 * j) + 1))

    def test_spin_half_diagonal(self):
        for beta in (0.1, 0.9, 2.7):
            assert wigner_d(0.5, 0.5, 0.5, beta) == pytest.approx(cos(beta / 2), abs=1e-15)

    def test_spin_three_half_orthogonal(self):
        d = wigner_d_matrix(1.5, pi / 3)
        np.testing.assert_allclose(d @ d.T, np.eye(4), atol=1e-12)

    def test_transposition_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            beta = rng.uniform(0, pi)
            for j in (0.5, 1.5):
                ms = spin_projections(j)
                for mp in ms:
                    for m in ms:
                        lhs = wigner_d(j, mp, m, beta)
                        rhs = (-1.0) ** int(round(m - mp)) * wigner_d(j, m, mp, beta)
                        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            beta = rng.uniform(0, pi)
            for mp in (1.5, 0.5, -0.5, -1.5):
                for m in (1.5, 0.5, -0.5, -1.5):
                    assert wigner_d(1.5, mp, m, beta) == pytest.approx(
                        wigner_d(1.5, -m, -mp, beta), abs=1e-12)

    def test_matrix_equals_elementwise(self):
        # the matrix fills its entries through the d symmetries; every entry
        # must still be bit-identical to wigner_d
        rng = np.random.default_rng(6)
        betas = np.concatenate([rng.uniform(0, pi, 100), [0.0, pi / 2, pi]])
        for j in (0.5, 1, 1.5, 2):
            ms = spin_projections(j)
            for beta in betas:
                loop = np.array([[wigner_d(j, mp, m, beta) for m in ms] for mp in ms])
                assert wigner_d_matrix(j, beta).tobytes() == loop.tobytes()

    def test_row_equals_matrix_row(self):
        # a single point reads one row of d^j; it must be the matrix's row bit for bit
        betas = (0.0, pi, *np.random.default_rng(11).uniform(0, pi, 20))
        for j2 in range(1, 5):
            for beta in betas:
                d = wigner_d_matrix(j2 / 2, beta)
                for row in range(j2 + 1):
                    assert np.array(_wigner_d_row(j2, row, beta)).tobytes() == d[row].tobytes()

    def test_table_matches_jacobi_form(self):
        # both evaluations of Wigner's sum, in floats and over an array of
        # angles, against the Jacobi form built on the public jacobi_poly
        betas = np.concatenate([np.random.default_rng(12).uniform(0, pi, 120), [0.0, pi / 2, pi]])
        for j2 in range(1, 5):
            ms = range(j2, -j2 - 1, -2)
            arrays = _wigner_d_array(j2, betas)
            for beta, array in zip(betas, arrays):
                want = np.array([[jacobi_form(j2, mp2, m2, beta) for m2 in ms] for mp2 in ms])
                np.testing.assert_allclose(wigner_d_matrix(j2 / 2, beta), want, rtol=0, atol=1e-15)
                np.testing.assert_allclose(array, want, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(arrays[-3], np.eye(j2 + 1))  # beta = 0

    def test_polar_additivity(self):
        # the family must compose like rotations about a fixed axis
        d1 = wigner_d_matrix(1.5, 0.4)
        d2 = wigner_d_matrix(1.5, 0.9)
        np.testing.assert_allclose(d1 @ d2, wigner_d_matrix(1.5, 1.3), atol=1e-13)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            wigner_d(1.5, 2.5, 0.5, 0.3)
        with pytest.raises(IndexError):
            wigner_d(0.5, 0.5, 1.5, 0.3)
        with pytest.raises(ValueError):
            wigner_d(3.5, 0.5, 0.5, 0.3)  # above the supported cap


class TestWignerD:
    def test_identity_at_origin(self):
        np.testing.assert_allclose(wigner_D(1.5, EulerAngles(0, 0, 0)), np.eye(4))

    def test_unitary(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            angles = EulerAngles(rng.uniform(0, 2 * pi), rng.uniform(0, pi),
                                 rng.uniform(0, 2 * pi))
            for j in (0.5, 1.5):
                d = wigner_D(j, angles)
                np.testing.assert_allclose(d @ d.conj().T, np.eye(int(2 * j) + 1),
                                           atol=1e-12)

    def test_spin_half_matches_qubit_rotation(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            phi = rng.uniform(0, 2 * pi)
            theta = rng.uniform(0, pi)
            psi = rng.uniform(0, 2 * pi)
            u = qubit_rotation(EulerAngles(phi, theta, psi))
            d = wigner_D(0.5, EulerAngles(azimuth=psi, polar=theta, third=phi))
            np.testing.assert_allclose(np.abs(u), np.abs(d), atol=1e-12)
            # under the declared identification the match is exact, not just modulus
            np.testing.assert_allclose(u, d, atol=1e-12)

    def test_unsupported_spin(self):
        with pytest.raises(ValueError):
            wigner_D(2.5, EulerAngles(0, 0, 0))


def test_spin_three_half_small_d_against_literal_formula():
    """Pin four matrix elements to the direct Jacobi-form evaluation."""
    beta = 1.234
    c, s = cos(beta / 2), sin(beta / 2)
    pref = np.sqrt(factorial(3) / (factorial(2) * factorial(1)))
    assert wigner_d(1.5, 1.5, 0.5, beta) == pytest.approx(pref * c**2 * s, abs=1e-14)
    assert wigner_d(1.5, 1.5, 1.5, beta) == pytest.approx(c**3, abs=1e-14)
    assert wigner_d(1.5, 1.5, -1.5, beta) == pytest.approx(s**3, abs=1e-14)
    # symmetry-filled entry: d[1/2, 3/2] = -d[3/2, 1/2]
    assert wigner_d(1.5, 0.5, 1.5, beta) == pytest.approx(-pref * c**2 * s, abs=1e-14)
