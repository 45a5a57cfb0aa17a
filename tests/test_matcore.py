import numpy as np
import pytest

from spintomo import matcore
from spintomo.matcore import (
    DensityMatrix,
    kron,
    matrix_from_json_dict,
    matrix_to_json_dict,
    pauli_dot,
    random_density,
    validate_density,
    werner,
    werner_matrix,
)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def observable_matrix_reference(k1, k2):
    """The 4x4 product-observable matrix written out entry by entry,
    independently of any Kronecker-product routine."""
    k1x, k1y, k1z = k1
    k2x, k2y, k2z = k2
    return np.array([
        [k1z * k2z, k1z * (k2x - 1j * k2y), k2z * (k1x - 1j * k1y),
         (k1x - 1j * k1y) * (k2x - 1j * k2y)],
        [k1z * (k2x + 1j * k2y), -k1z * k2z, (k1x - 1j * k1y) * (k2x + 1j * k2y),
         -k2z * (k1x - 1j * k1y)],
        [k2z * (k1x + 1j * k1y), (k1x + 1j * k1y) * (k2x - 1j * k2y), -k1z * k2z,
         -k1z * (k2x - 1j * k2y)],
        [(k1x + 1j * k1y) * (k2x + 1j * k2y), -k2z * (k1x + 1j * k1y),
         -k1z * (k2x + 1j * k2y), k1z * k2z],
    ])


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_pair(self):
        np.testing.assert_array_equal(kron(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))

    def test_matches_entrywise_observable_layout(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k1, k2 = random_unit(rng), random_unit(rng)
            got = kron(pauli_dot(k1), pauli_dot(k2))
            np.testing.assert_allclose(got, observable_matrix_reference(k1, k2), atol=1e-14)

    def test_trace_factorizes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))
            np.testing.assert_allclose(kron(a, b).conj().T, kron(a.conj().T, b.conj().T))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kron(np.eye(4), np.eye(2))


class TestWerner:
    def test_p_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(werner(0.0).mat, np.eye(4) / 4)

    def test_p_one_is_rank_one_projector(self):
        # eigendecomposition oracle
        vals, vecs = np.linalg.eigh(werner(1.0).mat)
        np.testing.assert_allclose(vals, [0, 0, 0, 1], atol=1e-12)
        top = vecs[:, -1]
        target = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert abs(abs(top @ target) - 1.0) < 1e-12

    def test_eigenvalues_closed_form(self):
        for p in np.linspace(-1 / 3, 1, 20):
            vals = np.sort(np.linalg.eigvalsh(werner(p).mat))
            expected = np.sort([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
            np.testing.assert_allclose(vals, expected, atol=1e-12)

    @pytest.mark.parametrize("p", [-1 / 3 - 1.0, -0.5, 1.2, np.inf, np.nan])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            werner(p)

    def test_boundaries_pass_just_outside_fails(self):
        assert validate_density(werner_matrix(-1 / 3)).passed
        assert validate_density(werner_matrix(1.0)).passed
        assert not validate_density(werner_matrix(-1 / 3 - 1e-6)).psd_ok
        assert not validate_density(werner_matrix(1.0 + 1e-6)).psd_ok


class TestValidateDensity:
    def test_werner_passes(self):
        report = validate_density(werner(0.5).mat)
        assert report.passed

    def test_out_of_domain_fails_psd(self):
        report = validate_density(werner_matrix(1.2))
        assert not report.psd_ok
        assert report.min_eigenvalue == pytest.approx((1 - 1.2) / 4, abs=1e-12)
        assert report.hermitian_ok and report.trace_ok

    def test_maximally_mixed_zero_defects(self):
        report = validate_density(np.eye(4) / 4)
        assert report.passed
        assert report.hermiticity_defect == 0.0
        assert report.trace_defect == 0.0

    def test_reports_never_raise(self):
        report = validate_density(np.ones((4, 4)))
        assert not report.passed


class TestRandomDensity:
    def test_deterministic(self):
        a = random_density(4, seed=7)
        b = random_density(4, seed=7)
        np.testing.assert_array_equal(a.mat, b.mat)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_unit_trace_and_psd(self, dim):
        for seed in range(10):
            rho = random_density(dim, seed).mat
            assert abs(np.trace(rho) - 1) < 1e-14
            assert np.linalg.eigvalsh(rho).min() >= -1e-14

    def test_unsupported_dim(self):
        with pytest.raises(ValueError):
            random_density(3, seed=0)


class TestDensityMatrixType:
    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4))  # trace 4

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4, basis="bogus")

    def test_rejects_nonfinite(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_coerces_once(self, monkeypatch):
        # the validation reads the coerced array; it does not coerce it again
        calls = []
        coerce = matcore.as_complex_matrix
        monkeypatch.setattr(matcore, "as_complex_matrix",
                            lambda m, *a, **k: calls.append(m) or coerce(m, *a, **k))
        rows = (np.eye(4) / 4).tolist()
        state = DensityMatrix(rows)
        assert len(calls) == 1
        # the public check still coerces its input, with the same report
        assert validate_density(rows) == state.validation
        assert len(calls) == 2


class TestMatrixJson:
    def test_round_trip(self):
        rho = random_density(4, 11).mat
        payload = matrix_to_json_dict(rho, basis="two_qubit")
        back, basis = matrix_from_json_dict(payload)
        assert basis == "two_qubit"
        np.testing.assert_array_equal(back, rho)

    def test_missing_key(self):
        with pytest.raises(ValueError):
            matrix_from_json_dict({"dim": 2, "re": [[1, 0], [0, 0]]})

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            matrix_from_json_dict({"dim": 3, "re": [], "im": []})
