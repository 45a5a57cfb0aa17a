import dataclasses

import numpy as np
import pytest

from spintomo import matcore
from spintomo.frames import FramePointQudit, dequantizer_qudit, make_grid
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
from spintomo.su2 import EulerAngles

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


def validation_reference(a, tol=matcore.HERMITICITY_TOL):
    """The report's fields with the adjoint taken once per use."""
    herm_defect = float(np.abs(a - a.conj().T).max())
    trace_defect = float(abs(a.trace() - 1.0))
    min_eig = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).min())
    return (herm_defect, trace_defect, min_eig,
            herm_defect <= tol, trace_defect <= tol, min_eig >= -matcore.PSD_TOL)


def edge_state():
    """Inside the PSD tolerance, with a tomogram value of -5e-11 at the first
    node of the 8x8 qudit grid (the CLI's numerical-refusal state)."""
    grid = make_grid(8, 8)
    point = FramePointQudit(1.5, EulerAngles(grid.azimuth[0], grid.polar[0]))
    _, vectors = np.linalg.eigh(dequantizer_qudit(point))
    phi, psi = vectors[:, -1], vectors[:, 0]
    eps = 5e-11
    return (1 + eps) * np.outer(psi, psi.conj()) - eps * np.outer(phi, phi.conj())


class TestValidationFields:
    @staticmethod
    def matrices():
        rng = np.random.default_rng(44)
        yield from (random_density(dim, seed).mat for dim in (2, 4) for seed in range(20))
        yield from (werner_matrix(p) for p in (-1 / 3, 0.0, 0.5, 1.0, 1.2, -0.5))
        yield edge_state()
        yield from (np.eye(4), np.ones((4, 4)), np.diag([1.0, -0.5, 0.25, 0.25]))
        for _ in range(10):  # neither Hermitian nor of unit trace
            yield rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def test_every_field_equals_the_reference_bit_for_bit(self):
        for a in self.matrices():
            report = validate_density(a)
            got = tuple(getattr(report, f.name) for f in dataclasses.fields(report))
            want = validation_reference(matcore.as_complex_matrix(a))
            assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]

    @pytest.mark.parametrize("entries", [
        [complex(np.nan, 0.0)], [complex(0.0, np.nan)], [complex(np.inf, 0.0)],
        [complex(-np.inf, 0.0)], [complex(0.0, np.inf)], [complex(0.0, -np.inf)],
        [complex(np.nan, np.inf)], [complex(np.nan, 0.0), complex(0.0, -np.inf)],
    ], ids=["nan", "nan_imag", "inf", "-inf", "inf_imag", "-inf_imag", "nan_inf", "two_cells"])
    def test_nonfinite_entries_rejected(self, entries):
        m = np.eye(4, dtype=complex) / 4
        for k, x in enumerate(entries):
            m[1, 2 + k] = x
        for check in (matcore.as_complex_matrix, validate_density, DensityMatrix):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                check(m)
        if all(x.imag == 0 for x in entries):  # the same cells in a real array
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                matcore.as_complex_matrix(m.real)


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


class TestRandomDensityStack:
    """``matcore._random_densities``: random_density's states drawn as one
    stack and validated in one pass."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_equals_random_density_bit_for_bit(self, dim):
        seeds = list(range(300, 340))
        stack = matcore._random_densities(dim, seeds)
        assert stack.shape == (len(seeds), dim, dim)
        for seed, mat in zip(seeds, stack):
            assert mat.tobytes() == random_density(dim, seed).mat.tobytes()

    @pytest.mark.parametrize("dim", [2, 4])
    def test_a_state_does_not_depend_on_the_other_seeds(self, dim):
        alone = matcore._random_densities(dim, [77])[0]
        for seeds in ([77, 1, 2], [5, 77], [9, 8, 7, 77, 6], [77] * 3):
            stack = matcore._random_densities(dim, seeds)
            for k in (k for k, seed in enumerate(seeds) if seed == 77):
                assert stack[k].tobytes() == alone.tobytes()

    def test_unsupported_dim(self):
        with pytest.raises(ValueError, match="unsupported dimension 3"):
            matcore._random_densities(3, [0])

    @staticmethod
    def fields(report):
        return [np.asarray(getattr(report, f.name)).tobytes() for f in dataclasses.fields(report)]

    def test_stack_of_one_gives_the_figures_of_validate_density(self):
        for a in TestValidationFields.matrices():
            a = matcore.as_complex_matrix(a)
            assert self.fields(matcore._validation_report(a[None])) \
                == self.fields(validate_density(a))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_gives_the_worst_figures(self, dim):
        mats = list(matcore._random_densities(dim, range(20)))
        if dim == 4:  # out of the Werner domain: not PSD, least eigenvalue -1/4
            mats[7:7] = [werner_matrix(2.0), werner_matrix(1.2), edge_state()]
        reports = [validate_density(a) for a in mats]
        stacked = matcore._validation_report(np.array(mats))
        assert stacked.hermiticity_defect == max(r.hermiticity_defect for r in reports)
        assert stacked.trace_defect == max(r.trace_defect for r in reports)
        assert stacked.min_eigenvalue == min(r.min_eigenvalue for r in reports)
        assert stacked.passed == all(r.passed for r in reports)
        assert stacked.passed == (dim == 2)

    def test_validated_in_one_pass(self, monkeypatch):
        shapes = []
        report = matcore._validation_report
        monkeypatch.setattr(matcore, "_validation_report",
                            lambda a: shapes.append(a.shape) or report(a))
        matcore._random_densities(4, range(30))
        assert shapes == [(30, 4, 4)]
        shapes.clear()
        random_density(4, 5)  # only its DensityMatrix validates it
        assert shapes == [(4, 4)]

    def test_a_failing_stack_raises(self, monkeypatch):
        failing = validate_density(werner_matrix(2.0))
        monkeypatch.setattr(matcore, "_validation_report", lambda a: failing)
        with pytest.raises(ValueError, match="^not a density matrix"):
            matcore._random_densities(4, range(3))


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
