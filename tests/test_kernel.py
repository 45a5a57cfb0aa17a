import dataclasses
from math import cos, pi, sin

import numpy as np
import pytest

from spintomo import frames, kernel, paper_forms, steering
from spintomo.kernel import (
    map_qudit_to_two_qubit,
    map_state_qudit_to_two_qubit,
    map_state_two_qubit_to_qudit,
    map_two_qubit_to_qudit,
)
from spintomo.paper_forms import (
    SIGN_READING_IMAG,
    SIGN_READING_REAL,
    SIGN_READINGS,
    KernelPoint,
    closed_kernel_report,
    closed_kernel_terms,
    kernel_pair_to_qudit,
    kernel_qudit_to_pair,
    kernel_qudit_to_pair_closed,
)
from spintomo.frames import (
    FramePoint2Q,
    FramePointQudit,
    QUDIT_PROJECTIONS,
    TWO_QUBIT_PROJECTIONS,
    dequantizer_2q,
    dequantizer_qudit,
    quantizer_2q,
    quantizer_qudit,
    reconstruct_state,
    symbol,
    tomogram,
)
from spintomo.matcore import (BASIS_QUDIT, BASIS_TWO_QUBIT, DensityMatrix, random_density,
                              werner)
from spintomo.su2 import EulerAngles

from frame_reference import dual_kernels, node_values, tomogram_evaluator


def rand_angles(rng):
    return EulerAngles(rng.uniform(0, 2 * pi), rng.uniform(0, pi))


def rand_kernel_point(rng):
    return KernelPoint(
        m=QUDIT_PROJECTIONS[rng.integers(4)],
        m1=TWO_QUBIT_PROJECTIONS[rng.integers(2)],
        m2=TWO_QUBIT_PROJECTIONS[rng.integers(2)],
        qudit=rand_angles(rng),
        qubit1=rand_angles(rng),
        qubit2=rand_angles(rng),
    )


def rand_two_qubit_target(rng):
    return FramePoint2Q(
        TWO_QUBIT_PROJECTIONS[rng.integers(2)],
        TWO_QUBIT_PROJECTIONS[rng.integers(2)],
        rand_angles(rng), rand_angles(rng),
    )


class TestKernelSanity:
    def test_flat_tomogram_maps_to_flat(self, grid_single):
        rng = np.random.default_rng(40)
        for _ in range(5):
            target = rand_two_qubit_target(rng)
            got = map_qudit_to_two_qubit(node_values(lambda m, n: 0.25, BASIS_QUDIT, grid_single),
                                         grid_single, target)
            assert got == pytest.approx(0.25, abs=1e-12)

    def test_flat_tomogram_reverse(self, grid_pair):
        rng = np.random.default_rng(41)
        target = FramePointQudit(QUDIT_PROJECTIONS[rng.integers(4)], rand_angles(rng))
        got = map_two_qubit_to_qudit(
            node_values(lambda m1, m2, n1, n2: 0.25, BASIS_TWO_QUBIT, grid_pair), grid_pair, target)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_kernel_sum_rule(self, grid_single):
        # sum over m, integral over the sphere of the kernel = Tr U_pair = 1
        rng = np.random.default_rng(42)
        target = rand_two_qubit_target(rng)
        alpha = grid_single.sphere_alpha()
        beta = grid_single.sphere_beta()
        w = grid_single.sphere_weights()
        total = 0.0
        for m in QUDIT_PROJECTIONS:
            for a, b, wt in zip(alpha, beta, w):
                point = KernelPoint(m, target.m1, target.m2, EulerAngles(a, b),
                                    target.n1, target.n2)
                total += wt * kernel_qudit_to_pair(point)
        assert total.real == pytest.approx(1.0, abs=1e-10)
        assert abs(total.imag) < 1e-10

    def test_reverse_kernel_gamma_independent(self):
        rng = np.random.default_rng(43)
        base = None
        a, b = rng.uniform(0, 2 * pi), rng.uniform(0, pi)
        pair = (rand_angles(rng), rand_angles(rng))
        for gamma in np.linspace(0, 2 * pi, 10):
            point = KernelPoint(0.5, 0.5, -0.5, EulerAngles(a, b, gamma), *pair)
            val = kernel_pair_to_qudit(point)
            if base is None:
                base = val
            assert val == pytest.approx(base, abs=1e-12)


class TestWernerMapping:
    def test_qudit_to_pair_matches_closed_form(self, grid_single):
        rng = np.random.default_rng(44)
        for p in (-1 / 3, 0.0, 0.6, 1.0):
            rho = werner(p)
            w_fn = tomogram_evaluator(rho, BASIS_QUDIT)
            for _ in range(5):
                target = rand_two_qubit_target(rng)
                got = map_qudit_to_two_qubit(node_values(w_fn, BASIS_QUDIT, grid_single),
                                             grid_single, target)
                th1, ph1 = target.n1.polar, target.n1.azimuth
                th2, ph2 = target.n2.polar, target.n2.azimuth
                want = 0.25 + p * target.m1 * target.m2 * (
                    cos(th1) * cos(th2) + sin(th1) * sin(th2) * cos(ph1 + ph2))
                assert got == pytest.approx(want, abs=1e-10)
                assert got == pytest.approx(tomogram(rho.mat, target), abs=1e-10)

    def test_north_pole_value(self, grid_single):
        rho = werner(0.5)
        target = FramePoint2Q(0.5, 0.5, EulerAngles(0, 0), EulerAngles(0, 0))
        got = map_state_qudit_to_two_qubit(rho, grid_single, target)
        assert got == pytest.approx(0.375, abs=1e-10)

    def test_pair_to_qudit_beta_zero(self, grid_pair):
        for p in (-1 / 3, 0.0, 0.5, 1.0):
            got = map_state_two_qubit_to_qudit(
                werner(p), grid_pair, FramePointQudit(1.5, EulerAngles(0.3, 0.0)))
            assert got == pytest.approx((1 + p) / 4, abs=1e-10)

    def test_round_trip_qudit_to_pair_to_qudit(self, grid_single, grid_pair):
        rng = np.random.default_rng(45)
        rho = werner(0.8)
        for _ in range(2):
            qtarget = FramePointQudit(QUDIT_PROJECTIONS[rng.integers(4)], rand_angles(rng))
            # mapped two-qubit tomogram fed into the reverse map
            omega = lambda m1, m2, n1, n2: map_state_qudit_to_two_qubit(
                rho, grid_single, FramePoint2Q(m1, m2, n1, n2))
            via_pair = map_two_qubit_to_qudit(node_values(omega, BASIS_TWO_QUBIT, grid_pair),
                                              grid_pair, qtarget)
            assert via_pair == pytest.approx(tomogram(rho.mat, qtarget), abs=1e-8)


class TestIntertwiningOnRandomStates:
    def test_forward(self, grid_single):
        rng = np.random.default_rng(46)
        for seed in range(10):
            rho = random_density(4, 4000 + seed)
            target = rand_two_qubit_target(rng)
            mapped = map_state_qudit_to_two_qubit(rho, grid_single, target)
            assert mapped == pytest.approx(tomogram(rho.mat, target), abs=1e-8)

    def test_reverse(self, grid_pair):
        rng = np.random.default_rng(47)
        for seed in range(10):
            rho = random_density(4, 5000 + seed)
            target = FramePointQudit(QUDIT_PROJECTIONS[rng.integers(4)], rand_angles(rng))
            mapped = map_state_two_qubit_to_qudit(rho, grid_pair, target)
            assert mapped == pytest.approx(tomogram(rho.mat, target), abs=1e-8)

    def test_evaluator_and_state_paths_agree(self, grid_single):
        rng = np.random.default_rng(48)
        rho = random_density(4, 51)
        target = rand_two_qubit_target(rng)
        slow = map_qudit_to_two_qubit(
            node_values(tomogram_evaluator(rho, BASIS_QUDIT), BASIS_QUDIT, grid_single),
            grid_single, target)
        fast = map_state_qudit_to_two_qubit(rho, grid_single, target)
        assert slow == pytest.approx(fast, abs=1e-13)

    def test_linearity_in_the_tomogram(self, grid_single):
        rng = np.random.default_rng(49)
        target = rand_two_qubit_target(rng)
        lam = 0.3
        w_a = tomogram_evaluator(werner(0.9), BASIS_QUDIT)
        w_b = tomogram_evaluator(werner(-0.2), BASIS_QUDIT)
        mix = lambda m, n: lam * w_a(m, n) + (1 - lam) * w_b(m, n)
        got = map_qudit_to_two_qubit(node_values(mix, BASIS_QUDIT, grid_single), grid_single, target)
        want = (lam * map_qudit_to_two_qubit(node_values(w_a, BASIS_QUDIT, grid_single),
                                             grid_single, target)
                + (1 - lam) * map_qudit_to_two_qubit(node_values(w_b, BASIS_QUDIT, grid_single),
                                                     grid_single, target))
        assert got == pytest.approx(want, abs=1e-12)

    def test_node_values_of_another_shape_rejected(self, grid_single, grid_pair):
        # values of the right size in the wrong layout used to be reshaped
        # silently into a wrong answer
        rng = np.random.default_rng(52)
        rho = random_density(4, 53)
        qudit = node_values(tomogram_evaluator(rho, BASIS_QUDIT), BASIS_QUDIT, grid_single)
        target = rand_two_qubit_target(rng)
        assert map_qudit_to_two_qubit(qudit, grid_single, target) == pytest.approx(
            tomogram(rho, target), abs=1e-12)
        for wrong in (qudit.T, qudit.ravel(), qudit[None]):
            with pytest.raises(ValueError, match=r"shape \(4, 64\)"):
                map_qudit_to_two_qubit(wrong, grid_single, target)
        pair = np.full((2, 64, 2, 64), 0.25)
        target = FramePointQudit(0.5, rand_angles(rng))
        assert map_two_qubit_to_qudit(pair, grid_pair, target) == pytest.approx(0.25, abs=1e-12)
        for wrong in (pair.transpose(1, 0, 3, 2), pair.reshape(128, 128), pair.ravel()):
            with pytest.raises(ValueError, match=r"shape \(2, 64, 2, 64\)"):
                map_two_qubit_to_qudit(wrong, grid_pair, target)

    @pytest.mark.parametrize("name", ["map_qudit_to_two_qubit", "map_state_qudit_to_two_qubit",
                                      "map_two_qubit_to_qudit", "map_state_two_qubit_to_qudit"])
    def test_target_of_the_source_picture_rejected(self, grid_single, grid_pair, name):
        # a target in the source picture would read the source tomogram, not map it
        rho = random_density(4, 3)
        if name.endswith("_to_two_qubit"):
            basis, grid, expected = BASIS_QUDIT, grid_single, "FramePoint2Q"
            wrong = FramePointQudit(1.5, EulerAngles(0.3, 1.1))
        else:
            basis, grid, expected = BASIS_TWO_QUBIT, grid_pair, "FramePointQudit"
            wrong = FramePoint2Q(0.5, -0.5, EulerAngles(0.3, 1.1), EulerAngles(2.0, 0.4))
        source = rho if name.startswith("map_state") else frames._analyze(rho.mat, basis, grid).real
        with pytest.raises(TypeError, match=f"target must be a {expected}, got"):
            getattr(kernel, name)(source, grid, wrong)


class TestDualKernels:
    def test_components_are_the_swapped_kernels(self):
        rng = np.random.default_rng(50)
        point = rand_kernel_point(rng)
        first, second = dual_kernels(point)
        assert first == kernel_pair_to_qudit(point)
        assert second == kernel_qudit_to_pair(point)

    def test_dual_transport_qudit_to_pair(self, grid_single):
        # dual symbols move with the swapped kernel: integrating the qudit
        # dual symbol against the pair->qudit kernel yields the two-qubit
        # dual symbol Tr(rho * quantizer_2q)
        from spintomo.frames import quantizer_qudit

        rng = np.random.default_rng(51)
        rho = werner(0.5).mat
        alpha = grid_single.sphere_alpha()
        beta = grid_single.sphere_beta()
        w = grid_single.sphere_weights()
        for _ in range(3):
            target = rand_two_qubit_target(rng)
            total = 0.0
            for m in QUDIT_PROJECTIONS:
                for a, b, wt in zip(alpha, beta, w):
                    qp = FramePointQudit(m, EulerAngles(a, b))
                    w_dual = np.trace(rho @ quantizer_qudit(qp))
                    k = kernel_pair_to_qudit(KernelPoint(m, target.m1, target.m2,
                                                         EulerAngles(a, b),
                                                         target.n1, target.n2))
                    total += wt * w_dual * k
            want = np.trace(rho @ quantizer_2q(target))
            assert total.real == pytest.approx(want.real, abs=1e-8)
            assert abs(total.imag) < 1e-8

    def test_dual_transport_pair_to_qudit(self, grid_pair):
        # reverse direction: the two-qubit dual symbol of rho, integrated
        # against the qudit->pair kernel Tr(D_qudit U_pair), reproduces the
        # qudit dual symbol Tr(rho * quantizer_qudit). The kernel sum over
        # the pair grid is exactly the two-qubit frame pairing of the qudit
        # quantizer (symbol side) with rho (dual-symbol side).
        from spintomo.frames import quantizer_qudit

        from frame_reference import frame_pairing_two_qubit

        rng = np.random.default_rng(52)
        rho = werner(0.5).mat
        for _ in range(3):
            qtarget = FramePointQudit(QUDIT_PROJECTIONS[rng.integers(4)], rand_angles(rng))
            q_op = quantizer_qudit(qtarget)
            got = frame_pairing_two_qubit(q_op, rho, grid_pair)
            want = np.trace(rho @ q_op)
            assert got.real == pytest.approx(want.real, abs=1e-8)
            assert abs(got.imag) < 1e-8


class TestClosedFormKernel:
    def test_constant_term(self):
        rng = np.random.default_rng(53)
        point = rand_kernel_point(rng)
        terms = closed_kernel_terms(point)
        assert terms["constant"] == 0.25
        # zeroing every projection-dependent term by hand leaves the constant
        others = sum(v for k, v in terms.items() if k != "constant")
        assert kernel_qudit_to_pair_closed(point) == pytest.approx(0.25 + others)

    def test_finite_at_beta_zero(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            point = KernelPoint(
                QUDIT_PROJECTIONS[rng.integers(4)], 0.5, -0.5,
                EulerAngles(rng.uniform(0, 2 * pi), 0.0),
                rand_angles(rng), rand_angles(rng))
            at_zero = kernel_qudit_to_pair_closed(point)
            near = KernelPoint(point.m, point.m1, point.m2,
                               EulerAngles(point.qudit.azimuth, 1e-8),
                               point.qubit1, point.qubit2)
            assert np.isfinite(at_zero.real) and np.isfinite(at_zero.imag)
            assert abs(kernel_qudit_to_pair_closed(near) - at_zero) < 1e-6

    def test_cross_check_or_discrepancy_report(self):
        report = closed_kernel_report(n_points=20, seed=99)
        if report.agrees:
            rng = np.random.default_rng(55)
            for _ in range(20):
                point = rand_kernel_point(rng)
                assert kernel_qudit_to_pair_closed(point, report.best_reading) \
                    == pytest.approx(kernel_qudit_to_pair(point) * 8 * pi**2, abs=1e-10)
        else:
            stats = report.reading_stats[report.best_reading]
            assert stats["max_abs_deviation_measure_normalized"] > report.tolerance
            assert set(report.term_max_abs) == {
                "constant", "linear_group", "bracket_polar", "bracket_projections",
                "bracket_mixed", "bracket_double_azimuth"}
            assert len(report.notes) >= 1

    def test_report_serializable(self):
        import json
        json.dumps(closed_kernel_report(n_points=5, seed=1).as_dict())

    @pytest.mark.parametrize("reading", SIGN_READINGS)
    def test_terms_broadcast_equal_scalar_calls(self, reading):
        rng = np.random.default_rng(56)
        points = [rand_kernel_point(rng) for _ in range(12)]
        batch = paper_forms._stacked(points)
        assert batch.m.shape == batch.qubit2.polar.shape == (12,)
        terms = closed_kernel_terms(batch, reading)
        for n, point in enumerate(points):
            for name, value in closed_kernel_terms(point, reading).items():
                assert abs(np.broadcast_to(terms[name], (12,))[n] - value) <= 1e-15, name

    def test_report_matches_per_point_reference(self):
        # the default report's statistics, as computed by the per-point loop
        # over scalar closed-form values it replaced
        expected = {
            SIGN_READING_REAL: (4.581886442177628, 0.040368012550125544, 0.011969430691916421),
            SIGN_READING_IMAG: (4.251986525543244, 0.07608727165978706, 0.018536609997962653),
        }
        stats = closed_kernel_report().reading_stats
        for reading, values in expected.items():
            got = stats[reading]
            assert (got["max_abs_deviation_raw"],
                    got["max_abs_deviation_measure_normalized"],
                    got["mean_abs_deviation_measure_normalized"]) \
                == pytest.approx(values, rel=1e-12, abs=0)


# --------------------------------------------------------------------------
# point reads

class TestPointReads:
    """Every point read, Tr(A U(x)), equals the trace against the point's
    dequantizer at off-grid points (azimuths outside [0, 2 pi), polars
    clamped to 0 and pi) without forming a per-point operator: tomogram,
    symbol, the four maps and the two trace kernels."""

    @staticmethod
    def points():
        rng = np.random.default_rng(97)
        azimuths = (*rng.uniform(-4 * pi, 6 * pi, 9), -0.5, 2 * pi, 7.0)
        polars = (*rng.uniform(0, pi, 9), -0.3, pi + 0.2, 0.0)  # clamped into [0, pi]
        angles = [EulerAngles(a, b) for a, b in zip(azimuths, polars)]
        return [KernelPoint(QUDIT_PROJECTIONS[k % 4], TWO_QUBIT_PROJECTIONS[k % 2],
                            TWO_QUBIT_PROJECTIONS[k // 2 % 2], n, angles[-1 - k], angles[k - 5])
                for k, n in enumerate(angles)]

    @staticmethod
    def reads(grid_single, grid_pair):
        # (name, read, reference) of every point read at every point
        rng = np.random.default_rng(98)
        rho = random_density(4, 98)
        qudit_values = rng.uniform(0, 0.5, (4, grid_single.n_angle_nodes))
        n = grid_pair.n_sphere_nodes
        pair_values = rng.uniform(0, 0.5, (2, n, 2, n))
        from_qudit = reconstruct_state(rho, BASIS_QUDIT, grid_single)
        from_pair = reconstruct_state(rho, BASIS_TWO_QUBIT, grid_pair)
        synth_qudit = frames._synthesize(qudit_values, BASIS_QUDIT, grid_single)
        synth_pair = frames._synthesize(pair_values, BASIS_TWO_QUBIT, grid_pair)
        out = []
        for kp in TestPointReads.points():
            q, p = kp.qudit_point(), kp.pair_point()
            uq, up = dequantizer_qudit(q), dequantizer_2q(p)
            op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            out += [
                ("symbol_qudit", lambda q=q, op=op: symbol(op, q), np.trace(op @ uq)),
                ("symbol_pair", lambda p=p, op=op: symbol(op, p), np.trace(op @ up)),
                ("tomogram_qudit", lambda q=q: tomogram(rho, q), np.trace(rho.mat @ uq).real),
                ("tomogram_pair", lambda p=p: tomogram(rho, p), np.trace(rho.mat @ up).real),
                ("map_state_qudit_to_two_qubit",
                 lambda p=p: map_state_qudit_to_two_qubit(rho, grid_single, p),
                 np.trace(from_qudit @ up).real),
                ("map_state_two_qubit_to_qudit",
                 lambda q=q: map_state_two_qubit_to_qudit(rho, grid_pair, q),
                 np.trace(from_pair @ uq).real),
                ("map_qudit_to_two_qubit",
                 lambda p=p: map_qudit_to_two_qubit(qudit_values, grid_single, p),
                 np.trace(synth_qudit @ up).real),
                ("map_two_qubit_to_qudit",
                 lambda q=q: map_two_qubit_to_qudit(pair_values, grid_pair, q),
                 np.trace(synth_pair @ uq).real),
                ("kernel_qudit_to_pair", lambda kp=kp: kernel_qudit_to_pair(kp),
                 np.trace(quantizer_qudit(q) @ up)),
                ("kernel_pair_to_qudit", lambda kp=kp: kernel_pair_to_qudit(kp),
                 np.trace(quantizer_2q(p) @ uq)),
            ]
        return out

    def test_equal_trace_against_dequantizer(self, grid_single, grid_pair):
        for name, read, reference in self.reads(grid_single, grid_pair):
            assert abs(read() - reference) <= 1e-15, name

    def test_form_no_point_operator(self, grid_single, grid_pair, monkeypatch):
        # with the rank-one and Kronecker products disabled, every read still
        # returns its value; a trace kernel is handed its source's quantizer,
        # the operator it reads, as a caller asks for it
        reads = self.reads(grid_single, grid_pair)
        quantizers = {}
        for kp in self.points():
            quantizers[kp.qudit_point()] = quantizer_qudit(kp.qudit_point())
            quantizers[kp.pair_point()] = quantizer_2q(kp.pair_point())
        expected = [read() for _, read, _ in reads]

        def disabled(*args):
            raise AssertionError("per-point operator formed")

        monkeypatch.setattr(frames, "_rank_one", disabled)
        monkeypatch.setattr(frames, "_kron", disabled)
        monkeypatch.setattr(paper_forms, "quantizer_qudit", quantizers.__getitem__)
        monkeypatch.setattr(paper_forms, "quantizer_2q", quantizers.__getitem__)
        for (name, read, _), value in zip(reads, expected):
            assert read() == value, name

    @pytest.mark.parametrize("shape", ((2, 2), (3, 3), (4,), (4, 2), (4, 4, 4)))
    def test_wrong_shape_operator_rejected(self, shape):
        kp = self.points()[0]
        for point in (kp.qudit_point(), kp.pair_point()):
            with pytest.raises(ValueError):
                symbol(np.ones(shape), point)
            with pytest.raises(ValueError):
                frames._point_symbol(np.ones(shape), point)


# --------------------------------------------------------------------------
# the state maps read the reconstruction memo

def _mapped_reference(mat, representation, grid, target) -> float:
    """A state map rebuilt from the picture's Gram with the ``@`` products:
    the uncached reconstruction read at the target."""
    op = 0.5 * (mat + mat.conj().T)
    rec = (op.reshape(-1) @ frames._frame(representation, grid).gram).reshape(4, 4)
    v = target._row
    return float(np.vdot(v, v @ rec).real)


def _rand_qudit_target(rng):
    return FramePointQudit(QUDIT_PROJECTIONS[rng.integers(4)], rand_angles(rng))


class TestStateMapMemo:
    """Both state maps read the memoized reconstruction; a state mapped to
    many targets is reconstructed once, and every value is the uncached
    one."""

    @staticmethod
    def maps(grid_single, grid_pair, rng):
        # (map, source picture, grid, target) for each direction
        return ((map_state_qudit_to_two_qubit, BASIS_QUDIT, grid_single,
                 rand_two_qubit_target(rng)),
                (map_state_two_qubit_to_qudit, BASIS_TWO_QUBIT, grid_pair,
                 _rand_qudit_target(rng)))

    @pytest.mark.parametrize("nodes", [8, 16, 32])
    def test_equal_the_uncached_maps_bit_for_bit(self, nodes):
        single, pair = frames.make_grid(nodes, nodes), frames.make_grid(nodes, nodes, spheres=2)
        rng = np.random.default_rng(nodes)
        for seed in range(8):
            rho = random_density(4, 7000 + seed)
            for read, representation, grid, target in self.maps(single, pair, rng):
                want = np.float64(_mapped_reference(rho.mat, representation, grid, target))
                for _ in range(2):  # a miss, then a hit
                    assert np.float64(read(rho, grid, target)).tobytes() == want.tobytes()

    def test_a_state_tagged_with_the_other_basis_still_maps(self, grid_single, grid_pair):
        mat = random_density(4, 7100).mat
        rng = np.random.default_rng(7100)
        for basis in (BASIS_QUDIT, BASIS_TWO_QUBIT):
            tagged = DensityMatrix(mat, basis=basis)
            for read, representation, grid, target in self.maps(grid_single, grid_pair, rng):
                frames._reconstruction_memo.cache_clear()
                assert read(tagged, grid, target) == _mapped_reference(mat, representation, grid,
                                                                       target)

    def test_a_matrix_changed_in_place_maps_again(self, grid_single, grid_pair):
        mat = random_density(4, 7200).mat.copy()
        state = DensityMatrix(mat)
        assert state.mat is mat
        rng = np.random.default_rng(7200)
        for read, representation, grid, target in self.maps(grid_single, grid_pair, rng):
            mat[:] = random_density(4, 7200).mat
            read(state, grid, target)
            mat[:] = random_density(4, 7201).mat
            assert read(state, grid, target) == _mapped_reference(mat, representation, grid, target)

    def test_one_analysis_reconstructs_each_picture_once(self):
        # one state as a library caller analyses it at 16x16: both
        # reconstructions, four maps each way and the steering report
        pair, single = frames.make_grid(16, 16, spheres=2), frames.make_grid(16, 16)
        rng = np.random.default_rng(7300)
        state = DensityMatrix(random_density(4, 7300).mat)
        memo = frames._reconstruction_memo
        memo.cache_clear()
        reconstruct_state(state, BASIS_TWO_QUBIT, pair)
        reconstruct_state(state, BASIS_QUDIT, single)
        for _ in range(4):
            map_state_qudit_to_two_qubit(state, single, rand_two_qubit_target(rng))
        for _ in range(4):
            map_state_two_qubit_to_qudit(state, pair, _rand_qudit_target(rng))
        steering.steering_check(state, np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.6, 0.8]),
                                pair, single)
        info = memo.cache_info()
        assert (info.misses, info.hits) == (2, 8)

    def test_a_state_mapped_to_every_node_is_reconstructed_once(self):
        pair, small = frames.make_grid(8, 8, spheres=2), frames.make_grid(8, 8)
        targets = [FramePointQudit(m, EulerAngles(a, b)) for m in QUDIT_PROJECTIONS
                   for a, b in zip(small.sphere_alpha(), small.sphere_beta())]
        state = random_density(4, 7400)
        memo = frames._reconstruction_memo
        memo.cache_clear()
        for target in targets:
            map_state_two_qubit_to_qudit(state, pair, target)
        info = memo.cache_info()
        assert (len(targets), info.misses, info.hits) == (256, 1, 255)


def test_stacked_points_match_the_astuple_columns():
    """The closed form's coordinate arrays, read from the fields, equal the
    columns of the points' dataclasses.astuple."""
    rng = np.random.default_rng(2306)
    points = [paper_forms._random_kernel_point(rng) for _ in range(30)]
    batch = paper_forms._stacked(points)
    m, m1, m2, *rotations = (np.array(c) for c in zip(*map(dataclasses.astuple, points)))
    for got, want in ((batch.m, m), (batch.m1, m1), (batch.m2, m2)):
        assert np.array_equal(got, want)
    for got, want in zip((batch.qudit, batch.qubit1, batch.qubit2), rotations):
        assert np.array_equal(got.azimuth, want[:, 0]) and np.array_equal(got.polar, want[:, 1])
