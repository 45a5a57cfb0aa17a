"""End-to-end verification suite ("selftest") behind the CLI and the tests.

Each criterion is a standalone function that declares its index, title and
runtime budget once, in ``@_criterion``, and returns its verdict with the
measured numbers; :func:`run_selftest` times all of them on a shared context
as :class:`CriterionResult` records, one pass/fail line per criterion. Tolerances are
fixed here, not configurable: they are the acceptance contract of the
package, and loosening them would hide real regressions.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from math import pi, sqrt

import numpy as np

from . import frames, kernel, steering
from .matcore import (
    BASIS_QUDIT,
    BASIS_TWO_QUBIT,
    MIN_AZIMUTH_NODES,
    MIN_POLAR_NODES,
    _kron,
    _random_densities,
    werner,
)
from .su2 import EulerAngles, _wigner_d_row

WALL_CLOCK_BUDGET_SECONDS = 60.0


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict
    seconds: float
    budget_seconds: float | None = None

    def __post_init__(self):
        # verdicts computed from numpy comparisons arrive as numpy.bool_,
        # which the JSON report cannot hold
        self.passed = bool(self.passed)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = " ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"{status} {self.index:2d} {self.name}: {detail}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.3e}" if (v != 0 and (abs(v) < 1e-3 or abs(v) >= 1e4)) else f"{v:g}"
    return str(v)


@dataclass
class SelftestContext:
    grid_single: frames.QuadratureGrid
    grid_pair: frames.QuadratureGrid
    seed: int

    def rng(self, offset: int) -> np.random.Generator:
        return np.random.default_rng(self.seed + offset)

    def states(self, offset: int, n: int, dim: int = 4) -> np.ndarray:
        """random_density's states at seeds seed + offset + k, k < n, as one stack."""
        return _random_densities(dim, range(self.seed + offset, self.seed + offset + n))


#: The criteria in index order, each appended by ``@_criterion`` where it is
#: defined.
CRITERIA = []


def _criterion(index: int, title: str, budget_seconds: float | None = None):
    """Declare a criterion's index, title and runtime budget, and append it to
    :data:`CRITERIA`. The criterion returns ``(passed, details)``;
    :func:`_timed` makes the result."""
    def wrap(fn):
        fn.index = index
        fn.title = title
        fn.budget_seconds = budget_seconds
        CRITERIA.append(fn)
        return fn
    return wrap


def _timed(fn, ctx) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, details = fn(ctx)
    except Exception as exc:  # a crashed criterion is a failed criterion
        passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
    return CriterionResult(fn.index, fn.title, passed, details, time.perf_counter() - t0,
                           budget_seconds=fn.budget_seconds)


# --------------------------------------------------------------------------
# criteria

#: Every projection of each picture, the two-qubit ones as (m1, m2) pairs.
_QUDIT_MS = np.array(frames.QUDIT_PROJECTIONS)
_PAIR_MS = np.array([(m1, m2) for m1 in frames.TWO_QUBIT_PROJECTIONS
                     for m2 in frames.TWO_QUBIT_PROJECTIONS])


def _projection_sets(qudit: np.ndarray, pair: np.ndarray) -> tuple:
    """Point sets over every projection (axis 0) at qudit rotations (..., 2)
    and two-qubit rotations (..., 2, 2), each rotation (azimuth, polar)."""
    ones = (1,) * (qudit.ndim - 1)
    return (frames.PointSet(frames.FramePointQudit, _QUDIT_MS.reshape(4, *ones), qudit[..., 0],
                            qudit[..., 1]),
            frames.PointSet(frames.FramePoint2Q, _PAIR_MS.reshape(4, *ones, 2), pair[..., 0],
                            pair[..., 1]))


@_criterion(1, 'frame completeness & tomogram normalization', budget_seconds=1.0)
def criterion_completeness(ctx: SelftestContext) -> tuple[bool, dict]:
    """1: frame completeness and tomogram normalization."""
    rng = ctx.rng(1)
    # at each rotation the dequantizers U sum to I over the projections; a
    # point's functional v (x) conj(v) is vec(U^T), so the functionals sum to vec(I)
    rotations = rng.uniform(0, (2 * pi, pi), (100, 2, 2))  # per draw: n, then n2
    worst_complete = max(
        np.abs(points.functionals.reshape(4, 100, 16).sum(axis=0) - np.eye(4).ravel()).max()
        for points in _projection_sets(rotations[:, 0], rotations))
    rotations = rng.uniform(0, (2 * pi, pi), (20, 5, 3, 2))  # per state and draw: nq, na, nb
    sets = _projection_sets(rotations[:, :, 0], rotations[:, :, 1:])
    worst_norm = 0.0
    for k, rho in enumerate(ctx.states(100, 20)):
        for points in sets:
            total = frames.tomograms(rho, points)[:, k].sum(axis=0)
            worst_norm = max(worst_norm, np.abs(total - 1.0).max())
    passed = worst_complete <= 1e-12 and worst_norm <= 1e-12
    return passed, {"max_completeness_defect": float(worst_complete),
                    "max_normalization_defect": float(worst_norm)}


@_criterion(2, 'two-qubit reconstruction', budget_seconds=10.0)
def criterion_reconstruction_two_qubit(ctx: SelftestContext) -> tuple[bool, dict]:
    """2: two-qubit reconstruction round trip on 100 random states."""
    worst = 0.0
    for rho in ctx.states(200, 100):
        worst = max(worst, frames.roundtrip_residual(rho, BASIS_TWO_QUBIT, ctx.grid_pair))
    return worst <= 1e-8, {"max_frobenius_residual": float(worst), "n_states": 100}


@_criterion(3, 'qudit reconstruction (selected authority)', budget_seconds=10.0)
def criterion_reconstruction_qudit(ctx: SelftestContext) -> tuple[bool, dict]:
    """3: qudit reconstruction through the multipole dual, plus the report
    on the explicit candidate."""
    worst = 0.0
    for rho in ctx.states(300, 100):
        worst = max(worst, frames.roundtrip_residual(rho, BASIS_QUDIT, ctx.grid_single))
    report = frames.qudit_quantizer_authority(ctx.grid_single.n_azimuth, ctx.grid_single.n_polar)
    details = {"max_frobenius_residual": float(worst), "selected": report.selected,
               "explicit_best_residual": min(report.explicit_residuals.values())}
    passed = worst <= 1e-8
    if report.selected == "dual_frame":
        # the fallback path must document which explicit entries fail
        enumerated = (any(report.hermiticity_failures.values())
                      and len(report.entry_deviations_vs_dual) > 0)
        details["failing_entries_enumerated"] = enumerated
        passed = passed and enumerated
    return passed, details


@_criterion(4, 'Werner qudit tomogram closed forms')
def criterion_werner_qudit_closed_forms(ctx: SelftestContext) -> tuple[bool, dict]:
    """4: Werner qudit tomogram vs closed forms, plus exact beta=0 values."""
    rotations = ctx.rng(4).uniform(0, (2 * pi, pi), (4, 20, 2))  # 20 (alpha, beta) per p
    points = frames.PointSet(frames.FramePointQudit, _QUDIT_MS[:, None, None],
                             rotations[..., 0], rotations[..., 1])
    origin = frames.PointSet(frames.FramePointQudit, _QUDIT_MS, 0.7, 0.0)
    worst = worst_origin = 0.0
    for k, p in enumerate((-1.0 / 3.0, 0.0, 0.5, 1.0)):
        rho = werner(p)
        closed = [[frames.werner_qudit_tomogram_closed(m, p, alpha, beta)
                   for alpha, beta in rotations[k].tolist()] for m in frames.QUDIT_PROJECTIONS]
        worst = max(worst, np.abs(frames.tomograms(rho, points)[:, k] - closed).max())
        expected = np.where(abs(_QUDIT_MS) == 1.5, (1.0 + p) / 4.0, (1.0 - p) / 4.0)
        worst_origin = max(worst_origin, np.abs(frames.tomograms(rho, origin) - expected).max())
    passed = worst <= 1e-10 and worst_origin <= 1e-12
    return passed, {"max_closed_form_dev": float(worst), "max_beta0_dev": float(worst_origin)}


@_criterion(5, 'kernel intertwining (both directions)', budget_seconds=30.0)
def criterion_kernel_intertwining(ctx: SelftestContext) -> tuple[bool, dict]:
    """5: kernel-mapped tomograms match direct tomograms, both directions,
    for every state at every target."""
    rng = ctx.rng(5)
    states = [*ctx.states(500, 50), *(werner(p).mat for p in (-1.0 / 3.0, 0.0, 1.0 / 3.0, 1.0))]
    # per state: a two-qubit target (m1, m2, n1, n2), then a qudit target (m, n)
    draws = np.array([(rng.integers(2), rng.integers(2), *rng.uniform(0, (2 * pi, pi, 2 * pi, pi)),
                       rng.integers(4), *rng.uniform(0, (2 * pi, pi))) for _ in states])
    qubit_ms = np.array(frames.TWO_QUBIT_PROJECTIONS)
    targets = frames.PointSet(frames.FramePoint2Q, qubit_ms[draws[:, :2].astype(int)],
                              draws[:, [2, 4]], draws[:, [3, 5]])
    qtargets = frames.PointSet(frames.FramePointQudit, _QUDIT_MS[draws[:, 6].astype(int)],
                               draws[:, 7], draws[:, 8])
    worst_q2p = worst_p2q = 0.0
    for rho in states:
        mapped = kernel.map_state_qudit_to_two_qubit(rho, ctx.grid_single, targets)
        worst_q2p = max(worst_q2p, np.abs(mapped - frames.tomograms(rho, targets)).max())
        mapped = kernel.map_state_two_qubit_to_qudit(rho, ctx.grid_pair, qtargets)
        worst_p2q = max(worst_p2q, np.abs(mapped - frames.tomograms(rho, qtargets)).max())
    passed = worst_q2p <= 1e-8 and worst_p2q <= 1e-8
    return passed, {"max_residual_qudit_to_pair": float(worst_q2p),
                    "max_residual_pair_to_qudit": float(worst_p2q),
                    "n_states": len(states)}


@_criterion(6, 'closed-form kernel cross-check')
def criterion_closed_kernel(ctx: SelftestContext) -> tuple[bool, dict]:
    """6: closed-form kernel agrees, or the discrepancy report is emitted."""
    report = kernel.closed_kernel_report(n_points=100, seed=ctx.seed + 600)
    stats = report.reading_stats[report.best_reading]
    report_complete = (
        bool(report.term_max_abs)
        and len(report.notes) > 0
        and all("max_abs_deviation_measure_normalized" in s
                for s in report.reading_stats.values())
    )
    passed = report.agrees or report_complete
    return passed, {"agrees": report.agrees,
                    "best_reading": report.best_reading,
                    "max_dev_measure_normalized": stats["max_abs_deviation_measure_normalized"],
                    "discrepancy_report_emitted": report_complete}


@_criterion(7, 'correlation equivalence (4 forms)', budget_seconds=30.0)
def criterion_correlation_equivalence(ctx: SelftestContext) -> tuple[bool, dict]:
    """7: all four correlation-function forms agree on random inputs."""
    rng = ctx.rng(7)
    worst = 0.0
    for rho in ctx.states(700, 50):
        k1 = _random_direction(rng)
        k2 = _random_direction(rng)
        forms = steering.correlation_forms(rho, k1, k2, ctx.grid_pair, ctx.grid_single)
        worst = max(worst, steering._form_spread(forms))
    return worst <= 1e-8, {"max_pairwise_deviation": float(worst), "n_triples": 50}


@_criterion(8, 'Werner correlations (E(z,z) = p, tensor diag(p,-p,p))')
def criterion_werner_correlations(ctx: SelftestContext) -> tuple[bool, dict]:
    """8: Werner E(z,z) = p and correlation tensor diag(p, -p, p)."""
    worst_zz = 0.0
    worst_tensor = 0.0
    for p in (-1.0 / 3.0, -0.1, 0.0, 0.2, 0.4, 2.0 / 3.0, 1.0):
        rho = werner(p)
        worst_zz = max(worst_zz, abs(
            steering.correlation_direct(rho, steering.Z_AXIS, steering.Z_AXIS) - p))
        t = steering.correlation_tensor(rho)
        worst_tensor = max(worst_tensor, np.abs(t - np.diag([p, -p, p])).max())
    passed = worst_zz <= 1e-12 and worst_tensor <= 1e-12
    return passed, {"max_zz_dev": float(worst_zz), "max_tensor_dev": float(worst_tensor)}


def _random_direction(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


@_criterion(9, 'Bell bounds (CHSH)')
def criterion_bell_bounds(ctx: SelftestContext) -> tuple[bool, dict]:
    """9: CHSH reaches 2 sqrt(2) |p| for Werner states and stays classical
    for product states."""
    worst_werner = 0.0
    for p in (0.2, 0.5, 1.0 / sqrt(2.0), 1.0):
        result = steering.chsh_max(werner(p).mat)
        worst_werner = max(worst_werner, abs(result.value - 2.0 * sqrt(2.0) * abs(p)))
    worst_product = 0.0
    for a, b in zip(ctx.states(900, 20, dim=2), ctx.states(950, 20, dim=2)):
        result = steering.chsh_max(_kron(a, b))
        worst_product = max(worst_product, result.value)
    w1 = steering.chsh_max(werner(1.0).mat)
    passed = (
        worst_werner <= 1e-3
        and worst_product <= 2.0 + 1e-6
        and w1.value > 2.0
        and abs(w1.value - 2.0 * sqrt(2.0)) <= 1e-3
    )
    return passed, {"max_werner_dev": float(worst_werner),
                    "max_product_chsh": float(worst_product),
                    "werner1_chsh": float(w1.value)}


@_criterion(10, 'steering report (SVD max, grid confirmation, notes)')
def criterion_steering_report(ctx: SelftestContext) -> tuple[bool, dict]:
    """10: steering report numbers and the documented inequality notes."""
    worst_lhs = 0.0
    worst_grid = 0.0
    report_ok = True
    for p in (-1.0 / 3.0, 0.25, 0.4, 0.75, 1.0):
        report = steering.werner_report(p, ctx.grid_pair, ctx.grid_single, n_spot_points=2)
        worst_lhs = max(worst_lhs, abs(report.steering.lhs - abs(p)))
        grid_value = steering.max_correlation_grid(report.steering.tensor)
        worst_grid = max(worst_grid, abs(grid_value - abs(p)))
        d = report.as_dict()
        report_ok = report_ok and all(
            key in d for key in ("rhs_all_entries", "rhs_diagonal", "inequality_holds"))
        report_ok = report_ok and any("1/3 < p < 1/2" in note for note in d["notes"])
    passed = worst_lhs <= 1e-10 and worst_grid <= 1e-3 and report_ok
    return passed, {"max_lhs_dev": float(worst_lhs), "max_grid_dev": float(worst_grid),
                    "report_complete": report_ok}


def _rotated_row(j: float, m: float, angles: EulerAngles) -> np.ndarray:
    """Row m of :func:`~spintomo.su2.wigner_D` at the angles, the third one
    included, in its products: exp(i m third) d^j[m, :](polar) exp(i m' azimuth),
    a qubit's azimuth phi entering as pi - phi, as in its frame."""
    azimuth = pi - angles.azimuth if j == 0.5 else angles.azimuth
    d = np.array(_wigner_d_row(round(2 * j), round(j - m), angles.polar))
    return np.exp(1j * m * angles.third) * d * np.exp(1j * frames._projections(j) * azimuth)


@_criterion(11, 'no-signaling & third-angle invariance')
def criterion_no_signaling(ctx: SelftestContext) -> tuple[bool, dict]:
    """11: marginal independence and third-Euler-angle invariance: a read at
    a third angle equals the read without it and Tr(rho r^dag r), r its row of D^j."""
    rng = ctx.rng(11)
    worst_marginal = 0.0
    for rho in ctx.states(1100, 5):
        m1 = frames.TWO_QUBIT_PROJECTIONS[rng.integers(2)]
        n1 = rng.uniform(0, (2 * pi, pi))
        n2 = rng.uniform(0, (2 * pi, pi), (20, 2))
        rotations = np.stack([np.broadcast_to(n1, n2.shape), n2], axis=1)  # (20, qubit, angle)
        pairs = [[(m1, m2)] for m2 in frames.TWO_QUBIT_PROJECTIONS]
        points = frames.PointSet(frames.FramePoint2Q, pairs, rotations[..., 0], rotations[..., 1])
        marginal = frames.tomograms(rho, points).sum(axis=0)  # over m2, at each n2
        worst_marginal = max(worst_marginal, np.abs(marginal - marginal[0]).max())
    worst_third = 0.0
    for rho in ctx.states(1150, 5):
        alpha, beta = rng.uniform(0, 2 * pi), rng.uniform(0, pi)
        m = frames.QUDIT_PROJECTIONS[rng.integers(4)]
        base_q = frames.tomogram(rho, frames.FramePointQudit(m, EulerAngles(alpha, beta, 0.0)))
        m1 = frames.TWO_QUBIT_PROJECTIONS[rng.integers(2)]
        m2 = frames.TWO_QUBIT_PROJECTIONS[rng.integers(2)]
        a1, a2 = (EulerAngles(rng.uniform(0, 2 * pi), rng.uniform(0, pi)) for _ in range(2))
        base_2q = frames.tomogram(rho, frames.FramePoint2Q(m1, m2, a1, a2))
        for _ in range(10):
            gamma = rng.uniform(0, 2 * pi)
            n = EulerAngles(alpha, beta, gamma)
            r = _rotated_row(1.5, m, n)
            v = frames.tomogram(rho, frames.FramePointQudit(m, n))
            worst_third = max(worst_third, abs(v - base_q), abs(v - (r @ rho @ r.conj()).real))
            n1 = EulerAngles(a1.azimuth, a1.polar, gamma)
            n2 = EulerAngles(a2.azimuth, a2.polar, -gamma)
            r = np.outer(_rotated_row(0.5, m1, n1), _rotated_row(0.5, m2, n2)).ravel()
            v = frames.tomogram(rho, frames.FramePoint2Q(m1, m2, n1, n2))
            worst_third = max(worst_third, abs(v - base_2q), abs(v - (r @ rho @ r.conj()).real))
    passed = worst_marginal <= 1e-12 and worst_third <= 1e-12
    return passed, {"max_marginal_variation": float(worst_marginal),
                    "max_third_angle_variation": float(worst_third)}


@dataclass
class SelftestReport:
    results: list
    wall_clock_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def run_selftest(n_azimuth: int | None = None, n_polar: int | None = None, seed: int = 2026,
                 coarse: bool = False) -> SelftestReport:
    """Run every criterion and append the wall-clock criterion.

    Node counts not given are the 8x8 minimum. ``coarse=True`` runs every
    criterion on a 2x2 grid, made below the minimum node counts, to show
    which criteria depend on quadrature exactness: 2, 3, 5 and 7 fail
    there, each with its number. It takes no node counts (ValueError).
    """
    if coarse and (n_azimuth, n_polar) != (None, None):
        raise ValueError(f"coarse runs on its own 2x2 grid and takes no node counts, "
                         f"got ({n_azimuth}, {n_polar})")
    nodes = (2, 2) if coarse else (MIN_AZIMUTH_NODES if n_azimuth is None else n_azimuth,
                                   MIN_POLAR_NODES if n_polar is None else n_polar)
    ctx = SelftestContext(
        grid_single=frames.make_grid(*nodes, spheres=1, enforce_minimum=not coarse),
        grid_pair=frames.make_grid(*nodes, spheres=2, enforce_minimum=not coarse),
        seed=seed,
    )
    t0 = time.perf_counter()
    results = [_timed(fn, ctx) for fn in CRITERIA]
    wall = time.perf_counter() - t0
    budget_ok = wall < WALL_CLOCK_BUDGET_SECONDS
    budget_ok = budget_ok and all(
        r.budget_seconds is None or r.seconds < r.budget_seconds for r in results
    )
    results.append(CriterionResult(
        12, "selftest wall clock within budget", budget_ok,
        {"within_budget": budget_ok}, wall, budget_seconds=WALL_CLOCK_BUDGET_SECONDS,
    ))
    return SelftestReport(results=results, wall_clock_seconds=wall)
