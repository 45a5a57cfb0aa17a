"""Inputs, ops and output checks of the three benchmark workloads.

Every input is generated from the workload seed before timing starts; an
op only hands the prepared inputs to the program. Each check returns a
list of problems, empty when the op's outputs are correct. Tolerances are
the selftest's (1e-8) and are never loosened.

The in-process ops look every program function up on its module at call
time (``frames.tomogram`` rather than an imported name), so the traced
run's wrappers are seen by the ops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import pi

import numpy as np

TOL = 1e-8
STATE_POOL = 256

# --------------------------------------------------------------------------
# cli_session: one fresh `python -m spintomo.cli` process per op

CLI_COMMANDS = (
    "validate", "validate_invalid", "tomogram_point", "tomogram_csv",
    "reconstruct_two_qubit", "reconstruct_qudit", "map_qudit_to_2q",
    "correlation", "steering", "steering_32", "selftest",
)
CLI_POOL_CYCLES = 64
QUDIT_MS = (1.5, 0.5, -0.5, -1.5)
QUBIT_MS = (0.5, -0.5)


@dataclass(frozen=True)
class CliOp:
    command: str
    argv: tuple
    expected_code: int


def _num(x) -> str:
    return repr(float(x))


def _unit_vector(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def cli_cycles(seed: int) -> list[list[CliOp]]:
    """Round-robin cycles over the README commands with seeded arguments.

    Options are passed as ``--flag=value`` so that negative numbers and
    comma-separated directions are never read as flags.
    """
    rng = np.random.default_rng(seed)
    cycles = []
    for _ in range(CLI_POOL_CYCLES):
        def werner():
            return f"--state=werner:{_num(rng.uniform(-0.3, 1.0))}"
        k1, k2 = _unit_vector(rng), _unit_vector(rng)
        cycle = [
            ("validate", ("validate", werner()), 0),
            ("validate_invalid",
             ("validate", f"--state=werner:{_num(rng.uniform(1.1, 2.0))}"), 1),
            ("tomogram_point",
             ("tomogram", werner(), "--rep=qudit", f"--m={rng.choice(QUDIT_MS)}",
              f"--alpha={_num(rng.uniform(0, 2 * pi))}",
              f"--beta={_num(rng.uniform(0, pi))}"), 0),
            ("tomogram_csv",
             ("tomogram", werner(), "--rep=qudit", "--full-grid", "--format=csv"), 0),
            ("reconstruct_two_qubit", ("reconstruct", werner(), "--rep=two_qubit"), 0),
            ("reconstruct_qudit", ("reconstruct", werner(), "--rep=qudit"), 0),
            ("map_qudit_to_2q",
             ("map", werner(), "--direction=qudit_to_2q",
              f"--m1={rng.choice(QUBIT_MS)}", f"--m2={rng.choice(QUBIT_MS)}",
              f"--theta1={_num(rng.uniform(0, pi))}", f"--phi1={_num(rng.uniform(0, 2 * pi))}",
              f"--theta2={_num(rng.uniform(0, pi))}", f"--phi2={_num(rng.uniform(0, 2 * pi))}"),
             0),
            ("correlation",
             ("correlation", werner(), "--k1=" + ",".join(map(_num, k1)),
              "--k2=" + ",".join(map(_num, k2))), 0),
            ("steering", ("steering", werner()), 0),
            ("steering_32",
             ("steering", werner(), "--grid-azimuth=32", "--grid-polar=32"), 0),
            ("selftest", ("selftest",), 0),
        ]
        cycles.append([CliOp(name, argv, code) for name, argv, code in cycle])
    return cycles


# rows of the default 8x8 qudit table: 4 projections x 64 nodes
CLI_CSV_ROWS = 4 * 8 * 8
SELFTEST_CRITERIA = 12


def check_cli(op: CliOp, code: int, stdout: str) -> list[str]:
    """Exit code, parseable output and the numbers the command reports."""
    if code != op.expected_code:
        return [f"{op.command}: exit code {code}, expected {op.expected_code}"]
    if op.command == "tomogram_csv":
        return check_csv_text(stdout, CLI_CSV_ROWS, "representation,m,alpha,beta,value")
    if op.command == "selftest":
        lines = stdout.splitlines()
        passed = sum(1 for line in lines if line.startswith("PASS"))
        if passed != SELFTEST_CRITERIA or not lines or lines[-1] != "selftest: PASS":
            return [f"selftest: {passed} of {SELFTEST_CRITERIA} criteria passed"]
        return []
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{op.command}: output is not JSON ({exc})"]
    if op.command == "validate":
        return [] if out["passed"] else ["validate: a Werner state failed validation"]
    if op.command == "validate_invalid":
        return [] if not out["passed"] and not out["psd_ok"] else [
            "validate_invalid: the PSD check did not fail"]
    if op.command == "tomogram_point":
        return [] if -TOL <= out["value"] <= 1 + TOL else [
            f"tomogram_point: value {out['value']} outside [0, 1]"]
    if op.command in ("reconstruct_two_qubit", "reconstruct_qudit", "map_qudit_to_2q"):
        return [] if out["residual"] <= TOL else [
            f"{op.command}: residual {out['residual']:.3e}"]
    if op.command == "correlation":
        return [] if out["max_pairwise_deviation"] <= TOL else [
            f"correlation: form spread {out['max_pairwise_deviation']:.3e}"]
    # steering, steering_32
    return _check_forms(op.command, out["correlation_forms"])


def _check_forms(label: str, forms: dict) -> list[str]:
    values = list(forms.values())
    spread = max(values) - min(values)
    if len(values) != 4 or spread > TOL:
        return [f"{label}: {len(values)} correlation forms, spread {spread:.3e}"]
    return []


def check_csv_text(text: str, rows: int, header: str) -> list[str]:
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != header:
        problems.append(f"csv header {lines[0] if lines else None!r}, expected {header!r}")
    if len(lines) != rows + 1:
        problems.append(f"csv has {len(lines)} lines, expected {rows + 1}")
    return problems


# --------------------------------------------------------------------------
# in-process workloads (tables warm)


def _random_angles(rng):
    from spintomo.su2 import EulerAngles

    return EulerAngles(rng.uniform(0, 2 * pi), rng.uniform(0, pi))


def _state_seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


@dataclass(frozen=True)
class LibraryItem:
    mat: np.ndarray
    pair_targets: tuple
    qudit_targets: tuple
    k1: np.ndarray
    k2: np.ndarray


class LibraryBatch:
    """One op analyses one random state at 16x16."""

    NODES = 16

    def __init__(self, seed: int):
        import spintomo.frames as frames
        import spintomo.matcore as matcore

        rng = np.random.default_rng(seed)
        self.pair = frames.make_grid(self.NODES, self.NODES, spheres=2)
        self.single = frames.make_grid(self.NODES, self.NODES, spheres=1)
        self.items = []
        for state_seed in _state_seeds(rng, STATE_POOL):
            pair_targets = tuple(
                frames.FramePoint2Q(rng.choice(QUBIT_MS), rng.choice(QUBIT_MS),
                                    _random_angles(rng), _random_angles(rng))
                for _ in range(4))
            qudit_targets = tuple(
                frames.FramePointQudit(rng.choice(QUDIT_MS), _random_angles(rng))
                for _ in range(4))
            self.items.append(LibraryItem(
                mat=matcore.random_density(4, state_seed).mat,
                pair_targets=pair_targets, qudit_targets=qudit_targets,
                k1=_unit_vector(rng), k2=_unit_vector(rng)))

    def op(self, item: LibraryItem, tmp):
        from spintomo import frames, kernel, matcore, steering

        state = matcore.DensityMatrix(item.mat)
        recs = [frames.reconstruct_state(state, matcore.BASIS_TWO_QUBIT, self.pair),
                frames.reconstruct_state(state, matcore.BASIS_QUDIT, self.single)]
        mapped = [(kernel.map_state_qudit_to_two_qubit(state, self.single, t),
                   frames.tomogram(state, t)) for t in item.pair_targets]
        mapped += [(kernel.map_state_two_qubit_to_qudit(state, self.pair, t),
                    frames.tomogram(state, t)) for t in item.qudit_targets]
        report = steering.steering_check(state, item.k1, item.k2, self.pair, self.single)
        return recs, mapped, report

    def check(self, item: LibraryItem, outputs, tmp) -> list[str]:
        recs, mapped, report = outputs
        problems = []
        for rec in recs:
            residual = float(np.linalg.norm(rec - item.mat))
            if residual > TOL:
                problems.append(f"reconstruction residual {residual:.3e}")
        problems += _check_mapped(mapped)
        return problems + _check_forms("steering_check", report.correlation_forms)


def _check_mapped(mapped) -> list[str]:
    worst = max(abs(value - direct) for value, direct in mapped)
    return [] if worst <= TOL else [f"mapped minus direct tomogram {worst:.3e}"]


class GridExport:
    """One op exports one random state: two CSV tables and a mapped tomogram."""

    PAIR_NODES = 8
    QUDIT_NODES = 16
    PAIR_HEADER = "representation,m1,m2,theta1,phi1,theta2,phi2,value"
    QUDIT_HEADER = "representation,m,alpha,beta,value"

    def __init__(self, seed: int):
        import spintomo.frames as frames
        import spintomo.matcore as matcore
        import spintomo.su2 as su2

        rng = np.random.default_rng(seed)
        self.pair = frames.make_grid(self.PAIR_NODES, self.PAIR_NODES, spheres=2)
        self.single = frames.make_grid(self.QUDIT_NODES, self.QUDIT_NODES, spheres=1)
        # every (projection, node) point of the 8x8 qudit grid
        small = frames.make_grid(self.PAIR_NODES, self.PAIR_NODES, spheres=1)
        self.targets = tuple(
            frames.FramePointQudit(m, su2.EulerAngles(a, b))
            for m in QUDIT_MS for a, b in zip(small.sphere_alpha(), small.sphere_beta()))
        self.items = [matcore.random_density(4, s) for s in _state_seeds(rng, STATE_POOL)]
        self.pair_rows = 4 * small.n_sphere_nodes ** 2
        self.qudit_rows = 4 * self.single.n_sphere_nodes

    def op(self, state, tmp):
        from spintomo import frames, kernel, matcore

        for picture, grid, name in ((matcore.BASIS_TWO_QUBIT, self.pair, "pair.csv"),
                                    (matcore.BASIS_QUDIT, self.single, "qudit.csv")):
            table = frames.tomogram_table(state, picture, grid)
            with open(tmp / name, "w", encoding="utf-8") as fh:
                table.to_csv(fh)
        return [(kernel.map_state_two_qubit_to_qudit(state, self.pair, t),
                 frames.tomogram(state, t)) for t in self.targets]

    def check(self, state, mapped, tmp) -> list[str]:
        problems = _check_mapped(mapped)
        for name, rows, header in (("pair.csv", self.pair_rows, self.PAIR_HEADER),
                                   ("qudit.csv", self.qudit_rows, self.QUDIT_HEADER)):
            problems += check_csv_text((tmp / name).read_text(encoding="utf-8"), rows, header)
        return problems


IN_PROCESS = {"library_batch": LibraryBatch, "grid_export": GridExport}
