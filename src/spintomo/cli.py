"""Command-line front end.

    spintomo <command> [options]

Commands: validate, tomogram, reconstruct, map, correlation, steering,
selftest. States come either from a matrix JSON file or from the builtin
grammar ``werner:<p>``. Exit codes: 0 success, 1 check failure, 2
usage/parse error or a numerical check that refuses the input (one
``error:`` line on stderr), 141 (128 + SIGPIPE, stderr empty) when the
reader closes stdout early, as ``| head`` does.

Each handler imports only the layers it calls: ``validate`` needs matcore
alone, ``tomogram`` and ``reconstruct`` add frames, ``map`` kernel, ``correlation``
and ``steering`` steering (not kernel), and ``selftest`` selftest (each with
the layers it imports); only ``reconstruct --rep qudit`` and ``selftest`` load
paper_forms. The parser is built whole, every command with its flags, in
3-5 ms cold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isfinite

import numpy as np

from .matcore import (
    BASIS_QUDIT,
    BASIS_TWO_QUBIT,
    HERMITICITY_TOL,
    MIN_AZIMUTH_NODES,
    MIN_POLAR_NODES,
    DensityMatrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    validate_density,
    werner,
    werner_matrix,
)

REP_TO_BASIS = {"two_qubit": BASIS_TWO_QUBIT, "qudit": BASIS_QUDIT}

#: the flags that fix a frame point in each picture, also its keys in the
#: point-mode tomogram JSON
_POINT_FLAGS = {"qudit": ("m", "alpha", "beta"),
                "two_qubit": ("m1", "m2", "theta1", "phi1", "theta2", "phi2")}

#: (source picture, target picture) of each ``map --direction``
_MAP_PICTURES = {"qudit_to_2q": ("qudit", "two_qubit"), "2q_to_qudit": ("two_qubit", "qudit")}

#: Characters of JSON text :func:`_emit` writes at a time: one large write
#: can end short at a closed pipe without an error; the next one raises.
_JSON_SLICE = 4096

_AXIS_ALIASES = {
    "x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0),
    "-x": (-1.0, 0.0, 0.0), "-y": (0.0, -1.0, 0.0), "-z": (0.0, 0.0, -1.0),
}


class CliError(Exception):
    """Usage or parse problem; maps to exit code 2."""


def _parse_state(spec: str, enforce_domain: bool = True):
    """Return (state, werner parameter or None). The state is a DensityMatrix
    keeping a state file's basis tag; ``enforce_domain=False`` gives the bare
    matrix, unchecked."""
    if spec is None:
        raise CliError("--state is required")
    if spec.startswith("werner:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"cannot parse werner parameter in {spec!r}") from exc
        if not isfinite(p):
            raise CliError("werner parameter must be finite")
        return (werner(p) if enforce_domain else werner_matrix(p)), p
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read state file {spec!r}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CliError(f"state file {spec!r} is not valid JSON: {exc}") from exc
    try:
        mat, basis = matrix_from_json_dict(payload)
    except ValueError as exc:
        raise CliError(f"bad matrix JSON in {spec!r}: {exc}") from exc
    if not enforce_domain:
        return mat, None
    try:
        return DensityMatrix(mat, basis), None
    except ValueError as exc:
        raise CliError(f"input is not a valid density matrix: {exc}") from exc


def _parse_direction(spec: str) -> np.ndarray:
    if spec in _AXIS_ALIASES:
        return np.array(_AXIS_ALIASES[spec])
    parts = spec.split(",")
    if len(parts) != 3:
        raise CliError(f"direction {spec!r} must be x|y|z|-x|-y|-z "
                       "or three comma-separated numbers")
    try:
        v = np.array([float(x) for x in parts])
    except ValueError as exc:
        raise CliError(f"cannot parse direction {spec!r}") from exc
    from .su2 import as_direction
    return as_direction(v)


def _grid(args, spheres):
    from .frames import make_grid
    return make_grid(args.grid_azimuth, args.grid_polar, spheres=spheres)


def _picture_grid(args, rep):
    from .frames import _SPHERES
    # as many spheres as the picture's frame covers
    return _grid(args, _SPHERES[REP_TO_BASIS[rep]])


def _emit(args, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(args, lambda stream: stream.writelines(
        text[i:i + _JSON_SLICE] for i in range(0, len(text), _JSON_SLICE)))


def _write(args, write) -> None:
    # write(stream) goes to the --out file, or to stdout without one
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise CliError("missing required option(s): " + ", ".join("--" + n for n in missing))


def _angles(azimuth, polar, third):
    from .su2 import EulerAngles
    return EulerAngles(azimuth, polar, third if third is not None else 0.0)


# --------------------------------------------------------------------------
# command handlers

def cmd_validate(args) -> int:
    # builtin werner states skip the domain check here on purpose: the whole
    # point of `validate werner:1.5` is to watch the PSD check fail
    mat, _ = _parse_state(args.state, enforce_domain=False)
    report = validate_density(mat, tol=args.tol)
    _emit(args, report.as_dict())
    return 0 if report.passed else 1


def _tomogram_point(args, rep):
    from .frames import FramePoint2Q, FramePointQudit
    _require(args, _POINT_FLAGS[rep])
    if rep == "qudit":
        return FramePointQudit(args.m, _angles(args.alpha, args.beta, args.gamma))
    return FramePoint2Q(
        args.m1, args.m2,
        _angles(args.phi1, args.theta1, args.psi1),
        _angles(args.phi2, args.theta2, args.psi2),
    )


def cmd_tomogram(args) -> int:
    from . import frames
    if args.format == "csv" and not args.full_grid:
        raise CliError("--format csv needs --full-grid")
    state, _ = _parse_state(args.state)
    rep = args.rep
    if args.full_grid:
        table = frames.tomogram_table(state, REP_TO_BASIS[rep], _picture_grid(args, rep))
        if args.format == "csv":
            _write(args, table.to_csv)
        else:
            _emit(args, {
                "representation": table.representation,
                "columns": list(table.columns),
                "rows": table.rows.tolist(),
            })
        return 0
    _picture_grid(args, rep)  # a point ignores the grid, but its flags must be valid
    value = frames.tomogram(state, _tomogram_point(args, rep))
    _emit(args, {"representation": REP_TO_BASIS[rep], "value": value,
                 **{name: getattr(args, name) for name in _POINT_FLAGS[rep]}})
    return 0


def cmd_reconstruct(args) -> int:
    from . import frames
    state, _ = _parse_state(args.state)
    rep = args.rep
    grid = _picture_grid(args, rep)
    rec = frames.reconstruct_state(state, REP_TO_BASIS[rep], grid)
    residual = float(np.linalg.norm(rec - state.mat))
    payload = {
        "matrix": matrix_to_json_dict(rec, basis=REP_TO_BASIS[rep]),
        "residual": residual,
        "tolerance": args.tol,
    }
    if rep == "qudit":
        report = frames.qudit_quantizer_authority(grid.n_azimuth, grid.n_polar)
        payload["quantizer_report"] = report.as_dict()
    _emit(args, payload)
    return 0 if residual <= args.tol else 1


def cmd_map(args) -> int:
    from . import frames, kernel
    state, _ = _parse_state(args.state)
    source, target_rep = _MAP_PICTURES[args.direction]
    grid = _picture_grid(args, source)  # the kernel integrates over the source frame
    target = _tomogram_point(args, target_rep)
    if source == "qudit":
        mapped = kernel.map_state_qudit_to_two_qubit(state, grid, target)
    else:
        mapped = kernel.map_state_two_qubit_to_qudit(state, grid, target)
    direct = frames.tomogram(state.mat, target)  # the bare matrix reads in either picture
    residual = abs(mapped - direct)
    _emit(args, {"direction": args.direction, "value": mapped,
                 "direct": direct, "residual": residual, "tolerance": args.tol})
    return 0 if residual <= args.tol else 1


def cmd_correlation(args) -> int:
    from . import steering
    state, _ = _parse_state(args.state)
    k1, k2 = _parse_direction(args.k1), _parse_direction(args.k2)
    forms = steering.correlation_forms(state, k1, k2, _grid(args, 2), _grid(args, 1))
    _emit(args, {"k1": [float(x) for x in k1], "k2": [float(x) for x in k2],
                 "forms": forms, "max_pairwise_deviation": steering._form_spread(forms)})
    return 0


def cmd_steering(args) -> int:
    from . import steering
    state, p = _parse_state(args.state)
    k1, k2 = _parse_direction(args.k1), _parse_direction(args.k2)
    report = steering.steering_check(state, k1, k2, _grid(args, 2), _grid(args, 1), p=p)
    _emit(args, report.as_dict())
    return 0


def cmd_selftest(args) -> int:
    from . import selftest
    report = selftest.run_selftest(
        n_azimuth=args.grid_azimuth, n_polar=args.grid_polar,
        seed=args.seed, coarse=args.coarse,
    )
    for result in report.results:
        sys.stdout.write(result.line() + "\n")
        sys.stderr.write(f"  criterion {result.index} took {result.seconds:.2f} s\n")
    overall = "PASS" if report.all_passed else "FAIL"
    sys.stdout.write(f"selftest: {overall}\n")
    sys.stderr.write(f"selftest wall clock {report.wall_clock_seconds:.2f} s\n")
    if args.out:
        _emit(args, report.as_dict())
    return 0 if report.all_passed else 1


# --------------------------------------------------------------------------
# parser

def _tolerance(text: str) -> float:
    """Type of ``--tol``: a finite number >= 0 (argparse exits 2 otherwise)."""
    value = float(text)
    if not (isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """Type of ``--seed``: an integer >= 0 (argparse exits 2 otherwise)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return value


def _add_shared_flags(parser: argparse.ArgumentParser, state: bool = True,
                      grid: tuple | None = (MIN_AZIMUTH_NODES, MIN_POLAR_NODES),
                      tol: bool = False) -> None:
    """The options several commands read, in the order their help lists them:
    --state, the node-count flags with these defaults, --tol, --out."""
    if state:
        parser.add_argument("--state", help="matrix JSON file or builtin 'werner:<p>'")
    if grid is not None:
        parser.add_argument("--grid-azimuth", type=int, default=grid[0],
                            help="azimuth nodes per sphere (>= 8)")
        parser.add_argument("--grid-polar", type=int, default=grid[1],
                            help="polar Gauss-Legendre nodes per sphere (>= 8)")
    if tol:
        parser.add_argument("--tol", type=_tolerance, default=1e-8,
                            help="tolerance override for pass/fail exit codes (finite, >= 0)")
    parser.add_argument("--out", help="write output to this path instead of stdout")


def _add_direction_flags(parser: argparse.ArgumentParser) -> None:
    # argparse takes a separate value that starts with '-' for a flag
    for flag, side in (("--k1", "first"), ("--k2", "second")):
        parser.add_argument(flag, default="z",
                            help=f"{side} side's direction (default z): x|y|z|-x|-y|-z "
                                 f"or 'a,b,c'; a value starting with '-' needs '=', "
                                 f"as in {flag}=-x")


def _add_point_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=float, help="qudit projection (1.5, 0.5, -0.5, -1.5)")
    parser.add_argument("--alpha", type=float, help="qudit azimuth angle (rad)")
    parser.add_argument("--beta", type=float, help="qudit polar angle (rad)")
    parser.add_argument("--gamma", type=float, help="qudit third angle (rad, no effect)")
    parser.add_argument("--m1", type=float, help="first qubit projection (+-0.5)")
    parser.add_argument("--m2", type=float, help="second qubit projection (+-0.5)")
    parser.add_argument("--theta1", type=float, help="first qubit polar angle (rad)")
    parser.add_argument("--phi1", type=float, help="first qubit azimuth (rad)")
    parser.add_argument("--psi1", type=float, help="first qubit third angle (rad, no effect)")
    parser.add_argument("--theta2", type=float, help="second qubit polar angle (rad)")
    parser.add_argument("--phi2", type=float, help="second qubit azimuth (rad)")
    parser.add_argument("--psi2", type=float, help="second qubit third angle (rad, no effect)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: every command with its help line and its flags."""
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="Spin tomographic representations, kernels and steering analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, **shared):
        # the command's parser with its handler and shared options
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        _add_shared_flags(p, **shared)
        return p

    p = add("validate", "check a state against the density-matrix axioms", cmd_validate, grid=None)
    p.add_argument("--tol", type=_tolerance, default=HERMITICITY_TOL,
                   help="tolerance of the Hermiticity and trace checks (finite, >= 0)")

    p = add("tomogram", "evaluate a tomogram at a point or over the grid", cmd_tomogram)
    p.add_argument("--rep", choices=("two_qubit", "qudit"), required=True)
    p.add_argument("--full-grid", action="store_true",
                   help="emit the full (projection, node) table")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="format of the --full-grid table")
    _add_point_flags(p)

    p = add("reconstruct", "round-trip a state through its tomogram", cmd_reconstruct, tol=True)
    p.add_argument("--rep", choices=("two_qubit", "qudit"), required=True)

    p = add("map", "convert a tomogram between the two pictures", cmd_map, tol=True)
    p.add_argument("--direction", choices=tuple(_MAP_PICTURES), required=True)
    _add_point_flags(p)

    p = add("correlation", "all four correlation-function forms", cmd_correlation)
    _add_direction_flags(p)

    p = add("steering", "steering inequality and CHSH report", cmd_steering)
    _add_direction_flags(p)

    # no defaults: run_selftest tells node counts given from none given (8x8)
    p = add("selftest", "run the full acceptance suite", cmd_selftest,
            state=False, grid=(None, None))
    p.add_argument("--seed", type=_seed, default=2026,
                   help="base seed of the random states (integer >= 0)")
    p.add_argument("--coarse", action="store_true",
                   help="run on a 2x2 grid to show the criteria that need an exact "
                        "quadrature fail (no grid flags)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's exit flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CliError, ValueError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
