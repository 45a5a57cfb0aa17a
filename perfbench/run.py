"""spintomo benchmark: three closed-loop workloads with one client each.

    python3 perfbench/run.py --workload <cli_session|library_batch|grid_export|all>
                             [--seed N] [--seconds S] [--trace 0|1]

The checkout is the directory above this file; the package is imported from
its ``src`` directory, nothing is installed. One run sets up the workload,
issues ops one after another for ``--seconds`` seconds, checks every op's
output and prints, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans recorded from the benchmark's own wrappers,
see ``spans.py``). End-to-end times are scaled to a reference host speed
(see ``host_factors``). The lines before the result give each metric with
its unit and wall-clock value, the error rate and a host-noise record.
``--workload all`` runs the three workloads one after another, each in its
own process.

See README.md in this directory for the workloads, the metric definitions
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_session", "library_batch", "grid_export")

# Fresh processes timed for setup_s; one more runs first and is discarded,
# so that compiling the package's bytecode is not counted.
SETUP_PROBES = 7
# op_tail_ms is the latency with this many samples beyond it, taken in each
# of TAIL_BLOCKS consecutive blocks of a run's ops; the reported value is
# the median over the blocks. library_batch fits about 280 ops into a 30 s
# run, enough for three blocks whose tail is still about p89; a single tail
# rank over the whole run falls among short host bursts that no probe sees,
# and its spread over ten runs of the same code reached 0.30. The other two
# workloads fit 60 to 90 ops into a run and keep one block.
TAIL_BEYOND = 10
TAIL_BLOCKS = {"cli_session": 1, "library_batch": 3, "grid_export": 1}
# cli_session runs whole round-robin cycles, at least this many. Two ~1 s
# commands per cycle of eleven put the op_tail_ms rank (ten samples beyond
# it) among them from six cycles on, and seven keep it at about the same
# place whether a run fits seven or eight cycles into --seconds.
MIN_CLI_CYCLES = 7
OP_TIMEOUT_S = 60
# Host-speed probe timed right before every op and every set-up process;
# see HostProbe and host_factors.
PROBE_STREAM_BYTES = 4 << 20
PROBE_WINDOW = 9
MAX_REPORTED_PROBLEMS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit, span names summed, span field); values are means per traced op
SPAN_METRICS = [
    ("su2.wigner_d_matrix.calls", "count", ("su2.wigner_d_matrix",), "calls"),
    ("su2.wigner_d_matrix.self_ms", "ms", ("su2.wigner_d_matrix",), "self_s"),
    ("matcore.validate_density.calls", "count", ("matcore.validate_density",), "calls"),
    ("matcore.validate_density.self_ms", "ms", ("matcore.validate_density",), "self_s"),
    ("frames.qudit_quantizer_authority.cold_ms", "ms",
     ("frames.qudit_quantizer_authority",), "cold_s"),
    ("frames.explicit_qudit_b_matrix.calls", "count",
     ("frames.explicit_qudit_b_matrix",), "calls"),
    ("frames.tomogram.calls", "count", ("frames.tomogram",), "calls"),
    ("frames.tomogram.self_ms", "ms", ("frames.tomogram",), "self_s"),
    ("frames.reconstruct_state.calls", "count", ("frames.reconstruct_state",), "calls"),
    ("frames.reconstruct_state.self_ms", "ms", ("frames.reconstruct_state",), "self_s"),
    ("frames.frame_pairing.calls", "count",
     ("frames.frame_pairing_two_qubit", "frames.frame_pairing_qudit"), "calls"),
    ("frames.frame_pairing.self_ms", "ms",
     ("frames.frame_pairing_two_qubit", "frames.frame_pairing_qudit"), "self_s"),
    ("frames.tomogram_table.calls", "count", ("frames.tomogram_table",), "calls"),
    ("frames.tomogram_table.self_ms", "ms", ("frames.tomogram_table",), "self_s"),
    ("frames.tomogram_table.rows", "count", ("frames.tomogram_table",), "rows"),
    ("frames.to_csv.self_ms", "ms", ("frames.to_csv",), "self_s"),
    ("frames.to_csv.bytes", "bytes", ("frames.to_csv",), "bytes"),
    ("kernel.map_state_two_qubit_to_qudit.calls", "count",
     ("kernel.map_state_two_qubit_to_qudit",), "calls"),
    ("kernel.map_state_two_qubit_to_qudit.self_ms", "ms",
     ("kernel.map_state_two_qubit_to_qudit",), "self_s"),
    ("kernel.map_state_qudit_to_two_qubit.calls", "count",
     ("kernel.map_state_qudit_to_two_qubit",), "calls"),
    ("kernel.map_state_qudit_to_two_qubit.self_ms", "ms",
     ("kernel.map_state_qudit_to_two_qubit",), "self_s"),
    ("kernel.closed_kernel_report.self_ms", "ms", ("kernel.closed_kernel_report",), "self_s"),
    ("steering.steering_check.calls", "count", ("steering.steering_check",), "calls"),
    ("steering.steering_check.self_ms", "ms", ("steering.steering_check",), "self_s"),
    ("steering.correlation_forms.self_ms", "ms", ("steering.correlation_forms",), "self_s"),
    ("steering.chsh_max.self_ms", "ms", ("steering.chsh_max",), "self_s"),
]

# the same, summed over the traced set-up of the in-process workloads
SETUP_SPAN_METRICS = [
    ("setup.su2.wigner_d_matrix.calls", "count", ("su2.wigner_d_matrix",), "calls"),
    ("setup.su2.wigner_d_matrix.self_ms", "ms", ("su2.wigner_d_matrix",), "self_s"),
    ("setup.frames.explicit_qudit_b_matrix.calls", "count",
     ("frames.explicit_qudit_b_matrix",), "calls"),
    ("setup.frames.qudit_quantizer_authority.cold_ms", "ms",
     ("frames.qudit_quantizer_authority",), "cold_s"),
]


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    import workloads

    units = {"cli.import_ms": "ms"}
    units.update({f"cli.cmd.{c}.wall_ms": "ms" for c in workloads.CLI_COMMANDS})
    units.update({name: unit for name, unit, _, _ in SPAN_METRICS})
    units.update({"frames.table_cache.hits": "count", "frames.table_cache.misses": "count"})
    units.update({f"selftest.criterion_{i:02d}.s": "s"
                  for i in range(1, workloads.SELFTEST_CRITERIA + 1)})
    units["selftest.wall_s"] = "s"
    units.update({name: unit for name, unit, _, _ in SETUP_SPAN_METRICS})
    units["setup.frames.table_cache.misses"] = "count"
    units.update({
        "trace.coverage": "share",
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead_ops_per_s": "1/s",
        "trace.traced_ops": "count",
    })
    return units


# --------------------------------------------------------------------------
# host-noise record


def _cpu_jiffies():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:9]]


@dataclass(frozen=True)
class ProbeRecipe:
    loops: int  # Python additions
    array_rounds: int  # products and a transposed copy of small complex arrays
    stream_passes: int  # in-place passes over a buffer of PROBE_STREAM_BYTES
    reference_s: float  # its time on the reference host outside slow phases


# The reference host is a 2-vCPU Xeon virtual machine with 2 MiB of L2
# cache per core and an L3 cache shared with other tenants. Each workload's
# probe does the kinds of work its ops do. library_batch streams the tables
# of its 16x16 two-sphere grid through L3, so its probe streams a buffer
# twice the size of L2: over four runs, the correlation of op latency with
# the probe time (running medians of seven ops) was 0.58 to 0.78 for the
# Python loop alone and 0.61 to 0.88 with array work and a stream added,
# and the op_tail_ms medians of two sets of ten runs agreed within 1%
# (10% without the stream). The CLI commands and the CSV export spend their
# time in the interpreter and on small arrays; with the stream in their
# probe, a host phase that slowed the stream but not their ops put the
# grid_export op_p50_ms medians of two such sets 18% apart (2% without).
PROBES = {
    "cli_session": ProbeRecipe(100_000, 2, 0, 0.009),
    "library_batch": ProbeRecipe(50_000, 1, 12, 0.008),
    "grid_export": ProbeRecipe(100_000, 2, 0, 0.009),
}


class HostProbe:
    """A fixed probe whose time shows slow host phases.

    It runs none of the program's code. Its arrays stay resident for the
    whole run; ``resident_mb`` is their size, which the in-process
    workloads take off their peak_rss_mb.
    """

    def __init__(self, recipe: ProbeRecipe):
        import numpy as np

        self._np = np
        self._recipe = recipe
        self._a = np.arange(128 * 64).reshape(128, 64) % 7 + 1j
        self._b = np.arange(64 * 256).reshape(64, 256) % 5 - 1j
        self._stream = np.ones(PROBE_STREAM_BYTES // 8 if recipe.stream_passes else 0)
        self.resident_mb = (self._a.nbytes + self._b.nbytes + self._stream.nbytes) / 2**20

    def __call__(self) -> float:
        np, a, b, recipe = self._np, self._a, self._b, self._recipe
        t0 = perf_counter()
        total = 0
        for i in range(recipe.loops):
            total += i
        for _ in range(recipe.array_rounds):
            np.ascontiguousarray((a @ b).T)
            np.einsum("ij,jk->ik", a[:16], b)
        for _ in range(recipe.stream_passes):
            np.multiply(self._stream, 1.0, out=self._stream)
        return perf_counter() - t0


def host_factors(probes, reference_s: float) -> list[float]:
    """Per sample, the reference probe time over the median probe time of
    the PROBE_WINDOW samples centred on it.

    The shared host has slow phases, lasting seconds to minutes, in which
    everything runs up to 1.5x slower; over 5 s buckets of library_batch
    ops, op latency over the time of a pure-Python probe stayed within
    15.4 +- 1 while the latency itself ranged from 60 to 93 ms. Multiplying
    a time by its factor expresses it at the reference host speed.
    """
    half = PROBE_WINDOW // 2
    return [reference_s / statistics.median(probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))]


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class HostRecord:
    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.jiffies = _cpu_jiffies()

    def finish(self, probes) -> dict:
        import numpy

        steal = None
        end = _cpu_jiffies()
        if self.jiffies is not None and end is not None:
            delta = [b - a for a, b in zip(self.jiffies, end)]
            steal = delta[7] / sum(delta) if sum(delta) > 0 else 0.0
        quartiles = statistics.quantiles(probes, n=4) if len(probes) > 1 else probes * 3
        return {
            "probe_ms_quartiles": [q * 1000.0 for q in quartiles],
            "probe_ms_reference": self.reference_s * 1000.0,
            "cpu_steal_share": steal,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
            "src_sha256": _src_digest(),
        }


# --------------------------------------------------------------------------
# measurement


@dataclass
class OpRecord:
    probe_s: float
    latency_s: float
    ok: bool
    traced: bool
    command: str | None = None
    trace: dict | None = None


def run_on_one_cpu() -> None:
    """One thread on one CPU for this process and every process it starts.

    The ops work on 4x4 operators and a few hundred grid nodes, where a
    second BLAS thread buys nothing; on a shared 2-vCPU host it only ties
    each op to the slower of the two CPUs. On one CPU the host probe also
    times the very CPU the ops run on.
    """
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd, cwd: Path, capture: bool):
    """Run a process to completion: (exit code, stdout, stderr, seconds).

    A watchdog kills it after OP_TIMEOUT_S. The wait itself blocks without
    a timeout, because ``subprocess`` polls a timed wait with sleeps of up
    to 50 ms, which would quantize every measured latency.
    """
    pipe = subprocess.PIPE if capture else None
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=_child_env(), cwd=cwd, stdout=pipe, stderr=pipe, text=True)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, stdout, stderr, perf_counter() - t0


def measure_setup(workload: str, probe: HostProbe, tmp: Path) -> tuple[list, list]:
    """(probe, wall) seconds of fresh processes that import and build the tables."""
    probes, walls = [], []
    for _ in range(SETUP_PROBES + 1):
        probe_s = probe()
        code, _, _, seconds = run_child([sys.executable, str(HERE / "warm.py"), workload],
                                     tmp, capture=False)
        if code != 0:
            raise RuntimeError(f"set-up of {workload} exited with code {code}")
        probes.append(probe_s)
        walls.append(seconds)
    return probes[1:], walls[1:]


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


def _report_problems(label, problems, reported):
    for problem in problems:
        if reported[0] < MAX_REPORTED_PROBLEMS:
            print(f"failed op ({label}): {problem}", file=sys.stderr)
        reported[0] += 1


def run_cli_session(seed: int, seconds: float, trace: bool, probe: HostProbe, tmp: Path):
    import spans
    import workloads

    cycles = workloads.cli_cycles(seed)
    records = []
    reported = [0]
    deadline = perf_counter() + seconds
    cycle = 0
    while cycle < MIN_CLI_CYCLES or perf_counter() < deadline:
        traced = trace and cycle % 2 == 1
        for op in cycles[cycle % len(cycles)]:
            trace_path = tmp / f"trace-{len(records)}.json"
            if traced:
                cmd = [sys.executable, str(HERE / "launcher.py"), str(trace_path), *op.argv]
            else:
                cmd = [sys.executable, "-m", "spintomo.cli", *op.argv]
            probe_s = probe()
            code, stdout, stderr, latency = run_child(cmd, tmp, capture=True)
            problems = workloads.check_cli(op, code, stdout)
            if problems and stderr.strip():
                problems.append(_last_line(stderr))
            _report_problems(op.command, problems, reported)
            op_trace = None
            if traced and trace_path.exists():
                data = json.loads(trace_path.read_text(encoding="utf-8"))
                trace_path.unlink()
                main_spans = [s for s in data["spans"] if s[0] == "cli.main"]
                op_trace = {
                    "stats": spans.span_stats(data["spans"]),
                    "covered_s": spans.library_covered_seconds(data["spans"]),
                    "cache": data["cache"],
                    "import_s": data["import_s"],
                    "main_s": main_spans[0][2] - main_spans[0][1] if main_spans else None,
                    "selftest": data["selftest"],
                }
            records.append(OpRecord(probe_s, latency, not problems, traced, op.command,
                                    op_trace))
        cycle += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return records, None, peak_rss_mb


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, probe: HostProbe,
                   tmp: Path):
    sys.path.insert(0, str(SRC))
    import spintomo

    if Path(spintomo.__file__).resolve().parent != (SRC / "spintomo").resolve():
        raise RuntimeError(f"spintomo imported from {spintomo.__file__}, not from {SRC}")
    import spans
    import warm
    import workloads

    wl = workloads.IN_PROCESS[workload](seed)
    recorder = spans.Recorder()
    setup_trace = None
    if trace:
        recorder.op = "setup"
        misses0 = spans.cache_counts()[1]
        recorder.install()
        try:
            warm.warm(workload)
        finally:
            recorder.uninstall()
        setup_trace = {"stats": spans.span_stats(recorder.spans),
                       "misses": spans.cache_counts()[1] - misses0}
    else:
        warm.warm(workload)

    records = []
    reported = [0]
    min_ops = 2 if trace else 1
    deadline = perf_counter() + seconds
    index = 0
    while index < min_ops or perf_counter() < deadline:
        item = wl.items[index % len(wl.items)]
        traced = trace and index % 2 == 1
        probe_s = probe()
        if traced:
            recorder.spans = []
            recorder.op = index
            cache0 = spans.cache_counts()
            recorder.install()
        problems = None
        t0 = perf_counter()
        try:
            outputs = wl.op(item, tmp)
        except Exception:  # a crashing op is a failed op, reported below
            problems = [_last_line(traceback.format_exc())]
        latency = perf_counter() - t0
        op_trace = None
        if traced:
            recorder.uninstall()
            cache1 = spans.cache_counts()
            op_trace = {
                "stats": spans.span_stats(recorder.spans),
                "covered_s": spans.library_covered_seconds(recorder.spans),
                "cache": [cache1[0] - cache0[0], cache1[1] - cache0[1]],
            }
        if problems is None:
            try:
                problems = wl.check(item, outputs, tmp)
            except Exception:  # so is an op whose outputs the check cannot read
                problems = [_last_line(traceback.format_exc())]
        _report_problems(workload, problems, reported)
        records.append(OpRecord(probe_s, latency, not problems, traced, None, op_trace))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe.resident_mb
    return records, setup_trace, peak_rss_mb


# --------------------------------------------------------------------------
# metrics


def ops_per_s(records, latencies=None) -> float:
    """Correct ops per second of summed op latency."""
    if latencies is None:
        latencies = [r.latency_s for r in records]
    busy = sum(latencies)
    return sum(1 for r in records if r.ok) / busy if busy > 0 else 0.0


def tail(latencies, blocks: int = 1) -> tuple[float, float]:
    """(value, percentile) of op_tail_ms.

    The latencies, in the order the ops ran, are cut into ``blocks``
    consecutive blocks; the value is the median over the blocks of the
    latency with TAIL_BEYOND samples beyond it in the block, and the
    percentile is where that rank sits in a block.
    """
    n = len(latencies)
    blocks = max(min(blocks, n), 1)
    values = []
    for k in range(blocks):
        block = sorted(latencies[k * n // blocks:(k + 1) * n // blocks])
        values.append(block[max(len(block) - TAIL_BEYOND - 1, 0)])
    size = n / blocks
    return statistics.median(values), 100.0 * max(size - TAIL_BEYOND, 1) / size


def end_to_end_metrics(workload, records, setup, peak_rss_mb, scaled: bool) -> dict:
    """End-to-end metrics, with every time at the reference host speed when
    ``scaled`` (the reported values) or as measured on the wall clock."""
    setup_probes, setup_walls = setup
    latencies = [r.latency_s for r in records]
    if scaled:
        reference_s = PROBES[workload].reference_s
        probes = [r.probe_s for r in records]
        latencies = [t * f for t, f in zip(latencies, host_factors(probes, reference_s))]
        setup_walls = [t * f for t, f in zip(setup_walls, host_factors(setup_probes, reference_s))]
    return {
        "ops_per_s": ops_per_s(records, latencies),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_tail_ms": tail(latencies, TAIL_BLOCKS[workload])[0] * 1000.0,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": peak_rss_mb,
    }


def _span_metric(traces, names, field, unit) -> float:
    scale = 1000.0 if unit == "ms" else 1.0
    total = sum(t["stats"].get(n, {}).get(field, 0) for t in traces for n in names)
    return total * scale / len(traces) if traces else 0.0


def per_layer_metrics(records, setup_trace) -> dict:
    import workloads

    traced = [r for r in records if r.traced]
    traces = [r.trace for r in traced if r.trace is not None]
    values = {}
    imports = [t["import_s"] for t in traces if "import_s" in t]
    values["cli.import_ms"] = statistics.median(imports) * 1000.0 if imports else 0.0
    for command in workloads.CLI_COMMANDS:
        walls = [r.trace["main_s"] for r in traced
                 if r.command == command and r.trace and r.trace["main_s"] is not None]
        values[f"cli.cmd.{command}.wall_ms"] = statistics.median(walls) * 1000.0 if walls else 0.0
    for name, unit, span_names, field in SPAN_METRICS:
        values[name] = _span_metric(traces, span_names, field, unit)
    for key, position in (("hits", 0), ("misses", 1)):
        values[f"frames.table_cache.{key}"] = (
            sum(t["cache"][position] for t in traces) / len(traces) if traces else 0.0)
    selftests = [t["selftest"] for t in traces if t.get("selftest")]
    for i in range(1, workloads.SELFTEST_CRITERIA + 1):
        seconds = [s["criteria"][str(i)] for s in selftests if str(i) in s["criteria"]]
        values[f"selftest.criterion_{i:02d}.s"] = statistics.median(seconds) if seconds else 0.0
    values["selftest.wall_s"] = (
        statistics.median(s["wall_s"] for s in selftests) if selftests else 0.0)
    setup = [setup_trace] if setup_trace else []
    for name, unit, span_names, field in SETUP_SPAN_METRICS:
        values[name] = _span_metric(setup, span_names, field, unit) if setup else 0.0
    values["setup.frames.table_cache.misses"] = setup_trace["misses"] if setup_trace else 0
    wall = sum(r.latency_s for r in traced)
    values["trace.coverage"] = sum(t["covered_s"] for t in traces) / wall if wall else 0.0
    values["trace.ops_per_s_untraced"] = ops_per_s([r for r in records if not r.traced])
    values["trace.ops_per_s_traced"] = ops_per_s(traced)
    values["trace.overhead_ops_per_s"] = (
        values["trace.ops_per_s_untraced"] - values["trace.ops_per_s_traced"])
    values["trace.traced_ops"] = len(traced)
    return values


# --------------------------------------------------------------------------
# entry points


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    run_on_one_cpu()
    tmp = ROOT / ".bench_tmp" / f"{workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        host = HostRecord(PROBES[workload].reference_s)
        probe = HostProbe(PROBES[workload])
        setup = ([], []) if trace else measure_setup(workload, probe, tmp)
        if workload == "cli_session":
            records, setup_trace, peak_rss_mb = run_cli_session(seed, seconds, trace, probe, tmp)
        else:
            records, setup_trace, peak_rss_mb = run_in_process(workload, seed, seconds,
                                                               trace, probe, tmp)
        host_record = host.finish(setup[0] + [r.probe_s for r in records])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    print(f"host {json.dumps(host_record, sort_keys=True)}")
    if trace:
        values = per_layer_metrics(records, setup_trace)
        units = per_layer_units()
        for name, value in values.items():
            print(f"{workload} {name} = {value:.6g} {units[name]}")
    else:
        values = end_to_end_metrics(workload, records, setup, peak_rss_mb, scaled=True)
        wall = end_to_end_metrics(workload, records, setup, peak_rss_mb, scaled=False)
        units = END_TO_END
        for name, value in values.items():
            print(f"{workload} {name} = {value:.6g} {units[name]} "
                  f"(wall clock {wall[name]:.6g} {units[name]})")
        blocks = TAIL_BLOCKS[workload]
        tail_percentile = tail([r.latency_s for r in records], blocks)[1]
        print(f"{workload} op_tail_ms is p{tail_percentile:.1f} of {attempted} ops"
              + (f", median over {blocks} consecutive blocks" if blocks > 1 else ""))
    print(f"{workload} error_rate = {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; a summary table and a merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
        rows.append((workload, result))
    names = list(rows[0][1]["metrics"])
    print()
    print(f"{'metric':<46}" + "".join(f"{w:>18}" for w, _ in rows))
    for name in names + ["error_rate"]:
        cells = []
        for _, result in rows:
            if name == "error_rate":
                value, unit = result["failed"] / result["attempted"], "share"
            else:
                value, unit = result["metrics"][name]["value"], result["metrics"][name]["unit"]
            cells.append(f"{value:>12.5g} {unit:<5}")
        print(f"{name:<46}" + "".join(cells))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spintomo" / "__init__.py").is_file():
        print(f"error: no spintomo package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
