"""Traced CLI launch: ``python perfbench/launcher.py <trace.json> <cli args...>``.

Times ``import spintomo.cli``, installs the span wrappers, runs
``spintomo.cli.main`` on the remaining arguments and exits with its code.
The spans, the import time, the table-cache counts and, for ``selftest``,
the per-criterion seconds of the returned report are written to
``<trace.json>`` when the command has finished.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import spans


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import spintomo.cli
    import_s = perf_counter() - t0

    recorder = spans.Recorder()
    recorder.op = 0
    recorder.install()
    selftest_times = {}
    run_selftest = spintomo.selftest.run_selftest

    def capture_selftest(*args, **kwargs):
        report = run_selftest(*args, **kwargs)
        selftest_times["wall_s"] = report.wall_clock_seconds
        selftest_times["criteria"] = {r.index: r.seconds for r in report.results}
        return report

    spintomo.selftest.run_selftest = capture_selftest
    code = spintomo.cli.main(argv)
    sys.stdout.flush()
    hits, misses = spans.cache_counts()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": recorder.spans, "cache": [hits, misses],
                   "selftest": selftest_times or None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
