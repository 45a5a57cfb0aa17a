"""Set-up of one workload: the imports plus the table and quantizer builds.

``python perfbench/warm.py <workload>`` (with the checkout's ``src`` on
``PYTHONPATH``) runs the set-up in a fresh interpreter and exits; the
benchmark times several such processes for ``setup_s``. The in-process
workloads call :func:`warm` for their own set-up, so both measure the
same code.
"""

from __future__ import annotations

import sys

# (picture, grid nodes per axis) pairs whose tables each workload needs;
# the pictures are the package's basis tags. They match the grids of the
# workload classes in workloads.py; a mismatch shows in the traced run as
# frames.table_cache.misses above 0 per op.
GRIDS = {
    "cli_session": (),
    "library_batch": (("two_qubit", 16), ("qudit_3_2", 16)),
    "grid_export": (("two_qubit", 8), ("qudit_3_2", 16)),
}


def warm(workload: str) -> None:
    """Import the package and build every table the workload's ops use."""
    if workload == "cli_session":
        import spintomo.cli  # noqa: F401  (the import is the set-up)
        return
    from spintomo import frames, matcore

    state = matcore.werner(0.5)
    for picture, nodes in GRIDS[workload]:
        grid = frames.make_grid(nodes, nodes, spheres=2 if picture == "two_qubit" else 1)
        if workload == "library_batch":
            # reconstruction builds the operator tables and, for the qudit
            # picture, selects the quantizer
            frames.reconstruct_state(state, picture, grid)
        else:
            frames.tomogram_table(state, picture, grid)


if __name__ == "__main__":
    warm(sys.argv[1])
