"""Imports follow use: every exported name and every layer of the package
resolves on first access, ``import spintomo`` loads no layer module, and
each CLI command loads only the layers it calls."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spintomo

#: every name ``spintomo`` exported when its ``__init__`` imported all layers
EXPORTS = (
    "BASIS_QUDIT", "BASIS_TWO_QUBIT", "ChshResult", "DensityMatrix", "EulerAngles",
    "FramePoint2Q", "FramePointQudit", "KernelPoint", "PHASE_CONVENTION", "QuadratureGrid",
    "SteeringReport", "TomogramTable", "ValidationReport", "WernerReport", "as_direction",
    "chsh_max", "chsh_value", "closed_kernel_report", "correlation_direct",
    "correlation_tensor", "correlation_tomographic_qudit",
    "correlation_tomographic_two_qubit", "dequantizer_2q", "dequantizer_qudit",
    "dual_kernels", "dual_symbol", "jacobi_poly", "kernel_pair_to_qudit",
    "kernel_qudit_to_pair", "kernel_qudit_to_pair_closed", "kron", "make_grid",
    "map_qudit_to_two_qubit", "map_two_qubit_to_qudit", "max_correlation",
    "product_observable", "quantizer_2q", "quantizer_qudit", "quantizer_qudit_explicit",
    "qubit_rotation", "qudit_quantizer_authority", "random_density", "reconstruct_state",
    "run_selftest", "steering_check", "symbol", "tomogram", "tomogram_table",
    "validate_density", "werner", "werner_matrix", "werner_report", "wigner_D", "wigner_d",
    "wigner_d_matrix",
)
LAYERS = ("su2", "matcore", "frames", "kernel", "steering", "selftest")


def fresh(script, *argv, flags=(), **env):
    """Run ``script`` with ``argv`` in a new interpreter started with
    ``flags``, this checkout on the path, SPINTOMO_LOG unset and ``env``
    added to the environment."""
    src = str(Path(spintomo.__file__).resolve().parents[1])
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    base.pop("SPINTOMO_LOG", None)
    return subprocess.run([sys.executable, *flags, "-c", script, *argv], capture_output=True,
                          text=True, env={**base, **env}, check=True, timeout=120)


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_imports_by_name(name):
    namespace = {}
    exec(f"from spintomo import {name}", namespace)
    defining = [m for m in LAYERS if name in vars(importlib.import_module(f"spintomo.{m}"))]
    assert defining and all(
        namespace[name] is getattr(importlib.import_module(f"spintomo.{m}"), name)
        for m in defining)


def test_star_import_gives_the_exports_and_the_layers():
    namespace = {}
    exec("from spintomo import *", namespace)
    assert set(namespace) - {"__builtins__"} == {*EXPORTS, *LAYERS}


@pytest.mark.parametrize("layer", (*LAYERS, "cli"))
def test_layers_resolve_as_submodules(layer):
    assert getattr(spintomo, layer) is importlib.import_module(f"spintomo.{layer}")


def test_dir_lists_exports_and_layers():
    assert {*EXPORTS, *LAYERS, "cli", "__version__"} <= set(dir(spintomo))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        spintomo.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from spintomo import no_such_name", {})


def test_import_loads_no_layer():
    out = fresh("import sys, spintomo\n"
                "print(*sorted(m for m in sys.modules if m.startswith('spintomo.')))\n"
                "print(spintomo.__version__, 'numpy' in sys.modules)\n").stdout
    assert out.splitlines() == ["", "0.1.0 False"]


def test_cli_import_then_layer_attribute():
    # a traced launcher reads the selftest entry point right after importing the CLI
    out = fresh("import spintomo.cli\n"
                "print(spintomo.selftest.run_selftest.__module__)\n").stdout
    assert out.strip() == "spintomo.selftest"


def test_importtime_reports_lazy_layers():
    # README's start-up recipe: a layer loaded on first access still shows
    err = fresh("import spintomo\nspintomo.kernel\n", flags=("-X", "importtime")).stderr
    assert {"spintomo.frames", "spintomo.kernel"} <= {
        line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}


class TestImports:
    """Each command loads only the layers it calls (a fresh interpreter
    shows the imports)."""

    SCRIPT = ("import sys\nfrom spintomo.cli import main\ncode = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('spintomo.')))\n"
              "print('logging' in sys.modules)\n")
    POINT = ("--m", "1.5", "--alpha", "0", "--beta", "0")

    @pytest.mark.parametrize("argv, layers", [
        (("validate", "--state", "werner:0.5"), ()),
        (("tomogram", "--state", "werner:0.5", "--rep", "qudit", *POINT), ("frames", "su2")),
        (("reconstruct", "--state", "werner:0.5", "--rep", "qudit"), ("frames", "su2")),
        (("map", "--state", "werner:0.5", "--direction", "2q_to_qudit", *POINT),
         ("frames", "kernel", "su2")),
        (("correlation", "--state", "werner:0.5"), ("frames", "kernel", "steering", "su2")),
        (("steering", "--state", "werner:0.5"), ("frames", "kernel", "steering", "su2")),
        (("selftest",), ("frames", "kernel", "selftest", "steering", "su2")),
    ], ids=("validate", "tomogram", "reconstruct", "map", "correlation", "steering", "selftest"))
    def test_command_loads_only_its_layers(self, argv, layers):
        modules, has_logging = fresh(self.SCRIPT, *argv).stdout.splitlines()[-2:]
        want = sorted(f"spintomo.{m}" for m in ("cli", "matcore", *layers))
        assert modules.split() == ["0", *want]
        assert has_logging == "False"

    def test_logging_is_imported_when_asked_for(self):
        out = fresh(self.SCRIPT, "validate", "--state", "werner:0.5",
                    SPINTOMO_LOG="error").stdout
        assert out.splitlines()[-1] == "True"

    def test_help_loads_no_layer_but_matcore(self):
        script = ("import sys\nfrom spintomo.cli import build_parser\nbuild_parser()\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('spintomo.')))\n")
        assert fresh(script).stdout.split() == ["spintomo.cli", "spintomo.matcore"]
