"""The package's public surface.

`import oitkit` binds its public names lazily; these tests pin which names
there are, where each comes from, and that the usual ways of importing them
keep working. The surface checks run in a fresh interpreter, where nothing
but the package itself has been imported yet.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oitkit

ROOT = Path(__file__).resolve().parent.parent

# submodule -> the public names the package takes from it
EXPORTS = {
    "classical": (
        "InvarianceResult", "KalmanStep", "LinearSystemSpec", "NetworkValueResult",
        "SearchResult", "SearchSetup", "aggregation_invariance_check", "asl",
        "bisection_average_depth", "kalman_filter", "metcalfe_value", "mtbf_duration",
        "network_value_check", "nyquist_min_rate", "nyquist_restorable", "radar_max_range",
        "rayleigh_granularity", "search_min_mismatch", "serial_chain_delay",
        "shannon_min_volume", "variety_invariance_check",
    ),
    "errors": (
        "ChainMismatchError", "DistanceError", "GapError", "InvalidModelError",
        "MissingCopiesError", "MissingMeasureError", "NotRestorableError", "OitError",
        "OverlapError", "PartialRelationError", "SearchError", "SingularInnovationError",
        "UnknownIndexError",
    ),
    "metrics": (
        "DistanceSpec", "EquivalenceRelation", "RelationSet", "aggregation", "coverage",
        "delay", "distortion", "duration", "granularity", "metric_report", "mismatch",
        "sampling_rate", "scope", "variety", "volume",
    ),
    "model": (
        "AtomicInfo", "CopyRecord", "InformationModel", "MeasureAssignment", "StateEntry",
        "ValidationReport", "Violation", "combine", "compose_chain", "decompose_atomic",
        "is_restorable", "make_atom", "restore", "validate",
    ),
    "physics": (
        "CODATA", "PAPER", "CarrierSpec", "PhysicalConstants", "QuantumVolume", "bits_per_kg",
        "carrier_volume", "min_bit_mass", "profile", "quantum_volume", "qubits_per_kg_second",
        "universe_info",
    ),
    "timeset": ("TimeSet", "seconds", "seconds_str"),
}
PUBLIC = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def run_python(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_there_are_84_public_names():
    assert len(PUBLIC) == len(set(PUBLIC)) == 84


def test_dir_lists_the_public_names():
    out = run_python(
        "import oitkit\n"
        "print(*(name for name in dir(oitkit) if not name.startswith('_')))\n"
        "print(oitkit.__version__)\n"
    )
    names, version = out.splitlines()
    assert names.split() == PUBLIC
    assert version == "0.1.0"


def test_star_import_binds_the_public_names():
    out = run_python(
        "namespace = {}\n"
        "exec('from oitkit import *', namespace)\n"
        "print(*sorted(name for name in namespace if name != '__builtins__'))\n"
    )
    assert out.split() == PUBLIC


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_attribute_of_its_submodule(module):
    home = importlib.import_module(f"oitkit.{module}")
    assert getattr(oitkit, module) is home
    for name in EXPORTS[module]:
        assert getattr(oitkit, name) is getattr(home, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'oitkit' has no attribute 'no_such_name'"):
        oitkit.no_such_name  # noqa: B018
    assert not hasattr(oitkit, "no_such_name")
    with pytest.raises(ImportError):
        from oitkit import no_such_name  # noqa: F401


def test_submodules_import_from_the_package():
    out = run_python(
        "from oitkit import io, metrics, model\n"
        "print(io.__name__, metrics.__name__, model.__name__)\n"
        "from oitkit import InformationModel, TimeSet, classical\n"
        "print(InformationModel.__module__, TimeSet.__module__, classical.__name__)\n"
    )
    assert out.split() == [
        "oitkit.io", "oitkit.metrics", "oitkit.model",
        "oitkit.model", "oitkit.timeset", "oitkit.classical",
    ]
