"""numpy is imported only on the Kalman path.

Importing oitkit, and running any CLI verb but `classical kalman`, must not
load numpy. The test session itself has numpy loaded, so each check runs in
a fresh interpreter. The verbs are the benchmark's `cli_oneshot` rotation.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "fixtures" / "golden"
KALMAN_ARGV = ["classical", "kalman", "fixtures/kalman_scalar.json", "--format", "json"]


def _rotation() -> tuple:
    spec = importlib.util.spec_from_file_location(
        "cli_oneshot", ROOT / "perfbench" / "cli_oneshot.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VERBS


VERBS = [(name, argv) for name, argv in _rotation() if argv[:2] != KALMAN_ARGV[:2]]


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=False,
    )


def test_importing_oitkit_does_not_load_numpy():
    proc = run_python("import sys, oitkit, oitkit.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv", [argv for _, argv in VERBS], ids=[name for name, _ in VERBS])
def test_cli_verb_does_not_load_numpy(argv):
    proc = run_python(
        "import contextlib, io, sys\n"
        "from oitkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert proc.stdout == "0 False\n", proc.stderr


def test_kalman_loads_numpy_and_matches_its_golden_report():
    proc = run_python(
        "import sys\n"
        "from oitkit.cli import main\n"
        f"code = main({KALMAN_ARGV!r})\n"
        "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    assert proc.stderr == "0 True\n"
    assert proc.stdout == (GOLDEN / "classical_kalman.json.out").read_text(encoding="utf-8")
