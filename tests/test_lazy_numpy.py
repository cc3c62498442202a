"""Each CLI verb imports only what it uses.

Importing oitkit loads none of its submodules, and each verb of the
benchmark's `cli_oneshot` rotation loads only the oitkit modules it needs.
numpy is imported only on the Kalman path: no verb but `classical kalman`
loads it. The test session itself has all of these loaded, so each check
runs in a fresh interpreter.
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


ROTATION = _rotation()
VERBS = [(name, argv) for name, argv in ROTATION if argv[:2] != KALMAN_ARGV[:2]]

# the oitkit modules each rotation verb must not load
NOT_LOADED = {
    **dict.fromkeys(
        ("validate", "metrics", "restore", "chain"), {"classical", "physics", "scenarios"}
    ),
    **dict.fromkeys(
        ("classical_entropy", "classical_kalman", "classical_asl"),
        {"model", "metrics", "physics", "scenarios"},
    ),
    **dict.fromkeys(
        ("physics_universe", "physics_quantum"), {"model", "metrics", "classical", "scenarios"}
    ),
    "demo": {"classical"},
}


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


def test_importing_oitkit_loads_no_submodule():
    proc = run_python(
        "import sys, oitkit\n"
        "print(sorted(name for name in sys.modules if name.startswith('oitkit.')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_rotation_verb_has_an_import_pin():
    assert sorted(NOT_LOADED) == sorted(name for name, _ in ROTATION)


@pytest.mark.parametrize("name, argv", ROTATION, ids=[name for name, _ in ROTATION])
def test_cli_verb_loads_only_the_modules_it_uses(name, argv):
    proc = run_python(
        "import contextlib, io, sys\n"
        "from oitkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, *sorted(m[7:] for m in sys.modules if m.startswith('oitkit.')))\n"
    )
    code, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    assert "cli" in loaded
    assert not NOT_LOADED[name] & set(loaded), loaded


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
