import subprocess
import sys

import pytest

from conftest import cli_env

MODULES = ["bench", "cli", "errors", "graph", "localcut", "solver", "spectral",
           "threshold", "walks"]


def run_python(code):
    """Run code in a fresh interpreter that imports this suite's rwcut."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=cli_env())


def test_root_holds_only_the_version():
    # Each name is imported from its own module.
    proc = run_python("import rwcut\n"
                      "print([n for n in vars(rwcut) if not n.startswith('_')],"
                      " rwcut.__version__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 0.1.0"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = run_python(f"import rwcut.{module}")
    assert proc.returncode == 0, proc.stderr


def test_graph_import_stays_light():
    proc = run_python("import sys, rwcut.graph\n"
                      "print(sorted(m for m in ('rwcut.solver', 'scipy.integrate')"
                      " if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
