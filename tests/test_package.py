import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rwcut
from conftest import cli_env

SRC = Path(rwcut.__file__).resolve().parent
# Every module but __init__, as CI's import loop globs them.
MODULES = sorted(p.stem for p in SRC.glob("[!_]*.py"))

# Top-level names that no library code names, each with the reason it stays.
UNNAMED_IN_LIBRARY = {
    "graph.conductance": "perfbench checks the probes' cuts with it",
    "solver.h_fn": "the scalar entry point; perfbench clears its cache and spans it",
    "solver.tradeoff_objective": "the public one-pair entry point; perfbench's "
                                 "tradeoff-curve set-up calls it, and it is a perfbench span",
    "threshold.threshold_classify": "a perfbench span",
    "walks.exact_walk_distribution": "a perfbench span",
}


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


def test_no_module_loads_scipy_integrate():
    # scipy.integrate is most of a command's start-up time, and no module needs it.
    imports = "".join(f"import rwcut.{module}\n" for module in MODULES)
    proc = run_python(f"import sys\n{imports}print('scipy.integrate' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _named(node, modules):
    """The names node's code reads: bare names, and attributes of a module
    imported whole (as in `graph.load_graph`).  A name assigned, such as a
    dataclass field, is not read."""
    for sub in ast.walk(node):
        if not isinstance(getattr(sub, "ctx", None), ast.Load):
            continue
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in modules:
            yield sub.attr


def test_every_top_level_name_is_named_in_the_library():
    # A function or class that only tests call belongs in the tests.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    named = Counter()
    for tree in trees.values():
        named.update(_named(tree, trees))
    unnamed = {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and named[node.name] == Counter(_named(node, trees))[node.name]}
    assert unnamed == set(UNNAMED_IN_LIBRARY)
