"""The runtime needs numpy and the standard library only; SciPy is a test dependency."""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# numpy.random and what its import pulls in: about 6 MiB that a process
# which never draws should not load
RANDOM_MODULES = {"numpy.random", "secrets", "_hashlib"}


def _modules_loaded_by(code, cwd=None):
    """The names in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                         env=env, cwd=cwd, capture_output=True, text=True, check=True,
                         timeout=60)
    return set(out.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_scipy():
    loaded = _modules_loaded_by("import scinbio.cli")
    assert sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) == []


@pytest.mark.parametrize("code", [
    "import scinbio.cli",
    "from scinbio.cli import main\n"
    "assert main(['scan', '--problem', 'fold', '--set', 'scan.grid_resolution=8',"
    " '--out', 'out']) == 0",
], ids=["import", "scan"])
def test_import_and_scan_load_no_numpy_random(code, tmp_path):
    # scan never draws, so it never pays for numpy.random; nor does it load
    # numpy.ma, which a plain np.unique imports (the 8^2 scan marks 8 cells,
    # so it counts boxes)
    assert _modules_loaded_by(code, cwd=tmp_path) & (RANDOM_MODULES | {"numpy.ma"}) == set()


def test_estimate_loads_numpy_random(tmp_path):
    code = ("from scinbio.cli import main\n"
            "assert main(['estimate', '--problem', 'fold', '--x', '0.4,0.1',"
            " '--out', 'out']) == 0")
    assert "numpy.random" in _modules_loaded_by(code, cwd=tmp_path)


def test_only_rng_names_numpy_random():
    package = os.path.join(SRC, "scinbio")
    named = re.compile(r"\b(numpy|np)\.random\b")
    hits = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "rng.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                hits += [f"{name}:{i}" for i, line in enumerate(fh, 1) if named.search(line)]
    assert hits == []


def test_sources_do_not_name_scipy():
    hits = []
    for root, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    hits += [f"{path}:{i}" for i, line in enumerate(fh, 1)
                             if "scipy" in line.lower()]
    assert hits == []


def test_only_problems_calls_bundle_oracles():
    # every other module calls an oracle through problems.call_oracle, the one
    # place that checks the lane convention's output shapes
    direct = re.compile(r"\.(f|g|grad_y_g|hess_yy_g|grad_x_grad_y_g)\(")
    package = os.path.join(SRC, "scinbio")
    hits = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "problems.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                hits += [f"{name}:{i}" for i, line in enumerate(fh, 1) if direct.search(line)]
    assert hits == []


def test_builtin_oracles_index_any_batch_shape():
    # the builtins index components as x[..., j] and add the cross-derivative's
    # axis with [..., None]; a subscript [:, ...] would take only (L, n) lanes
    # and break on the scan's broadcast batches (C, 1, n) x (1, R)
    with open(os.path.join(SRC, "scinbio", "problems.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    hits = [f"problems.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and node.slice.elts and isinstance(node.slice.elts[0], ast.Slice)]
    assert hits == []


def test_problems_spells_powers_as_products():
    # products round the same on every CPU; numpy's power follows its SIMD
    # dispatch, so no np.power, numpy.power, math.pow or ** in the builtins
    with open(os.path.join(SRC, "scinbio", "problems.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    hits = [f"problems.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Pow)
            or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in {("np", "power"), ("numpy", "power"),
                                               ("math", "pow")}]
    assert hits == []


def _unused_imports(path):
    """`file:line name` for each name a top-level import binds that the module never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{os.path.basename(path)}:{node.lineno} {name}"
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in used]


def test_no_unused_top_level_imports():
    package = os.path.join(SRC, "scinbio")
    tests = os.path.dirname(os.path.abspath(__file__))
    paths = ([os.path.join(package, name) for name in sorted(os.listdir(package))
              if name.endswith(".py") and name != "__init__.py"]
             + [os.path.join(tests, name) for name in sorted(os.listdir(tests))
                if name.endswith(".py")])
    assert [hit for path in paths for hit in _unused_imports(path)] == []



def test_module_all_lists_exist_and_cover_the_package_exports():
    # each name in a module's __all__ exists, and each name the package
    # __init__ imports from a module with an __all__ is listed in it
    package = os.path.join(SRC, "scinbio")
    listed, hits = {}, []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            module = importlib.import_module(f"scinbio.{name[:-3]}")
            if hasattr(module, "__all__"):
                listed[module.__name__] = module.__all__
                hits += [f"{name}: __all__ names undefined {attr}" for attr in module.__all__
                         if not hasattr(module, attr)]
    with open(os.path.join(package, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and f"scinbio.{node.module}" in listed:
            hits += [f"{node.module}.__all__ lacks {alias.name}" for alias in node.names
                     if alias.name not in listed[f"scinbio.{node.module}"]]
    assert hits == []
