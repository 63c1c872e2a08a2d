"""The package's public surface: what the benchmark tracer wraps, what the
top-level package exports, and that every module uses each name it imports.

The tracer reports a name it cannot find as absent and runs on, so a rename
or a trim would silently blank a benchmark layer; these tests make it fail.
"""

import ast
import glob
import importlib
import importlib.util
import os
import types

import pytest

import tml
import tml.ensemble
import tml.spectral

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")
SRC_DIR = os.path.join(ROOT, "src", "tml")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names() -> list[str]:
    tracer = _tracer()
    return [*tracer.SPANS, *tracer.COUNTS]


def _resolve(dotted: str):
    """Import the longest module prefix of a dotted name, then walk the
    remaining attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


@pytest.mark.parametrize("dotted", _traced_names())
def test_traced_name_resolves(dotted):
    assert dotted.startswith("tml.")
    obj = _resolve(dotted)
    assert callable(obj) or isinstance(obj, property)


def test_package_exports_only_version():
    public = {
        k
        for k, v in vars(tml).items()
        if not k.startswith("__") and not isinstance(v, types.ModuleType)
    }
    assert public == set()
    assert tml.__version__


def test_moved_names_keep_their_identity():
    # EigensolverError lives in numpy-free ensemble; spectral raises the same object
    assert tml.spectral.EigensolverError is tml.ensemble.EigensolverError


def _imported_names(tree: ast.Module) -> set[str]:
    """Every name an import statement binds, anywhere in the module, apart
    from ``__future__`` features."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))), ids=os.path.basename)
def test_every_import_is_used(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert _imported_names(tree) - used == set()


def _default_rng_callers() -> set[tuple[str, str]]:
    """(module, function) for every call of ``default_rng`` in the package."""
    callers = set()
    for path in glob.glob(os.path.join(SRC_DIR, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)[:-3]
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                    if name == "default_rng":
                        callers.add((module, func.name))
    return callers


def test_only_the_oracles_seed_their_own_generator():
    # every other random draw takes trial j from seed + j through ensemble._trial_streams
    assert _default_rng_callers() == {("dyck", "sample_dyck"), ("ensemble", "sample_symmetric_matrix")}


def _floor_wordings() -> list[tuple[str, ast.Constant]]:
    """(module, node) for every string constant in the package that words
    an argument floor."""
    found = []
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        module = os.path.basename(path)[:-3]
        found += [
            (module, node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be at least" in node.value
        ]
    return found


def test_one_helper_words_every_argument_floor():
    # every floor is refused through ensemble._check_at_least, in its one form
    with open(os.path.join(SRC_DIR, "ensemble.py")) as fh:
        tree = ast.parse(fh.read())
    helper = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_check_at_least")
    [(module, node)] = _floor_wordings()
    assert module == "ensemble" and helper.lineno <= node.lineno <= helper.end_lineno
