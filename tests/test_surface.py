"""The package's public surface: what the benchmark tracer wraps, what the
top-level package exports, that every module uses each name it imports,
that every definition has a reader and that the numpy-free modules leave
``typing`` unloaded.

The tracer reports a name it cannot find as absent and runs on, so a rename
or a trim would silently blank a benchmark layer; these tests make it fail.
"""

import ast
import glob
import importlib
import importlib.util
import os
import subprocess
import sys
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


def _trees() -> dict[str, ast.Module]:
    """The parsed source of every package module, by module name."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC_DIR, "*.py"))):
        with open(path) as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read(), filename=path)
    return trees


# Definitions no package code reads, kept because tests check production code
# against them (marked_instants and nonreturned_edges check gluing's one
# surgery pass); markov_tail_bound waits on ROADMAP item 6
ORACLES = {
    "_pairing_count_by_search", "_stay_above_count", "cycle_refined_insertion_log",
    "descent_window", "enumerate_dyck", "enumerate_insertions", "k_functional_tensor",
    "marked_instants", "markov_tail_bound", "nonreturned_edges", "path_weight",
    "single_walk_insertion_bound", "spectral_norm",
}


def test_every_definition_has_a_reader():
    # a top-level def or class is loaded somewhere in the package outside its
    # own body, or the benchmark tracer wraps it, or it is a test oracle
    trees = _trees()
    reads: dict[str, list[tuple[str, int]]] = {}  # name -> (module, line) of each load
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append((module, node.lineno))
    traced = {part for dotted in _traced_names() for part in dotted.split(".")}
    unread = {
        d.name
        for module, tree in trees.items()
        for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and d.name not in traced
        and all(m == module and d.lineno <= line <= d.end_lineno for m, line in reads.get(d.name, ()))
    }
    assert unread == ORACLES


def _default_rng_callers() -> set[tuple[str, str]]:
    """(module, function) for every call of ``default_rng`` in the package."""
    callers = set()
    for module, tree in _trees().items():
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
    an argument floor, in the one form or as ``must be >=``."""
    return [
        (module, node)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ("must be at least" in node.value or "must be >=" in node.value)
    ]


def test_one_helper_words_every_argument_floor():
    # every floor is refused through ensemble._check_at_least, in its one form
    helper = next(f for f in ast.walk(_trees()["ensemble"]) if isinstance(f, ast.FunctionDef) and f.name == "_check_at_least")
    [(module, node)] = _floor_wordings()
    assert module == "ensemble" and helper.lineno <= node.lineno <= helper.end_lineno


def test_numpy_free_imports_leave_typing_unloaded():
    # the records of the numpy-free modules are collections.namedtuple
    # subclasses: typing.NamedTuple would load typing, about 3 ms
    code = "import sys, tml.cli, tml.paths, tml.gluing; sys.exit('typing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "typing was loaded"
