"""The package's public surface: what the benchmark tracer wraps, and what
the top-level package exports.

The tracer reports a name it cannot find as absent and runs on, so a rename
or a trim would silently blank a benchmark layer; these tests make it fail.
"""

import importlib
import importlib.util
import os
import types

import pytest

import tml
import tml.dyck
import tml.ensemble
import tml.paths
import tml.spectral

TRACER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


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
    # catalan and beta_sum live in paths and EigensolverError in ensemble, all free of
    # numpy; the modules that used to define them re-export the same objects
    assert tml.dyck.catalan is tml.paths.catalan
    assert tml.dyck.beta_sum is tml.paths.beta_sum
    assert tml.spectral.EigensolverError is tml.ensemble.EigensolverError
