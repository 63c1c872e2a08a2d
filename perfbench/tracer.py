"""Span tracer for one `tml` CLI call, wrapping public names from outside.

Run as a script, it is a drop-in launcher for the CLI:

    python3 perfbench/tracer.py SPANS.json RUN_ID -- <tml cli arguments>

It imports `tml`, replaces each public function named in SPANS (and COUNTS)
by a wrapper in every `tml` module namespace that holds it, runs
`tml.cli.main`, and writes the spans it kept in memory to SPANS.json when the
call ends.  No file of the package is touched.  A name that no longer
exists is listed as absent; the call still runs.

Imported as a module, it gives the span arithmetic the harness uses:
self times (duration minus the union of the children's intervals) and the
nesting check.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# Public names that get a span (name, start, end, parent, thread id, run id),
# each with the work counts read from its result at the span boundary.
SPANS = {
    "tml.cli.main": None,
    "tml.ensemble.sample_symmetric_matrix": lambda r: {"bytes": r.entries.nbytes},
    "tml.ensemble.MatrixSample.normalized_view": lambda r: {"bytes": r.nbytes},
    "tml.spectral.largest_eigenvalue": None,
    "tml.spectral.trace_power": None,
    "tml.spectral.mc_expected_trace": None,
    "tml.spectral.edge_exceedance_experiment": None,
    "tml.spectral.concentration_experiment": None,
    "tml.dyck.sample_dyck": None,
    "tml.dyck.k_functional": None,
    "tml.dyck.expected_k_functional": None,
    "tml.dyck.stay_above_full_window_expectation": None,
    "tml.paths.exact_expected_trace_patterns": None,
    "tml.gluing.run_invariant_suite": lambda r: {"walks": r.walks_checked},
    "tml.gluing.glue": None,
    "tml.gluing.cycle_decomposition": None,
    "tml.gluing.count_gluings": None,
}

# Public names called too often for a span each: only their calls are counted.
COUNTS = (
    "tml.ensemble.moment",
    "tml.gluing.odd_interval_decomposition",
)


class Tracer:
    """Keeps spans and call counts in memory for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self._lock = threading.Lock()
        self._ids = itertools.count()  # next() on it is atomic under the GIL
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._root_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A pool thread starts with an empty stack; the span that handed it
        # work is the innermost one open on the thread that waits for it.
        root = self._stacks.get(self._root_thread)
        try:
            return root[-1] if root else None
        except IndexError:
            return None

    def span(self, name: str, fn, read_attributes=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "thread": threading.get_ident(),
                "run": self.run_id,
            }
            if read_attributes is not None:
                try:
                    record.update(read_attributes(result))
                except AttributeError:  # the result changed shape
                    self.absent.add(f"{name}:attributes")
            self.spans.append(record)
            return result

        return wrapper

    def counter(self, name: str, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every configured public name that exists; list the rest."""
        for qualified, read_attributes in SPANS.items():
            self._wrap(qualified, functools.partial(self.span, read_attributes=read_attributes))
        for qualified in COUNTS:
            self._wrap(qualified, self.counter)

    def _wrap(self, qualified: str, make) -> None:
        name = qualified.removeprefix("tml.")
        module_name, _, attr = qualified.rpartition(".")
        owner_name, _, cls_name = module_name.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            module = None
        if module is not None and callable(original):
            wrapped = make(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tml" or mod_name.startswith("tml."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
            return
        # A property of a public class, such as MatrixSample.normalized_view.
        try:
            cls = getattr(importlib.import_module(owner_name), cls_name)
            prop = vars(cls)[attr]
        except (ImportError, AttributeError, KeyError, TypeError):
            self.absent.add(name)
            return
        if not isinstance(prop, property):
            self.absent.add(name)
            return
        setattr(cls, attr, property(make(name, prop.fget), doc=prop.__doc__))

    def dump(self, path: str) -> None:
        payload = {
            "run": self.run_id,
            "spans": self.spans,
            "counts": self.counts,
            "absent": sorted(self.absent),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------- span arithmetic ----------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children on pool threads overlap each other; their union is what the
    parent waited for, so it is subtracted once.
    """
    by_id = {sp["id"]: sp for sp in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        parent = by_id.get(sp["parent"])
        if parent is not None:
            clipped = (max(sp["start"], parent["start"]), min(sp["end"], parent["end"]))
            if clipped[1] > clipped[0]:
                children.setdefault(parent["id"], []).append(clipped)
    return {
        sp["id"]: (sp["end"] - sp["start"]) - _union_length(children.get(sp["id"], []))
        for sp in spans
    }


def nesting_violations(spans: list[dict]) -> int:
    """Spans that name a parent but do not lie inside its interval."""
    by_id = {sp["id"]: sp for sp in spans}
    bad = 0
    for sp in spans:
        if sp["parent"] is None:
            continue
        parent = by_id.get(sp["parent"])
        if parent is None or sp["start"] < parent["start"] or sp["end"] > parent["end"]:
            bad += 1
    return bad


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- <tml cli arguments>", file=sys.stderr)
        return 1
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    import tml.cli  # imports every module the CLI uses

    tracer.install()
    code = tml.cli.main(cli_args)  # the wrapped main: the root span
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
