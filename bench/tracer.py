"""Outside-in tracer: wraps public krallzeros functions without touching the package.

Each target function is replaced at every module binding that holds it (the
defining module, modules that imported it by name, the package namespace);
a method is replaced on its class. Every call records a span
(name, start, end, parent, cell) in memory. `uninstall` puts the original
objects back. A target missing from the package, for instance after a
refactor renamed it, is listed in `absent` instead of raising.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (layer module, function or Class.method), as the per-layer metrics name them.
TARGETS = (
    ("families", "build_family"),
    ("families", "operator_of"),
    ("families", "inner_product"),
    ("families", "moment"),
    ("rootfinding", "zeros"),
    ("rootfinding", "NodeSet.refined"),
    ("matrices", "diffmats_exact"),
    ("matrices", "collocation_exact"),
    ("matrices", "christoffel_numbers"),
    ("matrices", "quadrature_exactness"),
    ("matrices", "transition"),
    ("matrices", "similarity_check"),
    ("matrices", "diffmat"),
    ("matrices", "collocation_rep"),
    ("matrices", "collocation_rep_simplified"),
    ("identities", "verify_eigenpairs"),
    ("identities", "verify_power"),
    ("identities", "verify_fourth_order"),
    ("identities", "verify_family_identity"),
    ("identities", "discriminate_variants"),
    ("identities", "spectrum_report"),
    ("identities", "equally_spaced_nodes"),
    ("cli", "main"),
)

# Functions whose distinct-input share is recorded: the work a per-cell cache saves.
KEYED = ("families.build_family", "rootfinding.zeros", "matrices.collocation_exact")

NAME, START, END, PARENT, CELL = range(5)


def input_key(value):
    """A hashable stand-in for an argument, equal for equal inputs."""
    if isinstance(value, (list, tuple)):
        return tuple(input_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, input_key(v)) for k, v in value.items()))
    nodes = getattr(value, "nodes", None)
    if isinstance(nodes, tuple):  # a NodeSet: its points identify it
        return ("nodes", nodes)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def _cell_from_args(args) -> str | None:
    """spec label + N from a call's positional arguments, when they name both.

    A node set gives both (its spec and its size); otherwise N is the first
    int argument after a spec, or the degree of a polynomial argument.
    """
    for a in args:
        if isinstance(getattr(a, "nodes", None), tuple) and getattr(a, "spec", None) is not None:
            return f"{a.spec.label()}:{len(a.nodes)}"
    spec = next((a for a in args if hasattr(a, "label") and hasattr(a, "family")), None)
    if spec is None:
        return None
    n = next((a for a in args if isinstance(a, int) and not isinstance(a, bool)), None)
    if n is None:
        n = next((a.degree for a in args if hasattr(a, "coeffs") and hasattr(a, "degree")), None)
    return None if n is None else f"{spec.label()}:{n}"


class Tracer:
    def __init__(self, package: str = "krallzeros", targets=TARGETS):
        self.package = package
        self.targets = targets
        self.spans: list[list] = []
        self.cell: str | None = None  # set by a workload loop that knows its cell
        self.absent: list[str] = []
        self.inputs: dict[str, list] = {name: [] for name in KEYED}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items()) if m is not None and (name == self.package or name.startswith(self.package + "."))]
        for layer, qualname in self.targets:
            name = f"{layer}.{qualname}"
            module = sys.modules.get(f"{self.package}.{layer}")
            owner_path, _, attr = qualname.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_path:  # a method: replace it on its class only
                self._replace(owner, attr, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, binding, wrapper)
        return self

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keyed = self.inputs.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and spans[parent][CELL] is not None:
                cell = spans[parent][CELL]
            else:
                cell = self.cell or _cell_from_args(args)
            if keyed is not None:
                keyed.append(input_key((args, kwargs)))
            span = [name, 0.0, 0.0, parent, cell]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls and self_s per target, unique_ratio for KEYED; absent targets read 0."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        calls, self_s = Counter(), Counter()
        for span, inner in zip(self.spans, child_time):
            calls[span[NAME]] += 1
            self_s[span[NAME]] += span[END] - span[START] - inner
        out = {}
        for layer, qualname in self.targets:
            name = f"{layer}.{qualname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, keys in self.inputs.items():
            out[f"{name}.unique_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for i, (name, start, end, parent, cell) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "cell": cell}) + "\n")
