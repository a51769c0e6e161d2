"""Span tracing at genfit's module boundaries, installed from outside the library.

Every function a genfit module imports from another genfit module is replaced,
in the importing module's namespace, by a wrapper that records one span
(layer, start, end, parent).  So is ``mps_fit.spacing_objective``, which
``fit`` reaches through its own module, and so are the entry points the
benchmark calls.  Nothing under ``src/`` changes: uninstalling puts every
original binding back.

Spans are kept in flat arrays while the run lasts and written out once at the
end.  A layer's self time is the summed duration of its spans minus the part
covered by their direct children.  A call *into* a layer is a span whose
parent belongs to another layer (or to no layer), so a layer calling itself
is counted once.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from array import array

import numpy as np

# genfit modules in dependency order; each is one layer
LAYERS = (
    "special_functions",
    "base_distributions",
    "family_transforms",
    "mps_fit",
    "optimizers",
    "gof",
    "datasets",
    "cli",
    "selftest",
)

# registry lookups and parameter plumbing: cheap, and not a layer's work, so
# their time stays in the caller's self time
_NOT_SPANNED = frozenset(
    {"get_base", "get_family", "n_total_params", "split_params", "resolve_method"}
)

# library-internal calls that stay inside one module but mark a layer's
# unit of work, so they get spans of their own: one objective evaluation, and
# one optimizer run (the first run plus each feasible restart)
_INTRA = (("mps_fit", "spacing_objective"), ("optimizers", "_run_once"))

# spans whose return value is also counted: evaluations that came out finite
_COUNT_FINITE = frozenset({"mps_fit.spacing_objective"})

# the functions the benchmark itself calls, spanned where they are defined
ENTRY_POINTS = (
    ("mps_fit", "fit"),
    ("gof", "full_report"),
    ("family_transforms", "family_quantile"),
    ("family_transforms", "family_cdf"),
    ("family_transforms", "family_pdf"),
)


def _elements(args):
    """Array length of a call's data argument (the first array-like one)."""
    for a in args[:3]:
        if isinstance(a, np.ndarray):
            return a.size
    return 1


class Tracer:
    """Records spans at the patched boundaries; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.elems = array("q")
        self.finite: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name):
        nid = self._intern(span_name)
        stack = self._stack
        starts, ends, parents = self.start, self.end, self.parent
        names, elems = self.name_id, self.elems
        clock = time.perf_counter
        count_finite = span_name in _COUNT_FINITE
        finite = self.finite
        finite.setdefault(span_name, 0)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            elems.append(_elements(args))
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_finite and math.isfinite(out):
                finite[span_name] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    # --- installing --------------------------------------------------------

    def _patch(self, module, attr, span_name):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(original, span_name))

    def install(self):
        mods = {name: importlib.import_module(f"genfit.{name}") for name in LAYERS}
        for caller, cmod in mods.items():
            for callee, lmod in mods.items():
                if callee == caller:
                    continue
                for attr in getattr(lmod, "__all__", ()):
                    fn = getattr(lmod, attr, None)
                    if (
                        attr not in _NOT_SPANNED
                        and inspect.isfunction(fn)
                        and getattr(cmod, attr, None) is fn
                    ):
                        self._patch(cmod, attr, f"{callee}.{attr}")
        for layer, attr in ENTRY_POINTS:
            self._patch(mods[layer], attr, f"{layer}.{attr}")
        for layer, attr in _INTRA:
            # internal names may go away in a refactor; their counts then read 0
            if hasattr(mods[layer], attr):
                self._patch(mods[layer], attr, f"{layer}.{attr}")

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- analysis ----------------------------------------------------------

    def columns(self):
        """Spans as numpy columns: name id, start, end, parent, elements."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.elems, dtype=np.int64).copy(),
        )

    def write(self, path):
        """Write every span to a compressed ``.npz`` file."""
        nid, start, end, parent, elems = self.columns()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=nid, start=start,
            end=end, parent=parent, elems=elems,
        )

    def summary(self):
        """Per-layer totals over all spans recorded so far.

        Returns ``{layer: {...}}`` with entry ``calls``, inclusive seconds of
        those entries, ``self_s``, entry ``elements``, and a per-span-name
        breakdown over all spans of that name, entries or not (``by_name``:
        calls, inclusive seconds, elements, finite results where counted).
        """
        nid, start, end, parent, elems = self.columns()
        layer_of_name = np.array(
            [LAYERS.index(n.split(".", 1)[0]) for n in self.names] or [0],
            dtype=np.int32,
        )
        out = {
            layer: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "elements": 0, "by_name": {}}
            for layer in LAYERS
        }
        if nid.size == 0:
            return out
        dur = end - start
        layer = layer_of_name[nid]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=nid.size
        )
        self_time = dur - child_time
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        entry = parent_layer != layer
        for li, lname in enumerate(LAYERS):
            mine = layer == li
            ent = mine & entry
            d = out[lname]
            d["calls"] = int(np.count_nonzero(ent))
            d["incl_s"] = float(dur[ent].sum())
            d["self_s"] = float(self_time[mine].sum())
            d["elements"] = int(elems[ent].sum())
        for i, name in enumerate(self.names):
            sel = nid == i
            if not sel.any():
                continue
            out[name.split(".", 1)[0]]["by_name"][name] = {
                "calls": int(np.count_nonzero(sel)),
                "incl_s": float(dur[sel].sum()),
                "elements": int(elems[sel].sum()),
                "finite": self.finite.get(name, 0),
            }
        return out
