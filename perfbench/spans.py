"""Span tracing of quiverdu from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records one span per call: name, start, end, parent
span and operation id.  Because quiverdu imports names directly
(``from .rewrite import normal_form``), every module namespace that binds
a wrapped function is patched, not only the defining module.  Methods of
``CycScalar`` and ``RowSpace`` are patched on their classes.
``Tracer.uninstall`` puts every original object back.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its child spans; calls are sequential in
one thread, so child spans never overlap.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
import types
from array import array

MODULES = ("cli", "core", "rewrite", "linalg", "cyclotomic", "gwa",
           "structure", "skewgroup", "hilbert", "iso")

# Class methods traced as layer boundaries.  Trivial predicates
# (__bool__, is_zero, __eq__, __hash__) are left out: a span around them
# costs more than the call itself.
CLASS_METHODS = {
    ("cyclotomic", "CycScalar"): ("__add__", "__neg__", "__sub__", "__mul__",
                                  "__rmul__", "__truediv__", "inverse", "zero",
                                  "one", "from_rational", "zeta_power"),
    ("linalg", "RowSpace"): ("residual", "add", "contains"),
}

# Public functions not traced: the cyclotomic modulus is an lru_cache
# lookup made by every CycScalar constructor, so a span there would
# multiply the span count without marking a layer boundary.
UNTRACED = {"cyclotomic.cyclotomic_polynomial"}

# Metric names for spans whose name differs from "<module>.<function>".
SPAN_ALIASES = {
    "cyclotomic.CycScalar.__mul__": "cyclotomic.mul",
    "cyclotomic.CycScalar.inverse": "cyclotomic.inverse",
    "linalg.RowSpace.add": "linalg.rowspace_add",
}


def _is_traced_function(obj, module_name: str) -> bool:
    # lru_cache wrappers carry __wrapped__ and __module__ like functions.
    target = getattr(obj, "__wrapped__", obj)
    return (isinstance(target, types.FunctionType)
            and target.__module__ == module_name)


def _trial_count(fn):
    sig = inspect.signature(fn)

    def before(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["trials"]
    return before


class Tracer:
    """Records spans around calls into quiverdu; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.op_id = -1
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        # Counters taken at the same boundaries as the spans.
        self.nf_memo_hits = 0
        self.nf_terms_out = 0
        self.rowspace_useful = 0
        self.rowspace_width_max = 0
        self.pwd_trials_requested = 0

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(token, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- hooks for ratios measured where the work happens ----------------

    def _nf_before(self, args, kwargs):
        sys_, path = args[0], args[1]
        if path in sys_._nf_cache:
            self.nf_memo_hits += 1

    def _nf_after(self, token, args, result):
        self.nf_terms_out += len(result.terms)

    def _rowspace_after(self, token, args, result):
        if result:
            self.rowspace_useful += 1
        self.rowspace_width_max = max(self.rowspace_width_max, args[0].width)

    def _pwd_after(self, trials, args, result):
        self.pwd_trials_requested += trials

    # -- patching --------------------------------------------------------

    def install(self, package) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: getattr(package, name) for name in MODULES}
        namespaces = [package, *modules.values()]
        for mod_name, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or f"{mod_name}.{attr}" in UNTRACED
                        or not _is_traced_function(obj, mod.__name__)):
                    continue
                wrapper = self._wrap_function(f"{mod_name}.{attr}", obj)
                for ns in namespaces:
                    for bound_name, bound in list(vars(ns).items()):
                        if bound is obj:
                            self._patch(ns, bound_name, wrapper)
        for (mod_name, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{mod_name}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap_function(name, raw.__func__))
                else:
                    wrapped = self._wrap_function(name, raw)
                self._patch(cls, meth, wrapped)

    def _wrap_function(self, name: str, fn):
        if name == "rewrite.normal_form_path":
            return self._wrap(name, fn, self._nf_before, self._nf_after)
        if name == "linalg.RowSpace.add":
            return self._wrap(name, fn, after=self._rowspace_after)
        if name == "structure.pwd_probe_H":
            return self._wrap(name, fn, _trial_count(fn), self._pwd_after)
        return self._wrap(name, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def edge_count(self, parent: str, child: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        ids = {n: i for i, n in enumerate(self.names)}
        if parent not in ids or child not in ids:
            return 0
        pid, cid = ids[parent], ids[child]
        names, parents = self.span_name, self.span_parent
        return sum(1 for k in range(len(names))
                   if names[k] == cid and parents[k] >= 0 and names[parents[k]] == pid)

    def traced_s(self) -> float:
        """Total duration of root spans: all time spent inside quiverdu."""
        return sum(self.span_end[k] - self.span_start[k]
                   for k in range(len(self.span_name)) if self.span_parent[k] < 0)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name, with aliases applied."""
        out: dict[str, tuple[int, float]] = {}
        for nid, name in enumerate(self.names):
            key = SPAN_ALIASES.get(name, name)
            calls, self_s = out.get(key, (0, 0.0))
            out[key] = (calls + self.calls[nid], self_s + self.self_s[nid])
        return out

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for nid, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_s[nid]
        return out

    def write_spans(self, path) -> None:
        """Gzipped CSV: a JSON list of span names, then one line per span
        with name index, start, end, parent span index and operation id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(self.names) + "\n")
            for k in range(len(self.span_name)):
                fh.write(f"{self.span_name[k]},{self.span_start[k]!r},{self.span_end[k]!r},"
                         f"{self.span_parent[k]},{self.span_op[k]}\n")
