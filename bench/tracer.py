"""Span tracing of the lltpaths layers, installed from outside the package.

`Tracer.install()` wraps the public functions of every `lltpaths` module
(and the arithmetic methods of `CoeffQT` and `SymFunc`) and rebinds every
name the original is reachable through: the defining module, re-imports in
other modules (`relations.llt`, `cli.recursion_evaluate`, ...), class
aliases (`CoeffQT.__radd__` is `__add__`) and module-level dict tables
(`cli.SUITES`).  `unwrapped_references()` lists any name that still reaches
an original, so a missed re-import fails loudly instead of under-counting.

Each call records a span (name, start, end, parent span) in flat in-memory
arrays; self time is the span's duration minus the duration of its direct
child spans.  Per-layer aggregates are kept alongside, so the numbers do not
depend on the span buffer.  `write_spans()` dumps the buffer at the end.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

MODULES = ("coeffring", "partitions", "symfunc", "schroeder", "llt", "relations", "schur", "harmonics", "cli")

# Class methods that are traced, with the layer name each one reports under.
METHODS = {
    ("coeffring", "CoeffQT"): {
        "__add__": "add",
        "__sub__": "sub",
        "__rsub__": "sub",
        "__neg__": "neg",
        "__mul__": "mul",
        "__pow__": "pow",
        "exact_div": "exact_div",
        "shift_q": "shift_q",
    },
    ("symfunc", "SymFunc"): {
        "__add__": "add",
        "__sub__": "sub",
        "__mul__": "mul",
        "scale": "scale",
        "map_coeffs": "map_coeffs",
        "shift_q": "shift_q",
        "convert": "convert",
        "omega": "omega",
        "pleth_q_minus_1": "pleth_q_minus_1",
    },
}

# Layers whose calls are also keyed by path word to measure input reuse.
REPEAT_LAYERS = ("llt.llt", "llt.orientation_e_expansion", "relations.recursion_evaluate")


def layer_name(module: str, name: str) -> str:
    """The per-layer metric prefix of a module function: the verify_* suites share one."""
    return f"{module}.verify" if name.startswith("verify_") else f"{module}.{name}"


def _word(arg) -> str:
    return arg if isinstance(arg, str) else arg.word


def _integral(x) -> bool:
    terms = getattr(x, "terms", None)
    if terms is None:
        return getattr(x, "denominator", 1) == 1
    return all(v.denominator == 1 for v in terms.values())


def _value_at_q1(f) -> int:
    """Sum of every coefficient of a SymFunc at q = t = 1."""
    return int(sum(v for c in f.coeffs.values() for v in c.terms.values()))


class LayerStat:
    __slots__ = ("calls", "self_s", "repeats", "seen", "integral", "colorings", "masks", "instances")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.repeats = 0
        self.seen: set[str] = set()
        self.integral = 0
        self.colorings = 0
        self.masks = 0
        self.instances = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self.span_names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack: list[list] = []  # [child_time, span_index] per open span
        self._wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "lltpaths") -> None:
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        for short, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self._wrap(fn, f"{short}.{name}", layer_name(short, name))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for attr, layer in methods.items():
                self._wrap(vars(cls)[attr], f"{short}.{cls_name}.{attr}", f"{short}.{layer}")
        for mod in [sys.modules[package], *modules.values()]:
            self._rebind(mod)

    def _rebind(self, mod) -> None:
        """Point every global, class attribute and dict-table value at the wrappers."""
        for name, value in list(vars(mod).items()):
            hit = self._wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    hit = self._wrapped.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for attr, item in list(vars(value).items()):
                    hit = self._wrapped.get(id(item))
                    if hit is not None and hit[0] is item:
                        setattr(value, attr, hit[1])

    def unwrapped_references(self, package: str = "lltpaths") -> list[str]:
        """Names in the package that still reach an original function."""
        originals = {id(orig) for orig, _ in self._wrapped.values()}
        missed = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, value in vars(mod).items():
                if id(value) in originals:
                    missed.append(f"{mod_name}.{name}")
                elif isinstance(value, dict):
                    missed += [f"{mod_name}.{name}[{k!r}]" for k, v in value.items() if id(v) in originals]
                elif inspect.isclass(value):
                    missed += [f"{mod_name}.{name}.{a}" for a, v in vars(value).items() if id(v) in originals]
        return missed

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, span_name: str, layer: str) -> None:
        if id(fn) in self._wrapped:
            return
        stat = self.stats.setdefault(layer, LayerStat())
        span_id = len(self.span_names)
        self.span_names.append(span_name)
        stack = self._stack
        starts, ends, name_ids, parents = self.starts, self.ends, self.name_ids, self.parents
        clock = time.perf_counter
        hook = self._hook_for(layer, stat)

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1][1] if stack else -1)
            name_ids.append(span_id)
            ends.append(0.0)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[index] = end
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        self._wrapped[id(fn)] = (fn, traced)

    def _hook_for(self, layer: str, stat: LayerStat):
        if layer == "coeffring.mul":
            def hook(args, result):
                if _integral(args[0]) and _integral(args[1]):
                    stat.integral += 1
            return hook
        if layer == "relations.verify":
            def hook(args, result):
                stat.instances += result.instances
            return hook
        if layer in REPEAT_LAYERS:
            def hook(args, result):
                word = _word(args[0])
                if word in stat.seen:
                    stat.repeats += 1
                    return
                stat.seen.add(word)
                if layer == "llt.llt":
                    stat.colorings += _value_at_q1(result)
                elif layer == "llt.orientation_e_expansion":
                    stat.masks += _value_at_q1(result)
            return hook
        return None

    # -- results --------------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        out = {}
        for layer, st in self.stats.items():
            row = {"calls": st.calls, "self_s": st.self_s}
            if layer == "coeffring.mul":
                row["integral_frac"] = st.integral / st.calls if st.calls else 0.0
            if layer in REPEAT_LAYERS:
                row["repeat_frac"] = st.repeats / st.calls if st.calls else 0.0
            if layer == "llt.llt":
                row["colorings"] = st.colorings
            if layer == "llt.orientation_e_expansion":
                row["masks"] = st.masks
            if layer == "relations.verify":
                row["instances"] = st.instances
            out[layer] = row
        return out

    def write_spans(self, path) -> int:
        """Write the span buffer as TSV (index, parent, name, start_s, end_s); return the count."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            names = self.span_names
            for i, (parent, nid, start, end) in enumerate(zip(self.parents, self.name_ids, self.starts, self.ends)):
                fh.write(f"{i}\t{parent}\t{names[nid]}\t{start:.9f}\t{end:.9f}\n")
        return len(self.starts)
