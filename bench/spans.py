"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each vknot layer module, and the
public and operator methods of the classes they define, at every place
they are bound (``vknot.moves.canonicalize`` as well as
``vknot.gauss_code.canonicalize``).  While enabled, each call records a
span ``[name, start_ns, end_ns, parent_index]`` and bumps the counters of
its hook.  Generator functions and properties are left alone, so their
time counts toward whoever consumes them.  Leaving the ``with`` block puts
every original object back.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter_ns

PACKAGE = "vknot"
LAYERS = ("cli", "gauss_code", "coloring", "invariant", "laurent", "moves",
          "diagram_ops", "biquandle")

# dataclass-generated dunders live in "<string>"; these are skipped even
# when written by hand, because they are plumbing rather than work
_SKIPPED_DUNDERS = {"__init__", "__post_init__", "__repr__", "__eq__",
                    "__hash__", "__getitem__"}


def self_times(spans) -> dict[str, int]:
    """Per span name, the summed duration minus the time covered by each
    span's direct children.  Spans are ``(name, start, end, parent)`` with
    ``parent`` an index into ``spans`` or -1; calls nest, so children of one
    span never overlap."""
    covered = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, int] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] = out.get(name, 0) + (end - start) - covered[i]
    return out


def _canonicalize_counts(args, kwargs, result):
    comps = (args[0] if args else kwargs["code"]).components
    if not comps:
        return {}
    space = math.factorial(len(comps))
    for comp in comps:
        space *= max(len(comp), 1)
    return {"search_space": space}


def _output_bytes(args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs.get("stdout")
    if out is None or not hasattr(out, "getvalue"):
        return {}
    return {"output_bytes": len(out.getvalue().encode())}


def _search_counts(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return {"tuples": n ** 6, "found": len(result)}


# span name -> function(args, kwargs, result) -> {counter: increment}
HOOKS = {
    "gauss_code.canonicalize": _canonicalize_counts,
    "gauss_code.resolutions": lambda a, k, r: {"codes": len(r)},
    "moves.find_move_sites": lambda a, k, r: {"sites": len(r)},
    "biquandle.search_affine": _search_counts,
    "biquandle.enumerate_colorings_fast":
        lambda a, k, r: {"colorings": len(r)},
    "cli.execute": _output_bytes,
}


def _defined_here(fn, module) -> bool:
    code = getattr(fn, "__code__", None)
    return (code is not None and code.co_filename == module.__file__
            and not inspect.isgeneratorfunction(fn))


def traceable():
    """Yield ``(span_name, owner, attribute, original)`` for every function
    and method the tracer wraps at its home."""
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and _defined_here(value, module):
                yield f"{layer}.{attr}", module, attr, value
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for mattr, raw in sorted(vars(value).items()):
                    if mattr.startswith("_") and (
                            not mattr.endswith("__") or mattr in _SKIPPED_DUNDERS):
                        continue
                    fn = raw.__func__ if isinstance(
                        raw, (staticmethod, classmethod)) else raw
                    if inspect.isfunction(fn) and _defined_here(fn, module):
                        yield f"{layer}.{attr}.{mattr}", value, mattr, raw


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    Spans are recorded only while ``enabled`` is true, so the benchmark can
    run its output checks with the wrappers installed without counting
    them.  ``fold()`` turns the spans held in memory into per-name self
    time and call counts and clears them.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        try:
            for name, owner, attr, raw in list(traceable()):
                wrapped = self._wrap(name, raw)
                self._set(owner, attr, raw, wrapped)
                if inspect.isfunction(raw):
                    for module in modules:
                        for other, value in list(vars(module).items()):
                            if value is raw and (module, other) != (owner, attr):
                                self._set(module, other, raw, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _set(self, owner, attr, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, raw):
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(self._wrap(name, raw.__func__))
        fn = raw
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    ckey = f"{name}.{key}"
                    tracer.counters[ckey] = tracer.counters.get(ckey, 0) + inc
            return result

        return wrapper

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._stack.pop()

    def fold(self) -> None:
        for name, ns in self_times(self.spans).items():
            self.self_ns[name] = self.self_ns.get(name, 0) + ns
        for name, _start, _end, _parent in self.spans:
            self.calls[name] = self.calls.get(name, 0) + 1
        self.spans.clear()
