"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` wraps, at run time, the public functions of each
``lpacket`` module and the public methods, properties and constructors of
the classes the module defines.  A name re-imported into another module
(``cli`` takes ``main_multiplicity`` from ``recipe``, ``seesaw`` takes
``fj_eta``, ...) is replaced there too, so every call path goes through
the wrapper.  ``uninstall`` puts every original back.  Nothing under
``src/`` is edited.

Each wrapped call is a span.  Spans nest on one stack (the program is
single-threaded); a span's self time is its duration minus the time its
child spans cover, and is added to the span's group.  Spans are folded
into per-group totals as they close rather than kept, so a traced run of
millions of calls stays small.  Counts are made at the same boundaries.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "dsl", "chars", "params", "component", "epsilon", "theta",
          "recipe", "seesaw", "serialize")

# span group of a wrapped function, where it is not simply its layer
_GROUPS = {
    ("dsl", None): "dsl.parse",
    ("seesaw", "seesaw_pairs"): "seesaw.transport",
    ("seesaw", "random_instance"): "seesaw.instance_build",
    ("seesaw", "merged_instance"): "seesaw.instance_build",
    ("seesaw", None): "seesaw.suite",
}

# dunder methods that do a layer's work; the generated __eq__, __hash__
# and __repr__ are left to the caller's span
_DUNDERS = ("__init__", "__mul__", "__pow__")


def _group(layer: str, name: str) -> str:
    return _GROUPS.get((layer, name)) or _GROUPS.get((layer, None)) or layer


class Tracer:
    """Span stack, per-group self time and the layer counters."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.group_calls: Counter = Counter()
        self.parse_bytes = 0
        self.characters_enumerated = 0
        self.consultations = 0
        self.distinct_keys = 0
        self.instances_built = 0
        self.distinct_instances = 0
        self._stack: List[List[float]] = []
        self._sign_depth = 0
        self._answering = None
        self._request_keys: set = set()
        self._request_instances: set = set()
        self._patches: List[Tuple[object, str, object]] = []

    # -- request boundaries ---------------------------------------------------

    def end_request(self) -> None:
        """Distinct oracle keys and instances are counted per request."""
        self.distinct_keys += len(self._request_keys)
        self.distinct_instances += len(self._request_instances)
        self._request_keys = set()
        self._request_instances = set()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn: Callable, group: str, name: str,
              hook: Optional[Callable] = None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        group_calls = self.group_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            group_calls[group] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[group] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                result = hook(args, kwargs, result)
            return result

        return traced

    def _wrap_sign(self, fn: Callable, group: str, name: str) -> Callable:
        """Oracle consultations: the outermost ``sign`` call of a nest (a
        recording backend forwards to the backend it wraps) is one, and its
        key is told apart per answering (innermost) backend object.  The
        request's key set holds that object until the request ends, so two
        backends never share an identity."""
        inner = self._wrap(fn, group, name)
        tracer = self

        @functools.wraps(fn)
        def sign(backend, key):
            outermost = tracer._sign_depth == 0
            tracer._answering = backend
            tracer._sign_depth += 1
            try:
                return inner(backend, key)
            finally:
                tracer._sign_depth -= 1
                if outermost:
                    tracer.consultations += 1
                    tracer._request_keys.add((tracer._answering, key))

        return sign

    # -- hooks: each sees a call's arguments and returns its result -------

    def _count_parse(self, args, kwargs, result):
        text = args[0] if args else kwargs.get("text", "")
        self.parse_bytes += len(text.encode("utf-8"))
        return result

    def _count_characters(self, args, kwargs, result):
        if hasattr(result, "__len__"):
            self.characters_enumerated += len(result)
            return result
        return self._counted(result)

    def _counted(self, characters):
        # a lazy enumeration is counted as it is consumed
        for eta in characters:
            self.characters_enumerated += 1
            yield eta

    def _instance_hook(self, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.instances_built += 1
            self._request_instances.add(
                (bound.arguments.get("seed"), bound.arguments.get("parity"))
            )
            return result

        return hook

    def _hook_for(self, layer: str, name: str, fn: Callable):
        if (layer, name) == ("dsl", "parse"):
            return self._count_parse
        if (layer, name) == ("component", "enumerate_characters"):
            return self._count_characters
        if layer == "seesaw" and name in ("random_instance", "merged_instance"):
            return self._instance_hook(fn)
        return None

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            group = _group(layer, attr)
            if attr == "sign" and inspect.isfunction(value):
                self._patch(cls, attr, self._wrap_sign(value, group, name))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, group, name))
            elif isinstance(value, classmethod):
                wrapped = self._wrap(value.__func__, group, name)
                self._patch(cls, attr, classmethod(wrapped))
            elif isinstance(value, staticmethod):
                wrapped = self._wrap(value.__func__, group, name)
                self._patch(cls, attr, staticmethod(wrapped))
            elif isinstance(value, property) and value.fget is not None:
                wrapped = self._wrap(value.fget, group, name)
                self._patch(cls, attr, property(wrapped, value.fset,
                                                value.fdel, value.__doc__))

    def install(self, package: str = "lpacket") -> None:
        """Wrap every layer module of the already imported ``package``."""
        replaced: Dict[int, Tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:  # a layer the program no longer has
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped = self._wrap(
                        value, _group(layer, attr), f"{layer}.{attr}",
                        self._hook_for(layer, attr, value),
                    )
                    replaced[id(value)] = (value, wrapped)
                elif inspect.isclass(value) and not issubclass(
                    value, (enum.Enum, BaseException)
                ):
                    self._wrap_class(layer, value)
        # re-imported names: every module global bound to a wrapped function
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == package or modname.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results --------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls = self.calls

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = {
            "cli.self_s": (self.self_s["cli"], "s"),
            "dsl.parse.self_s": (self.self_s["dsl.parse"], "s"),
            "dsl.parse.bytes": (self.parse_bytes, "bytes"),
            "chars.self_s": (self.self_s["chars"], "s"),
            "chars.ops": (self.group_calls["chars"], "count"),
            "params.self_s": (self.self_s["params"], "s"),
            "params.mk_parameter.calls": (calls["params.mk_parameter"], "count"),
            "component.self_s": (self.self_s["component"], "s"),
            "component.characters_enumerated": (
                self.characters_enumerated, "count"),
            "epsilon.self_s": (self.self_s["epsilon"], "s"),
            "epsilon.term_key.calls": (calls["epsilon.term_key"], "count"),
            "epsilon.oracle.consultations": (self.consultations, "count"),
            "epsilon.oracle.distinct_keys": (self.distinct_keys, "count"),
            "epsilon.oracle.useful_ratio": (
                ratio(self.distinct_keys, self.consultations), "ratio"),
            "theta.self_s": (self.self_s["theta"], "s"),
            "theta.lift_builds": (
                calls["theta.theta_up1_param"] + calls["theta.theta_up2_param"],
                "count"),
            "theta.char_transfers": (
                calls["theta.theta_up1_char"] + calls["theta.theta_up2_char"],
                "count"),
            "recipe.self_s": (self.self_s["recipe"], "s"),
            "recipe.main_multiplicity.calls": (
                calls["recipe.main_multiplicity"], "count"),
            "seesaw.transport.self_s": (self.self_s["seesaw.transport"], "s"),
            "seesaw.instance_build.self_s": (
                self.self_s["seesaw.instance_build"], "s"),
            "seesaw.suite.self_s": (self.self_s["seesaw.suite"], "s"),
            "seesaw.instances_built": (self.instances_built, "count"),
            "seesaw.instance_reuse_ratio": (
                ratio(self.distinct_instances, self.instances_built), "ratio"),
            "serialize.self_s": (self.self_s["serialize"], "s"),
        }
        return out
