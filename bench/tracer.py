"""Outside-in tracer: wraps the library's public functions in timing spans.

Nothing in the library changes.  ``Tracer.install`` replaces every
``lacuna.*`` module binding of each public function defined in a layer
module (``from .x import f`` copies the name, so one function can have
several bindings), a few methods, and the bench's box instances'
``eval``/``eval_range``; ``Tracer.restore`` puts every original back.
Spans are kept in memory as parallel lists and written out by the caller.
"""

import importlib
import sys
import time

LAYERS = ("prime_oracle", "blackbox", "densepoly", "sparsest_shift", "sparse_interp", "modular_core")

# Scalar helpers that ProgramBox calls for every constant of every query: a
# span there would cost more than the work it times.  Their time shows as
# self time of the caller.
UNTRACED = frozenset({"modular_core.frac_mod", "modular_core.inv_mod", "modular_core.xgcd"})

# Methods traced on their class: the library calls these, not the
# module-level functions that delegate to them.
METHODS = (
    ("prime_oracle", "PrimeStream", ("next_prime", "discard")),
    ("sparse_interp", "PrimeImage", ("from_poly",)),
)


def layer_modules():
    """The library's modules, taken from ``sys.modules``.

    ``import lacuna.sparsest_shift as m`` yields the function the package
    re-exports under the submodule's name, so modules are looked up by name.
    """
    for layer in LAYERS:
        importlib.import_module(f"lacuna.{layer}")
    return {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "lacuna" or name.startswith("lacuna."))
    }


def public_functions(modules):
    """{id(function): (function, span name)} for each layer's own public functions."""
    out = {}
    for layer in LAYERS:
        mod = modules[f"lacuna.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            name = f"{layer}.{attr}"
            if getattr(obj, "__module__", None) == mod.__name__ and name not in UNTRACED:
                out[id(obj)] = (obj, name)
    return out


class Tracer:
    """Span recorder.  Span i has a name id, start and end in ns, the index
    of its parent span (-1 for none), the instance being solved, and
    whether it raised."""

    layers = LAYERS

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self.instance = []
        self.raised = []
        self.current_instance = -1
        self.probes = {}  # span name -> callable(args, kwargs, result), run on return
        self._stack = [-1]
        self._saved = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        """fn inside a span named ``name``."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack, probes = self._stack, self.probes
        span_name, start, end, parent, instance, raised = (
            self.span_name, self.start, self.end, self.parent, self.instance, self.raised)

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            instance.append(self.current_instance)
            raised.append(False)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = True
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            probe = probes.get(name)
            if probe is not None:
                probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------- installing and restoring bindings ----------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def install(self, boxes):
        """Wrap every binding of every public layer function, the traced
        methods, and the boxes' ``eval``/``eval_range``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = layer_modules()
        targets = public_functions(modules)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._replace(mod, attr, self.wrap(obj, hit[1]))
        for layer, cls_name, attrs in METHODS:
            cls = getattr(modules[f"lacuna.{layer}"], cls_name)
            for attr in attrs:
                raw = vars(cls)[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    self._replace(cls, attr, classmethod(self.wrap(raw.__func__, name)))
                else:
                    self._replace(cls, attr, self.wrap(raw, name))
        for box in boxes:
            for attr in ("eval", "eval_range"):
                self._replace(box, attr, self.wrap(getattr(box, attr), f"blackbox.{attr}"))

    def restore(self):
        """Put every original binding back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)  # drops the instance attribute shadowing the method
            else:
                setattr(owner, attr, original)

    @staticmethod
    def bindings(boxes):
        """Everything ``install`` can touch, to check that ``restore`` undid it."""
        modules = layer_modules()
        snap = {}
        for name, mod in modules.items():
            snap.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
        for layer, cls_name, attrs in METHODS:
            cls = getattr(modules[f"lacuna.{layer}"], cls_name)
            snap.update({(layer, cls_name, a): vars(cls)[a] for a in attrs})
        for i, box in enumerate(boxes):
            snap.update({("box", i, a): vars(box).get(a) for a in ("eval", "eval_range")})
        return snap

    # ---------------- reading spans ----------------

    def self_times(self, lo, hi):
        """Durations and self times (duration minus children) of spans lo..hi-1."""
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        own = list(dur)
        for i in range(lo, hi):
            par = self.parent[i]
            if par >= lo:
                own[par - lo] -= dur[i - lo]
        return dur, own

    def dump(self):
        """Columnar span table for writing out."""
        return {
            "names": self.names,
            "name": self.span_name,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "instance": self.instance,
            "raised": self.raised,
        }
