"""In-memory span tracer that wraps gltcomb's public functions from outside.

Every wrapped call becomes a span (id, name, start, end, parent id, op id).
Self time is a span's duration minus the time its traced child calls take,
wrapper overhead included, so tracer work counts towards no self time.  The
hottest leaf functions run millions of times per workload, so only the first
SPAN_CAP spans of each name are kept for the trace file; calls, total time
and self time are aggregated for every call.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

SPAN_CAP = 20_000

# (module, public function) of each layer boundary; "Class.method" for methods.
TRACED = [
    ("partitions", "bipartitions_up_to"),
    ("diagrams", "build_diagram"),
    ("diagrams", "same_core"),
    ("caps", "mult_D"),
    ("caps", "build_caps"),
    ("caps", "D_matrix"),
    ("caps", "D_inverse"),
    ("lr", "lr_coeff"),
    ("lr", "B_matrix"),
    ("lr", "schur_product_oracle"),
    ("matrices", "BipartitionMatrix.mul"),
    ("matrices", "BipartitionMatrix.restrict"),
    ("matrices", "unitriangular_inverse"),
    ("grothendieck", "a_matrix"),
    ("grothendieck", "b_matrix"),
    ("grothendieck", "a_tilde"),
    ("grothendieck", "hom_dim"),
    ("fock", "apply_generator"),
    ("cli", "main"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = None
        self.stack: list[list] = []  # [span id, time covered by children]
        self.next_id = 0
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s, spans kept, raised]

    def wrap(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            enter = perf_counter()
            parent = stack[-1][0] if stack else None
            self.next_id += 1
            frame = [self.next_id, 0.0]
            stack.append(frame)
            try:
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    stats[4] += 1
                    raise
                finally:
                    end = perf_counter()
                    stack.pop()
                    dur = end - start
                    stats[0] += 1
                    stats[1] += dur
                    stats[2] += dur - frame[1]
                    if stats[3] < SPAN_CAP:
                        stats[3] += 1
                        spans.append((frame[0], name, start, end, parent, self.op_id))
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                # The parent is charged for this whole call, wrapper and hook
                # included, so tracer work lands in no span's self time.
                if stack:
                    stack[-1][1] += perf_counter() - enter

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run fn as a root span (one benchmark op)."""
        return self.wrap(name, fn)(*args, **kwargs)


def _rebind(orig, wrapper) -> None:
    """Point every gltcomb binding of orig (module globals, re-exports,
    module-level lists such as verify.ALL_CHECKS) at wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gltcomb" or mod_name.startswith("gltcomb.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
            elif isinstance(val, list):
                val[:] = [wrapper if x is orig else x for x in val]


def install(tracer: Tracer, hooks: dict) -> None:
    """Wrap every TRACED function and every verify.check_* function.
    hooks maps a span name to on_result(args, result)."""
    targets = list(TRACED)
    verify = importlib.import_module("gltcomb.verify")
    targets += [("verify", n) for n, v in vars(verify).items()
                if n.startswith("check_") and callable(v)]
    # A function the library no longer has is not wrapped; run.py reads its
    # calls and self time as 0.
    for mod_name, attr in targets:
        mod = importlib.import_module(f"gltcomb.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            name = f"{mod_name}.{meth}"
            setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], hooks.get(name)))
        elif hasattr(mod, attr):
            name = f"{mod_name}.{attr}"
            orig = getattr(mod, attr)
            _rebind(orig, tracer.wrap(name, orig, hooks.get(name)))
