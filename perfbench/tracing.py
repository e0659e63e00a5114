"""Per-layer tracing of the qgl3 engine from outside.

The layers are the modules of ``qgl3``.  ``Tracer.install`` wraps public
functions of each layer and replaces them in every ``qgl3`` module namespace
that holds them (``from qgl3.charring import chi_l`` binds the name in the
importing module too); methods are wrapped on their classes.  Nothing under
``src/`` changes.

Each wrapped call records a span (name, start, end, parent span) in memory.
A layer's self time is its spans' time minus the time of their child spans.
``Weight`` constructions run into the millions, so they are counted, not
traced.  Work counters (operand sizes, tableaux, peel steps, distinct
arguments) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter, defaultdict

# (module, qualified name, metric prefix).  The prefix is the layer name
# followed by the function name; "lattice" spans add up to lattice.self_s.
TRACED = (
    ("qgl3.lattice", "decompose", "lattice.decompose"),
    ("qgl3.lattice", "dominantize", "lattice.dominantize"),
    ("qgl3.kernels", "convolve", "kernels.convolve"),
    ("qgl3.kernels", "ssyt_weight_counts", "kernels.ssyt_weight_counts"),
    ("qgl3.charring", "FormalChar.__mul__", "charring.FormalChar.mul"),
    ("qgl3.charring", "FormalChar.__add__", "charring.FormalChar.add"),
    ("qgl3.charring", "chi_l", "charring.chi_l"),
    ("qgl3.charring", "weyl_char", "charring.weyl_char"),
    ("qgl3.charring", "restricted_simple_char", "charring.restricted_simple_char"),
    ("qgl3.charring", "divide_exact", "charring.divide_exact"),
    ("qgl3.charring", "decompose_into_weyl", "charring.decompose_into_weyl"),
    ("qgl3.charring", "tensor_multiplicity", "charring.tensor_multiplicity"),
    ("qgl3.decomp", "chi_decomposition", "decomp.chi_decomposition"),
    ("qgl3.decomp", "DecompResult.character", "decomp.DecompResult.character"),
    ("qgl3.decomp", "DecompResult.surviving_factors", "decomp.DecompResult.surviving_factors"),
    ("qgl3.decomp", "zhat_factors", "decomp.zhat_factors"),
    ("qgl3.decomp", "zhat_char", "decomp.zhat_char"),
    ("qgl3.structure", "validate_graph", "structure.validate_graph"),
    ("qgl3.structure", "zhat_structure", "structure.zhat_structure"),
    ("qgl3.structure", "nabla_l_filtration", "structure.nabla_l_filtration"),
    ("qgl3.translate", "translated_character", "translate.translated_character"),
    ("qgl3.translate", "translate_onto_wall", "translate.translate_onto_wall"),
    ("qgl3.translate", "translate_nabla_factor_count", "translate.translate_nabla_factor_count"),
    ("qgl3.ext", "ext1_g", "ext.ext1_g"),
    ("qgl3.ext", "ext1_g1", "ext.ext1_g1"),
    ("qgl3.ext", "ext1_g1b", "ext.ext1_g1b"),
    ("qgl3.homs", "hom_exists_mirror", "homs.hom_exists_mirror"),
    ("qgl3.homs", "zhat_head_weight", "homs.zhat_head_weight"),
)

# Arguments whose distinct values are counted: (mu, l) for chi_l, lam for weyl_char.
_DISTINCT_KEY = {
    "charring.chi_l": lambda args: (tuple(args[0]), args[1]),
    "charring.weyl_char": lambda args: tuple(args[0]),
}


# Work counted per call, where the layer has a natural measure of it:
# name -> (counter, f(args, result)).
_WORK = {
    "kernels.convolve": ("mults", lambda args, result: len(args[0]) * len(args[1])),
    # semistandard tableaux of the two-row shape (p, q) in three letters
    "kernels.ssyt_weight_counts": (
        "tableaux", lambda args, result: (args[0] - args[1] + 1) * (args[1] + 1) * (args[0] + 2) // 2
    ),
    "charring.divide_exact": ("terms", lambda args, result: len(result.coeffs)),
    "charring.decompose_into_weyl": ("terms", lambda args, result: len(result)),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent span index or -1)
        self.stack: list[int] = []
        self.sizes: Counter = Counter()
        self.seen: dict[str, set] = {name: set() for name in _DISTINCT_KEY}
        self.repeats: Counter = Counter()
        self.weights_built = 0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import qgl3.cli  # noqa: F401 - loads every engine module

        for module_name, qualname, metric in TRACED:
            module = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                wrapped = self._wrap(original, metric)
                for key, value in list(vars(cls).items()):
                    if value is original:  # FormalChar.__rmul__ is __mul__
                        setattr(cls, key, wrapped)
            else:
                original = getattr(module, qualname)
                self._rebind(original, self._wrap(original, metric))
        self._count_weights()

    def _rebind(self, original, wrapped) -> None:
        for name, module in list(sys.modules.items()):
            if name == "qgl3" or name.startswith("qgl3."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def _wrap(self, fn, metric):
        index = len(self.names)
        self.names.append(metric)
        spans, stack, sizes = self.spans, self.stack, self.sizes
        clock = time.perf_counter_ns
        distinct = _DISTINCT_KEY.get(metric)
        seen = self.seen.get(metric)
        repeats = self.repeats
        work = _WORK.get(metric, (None, None))[1]

        def wrapper(*args, **kwargs):
            if distinct is not None:
                key = distinct(args)
                if key in seen:
                    repeats[metric] += 1
                else:
                    seen.add(key)
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, stack[-1] if stack else -1)
            if work is not None:
                sizes[metric] += work(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count_weights(self) -> None:
        from qgl3.lattice import Weight

        original = Weight.__new__
        tracer = self

        def counted_new(cls, *args, **kwargs):
            tracer.weights_built += 1
            return original(cls, *args, **kwargs)

        Weight.__new__ = counted_new

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self seconds and work counters per traced name, plus the
        self time of every layer (module) as ``<layer>.self_s``."""
        calls = Counter()
        total = defaultdict(int)
        child = defaultdict(int)
        for index, start, end, parent in self.spans:
            calls[index] += 1
            total[index] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        out: dict[str, float] = {"lattice.Weight.new.calls": self.weights_built}
        layer_self = defaultdict(float)
        for index, metric in enumerate(self.names):
            self_s = (total[index] - child[index]) / 1e9
            out[f"{metric}.calls"] = calls[index]
            out[f"{metric}.self_s"] = self_s
            layer_self[metric.split(".")[0]] += self_s
            if metric in _WORK:
                out[f"{metric}.{_WORK[metric][0]}"] = self.sizes[metric]
        for metric in _DISTINCT_KEY:
            out[f"{metric}.distinct"] = len(self.seen[metric])
        n = out["charring.weyl_char.calls"]
        out["charring.weyl_char.hit_ratio"] = self.repeats["charring.weyl_char"] / n if n else 0.0
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        out.update(cache_entries())
        return out

    def write(self, path) -> None:
        """Write every span as CSV: name, start_ns, end_ns, parent span index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            names = self.names
            for i, (index, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{names[index]},{start},{end},{parent}\n")


def cache_entries() -> dict[str, int]:
    """Entries in the engine's character caches, read (never changed) at the
    end of a run.  A cache the engine no longer has reads as 0."""
    from qgl3 import charring

    weyl = getattr(charring, "_weyl_cache", None)
    tables = getattr(charring, "_simple_tables", None)
    return {
        "charring.weyl_cache.entries": len(weyl) if weyl is not None else 0,
        "charring.simple_tables.entries": (
            sum(len(t.cache) for t in tables.values()) if tables is not None else 0
        ),
    }
