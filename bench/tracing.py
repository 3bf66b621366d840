"""Per-layer tracing of shimura4, installed from outside the package.

The tracer wraps public functions and methods of the shimura4 modules. A
span wrapper records (name, start, end, parent) in memory; a counter
wrapper only counts calls, for hot methods where a span would cost more
than the work it measures. A wrapped function is replaced under every name
it is bound to in a loaded shimura4 module (``from .x import f`` makes a
second binding), and a method under every name in its class that refers to
it (``__rmul__ = __mul__``). Nothing in the package is edited.

The dump written by `Tracer.dump` is turned into per-layer metrics by
`layer_values`, which takes self time as a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (span name, module, attribute); "Class.method" patches the class.
SPANS = (
    ("families.c7_discriminant", "families", "c7_discriminant"),
    ("families.apply_reduction", "families", "apply_reduction"),
    ("families.t1_fiber_split_c7", "families", "t1_fiber_split_c7"),
    ("multipoly.discriminant", "multipoly", "discriminant"),
    ("multipoly.resultant", "multipoly", "resultant"),
    ("multipoly.substitute", "multipoly", "MultiPoly.substitute"),
    ("multipoly.exact_div", "multipoly", "MultiPoly.exact_div"),
    ("intfactor.factor_integer", "intfactor", "factor_integer"),
    ("numberfield.field_2cos", "numberfield", "field_2cos"),
    ("numberfield.sign_at_embedding", "numberfield",
     "NumberFieldElem.sign_at_embedding"),
    ("quaternion.uniformizer_triple", "quaternion", "uniformizer_triple"),
    ("quaternion.projective_order", "quaternion", "Quaternion.projective_order"),
    ("quaternion.split_real_places", "quaternion",
     "QuaternionAlgebra.split_real_places"),
    ("quaternion.matrix_embedding", "quaternion", "matrix_embedding"),
    ("trianglestacks.tessellate", "trianglestacks", "tessellate"),
    ("cmtables.verify_table", "cmtables", "verify_table"),
)

# (counter name, module, attribute, span the call must run inside or None)
COUNTERS = (
    ("numberfield.refine_embedding_calls", "numberfield",
     "NumberField.refine_embedding", None),
    ("numberfield.elem_mul_calls", "numberfield", "NumberFieldElem.__mul__", None),
    ("quaternion.mul_calls", "quaternion", "Quaternion.__mul__", None),
    ("trianglestacks.dedup_comparisons", "trianglestacks", "mat_dist",
     "trianglestacks.tessellate"),
)

# counters fed from a span's return value: span name -> (counter, value of result)
TALLIES = {
    "trianglestacks.tessellate": ("trianglestacks.tiles", lambda count: count),
    "cmtables.verify_table": ("cmtables.rows", lambda rep: rep.row_count),
}

SUITE_SPAN = "cli.suite."


class Tracer:
    """Installs span and counter wrappers and keeps what they record."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []         # indices of the open spans
        self._open = Counter()   # span name -> number of open spans
        self._patches = []       # (owner, attribute, original), for uninstall

    def _span(self, name, fn):
        spans, stack, open_, clock = self.spans, self._stack, self._open, time.perf_counter
        tally = TALLIES.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_[name] -= 1
                stack.pop()
                spans[index][2] = clock()
            if tally is not None:
                counts[tally[0]] += tally[1](result)
            return result
        return wrapper

    def _counter(self, name, fn, inside):
        counts, open_ = self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inside is None or open_[inside]:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, module, qualname, make):
        mod = importlib.import_module(f"shimura4.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                _warn_missing(module, qualname)
                return
            wrapper = make(original)
            for key, value in list(vars(cls).items()):
                if value is original:
                    self._patch(cls, key, wrapper)
            return
        original = getattr(mod, qualname, None)
        if original is None:
            _warn_missing(module, qualname)
            return
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if name == "shimura4" or name.startswith("shimura4."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def install(self) -> None:
        """Wrap every traced function; imports all shimura4 modules first."""
        cli = importlib.import_module("shimura4.cli")
        for _, module, _ in SPANS:
            importlib.import_module(f"shimura4.{module}")
        for name, module, qualname in SPANS:
            self._patch_everywhere(module, qualname,
                                   lambda fn, name=name: self._span(name, fn))
        for name, module, qualname, inside in COUNTERS:
            self._patch_everywhere(
                module, qualname,
                lambda fn, name=name, inside=inside: self._counter(name, fn, inside))
        suites = cli.SUITES
        for suite, fn in list(suites.items()):
            self._patches.append((suites, suite, fn))
            suites[suite] = self._span(SUITE_SPAN + suite, fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


def _warn_missing(module: str, qualname: str) -> None:
    print(f"trace: shimura4.{module}.{qualname} not found; its metrics read 0",
          file=sys.stderr)


def layer_values(dump: dict) -> dict:
    """Per-layer metrics of one traced run: `<span>_s` is summed self time,
    `<span>_calls` the number of spans, `cli.suite_s.<suite>` the self time
    of a suite, and each counter under its own name."""
    spans = dump["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s, calls = Counter(), Counter()
    for (name, start, end, _), child in zip(spans, covered):
        self_s[name] += end - start - child
        calls[name] += 1
    values = dict(dump["counts"])
    for name in self_s:
        if name.startswith(SUITE_SPAN):
            values["cli.suite_s." + name[len(SUITE_SPAN):]] = self_s[name]
        else:
            values[name + "_s"] = self_s[name]
            values[name + "_calls"] = calls[name]
    return values
