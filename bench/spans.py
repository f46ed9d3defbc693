"""Span tracer that times hilbloc's layers from outside the package.

``install`` wraps the public functions of each layer where they are looked
up.  The engine binds most of them with ``from .module import name``, so a
wrapper placed only on the defining module would miss the calls made from
``integrals``, ``tautological`` or ``cli``.  Every ``hilbloc`` module that
holds a reference to an original function therefore gets the wrapper.

A span is ``[name, start, end, parent]``: perf_counter seconds and the
index of the span that was open when it started (-1 for none).  Spans stay
in memory and are written out once, when the process ends.  Calls in one
process run one after another, so a span's self time is its duration minus
the sum of its direct children's durations.

Limits of measuring from outside:

* ``enumerate_fixed_points`` is a generator.  The call itself does no
  work, so each ``next()`` on it is one span, and every item yielded is
  marked as one fixed point.
* ``--threads`` runs the localization chunks in a process pool.  Workers
  are forked with the wrappers in place, but their spans stay in the
  workers' memory and are lost.  Their work shows up as self time of the
  parent span that waits on the pool (``integrals.integrate`` or
  ``integrals.chi_theta``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Spans whose self time is the localization kernel: the Fraction
# arithmetic over fixed points that is not spent in a traced helper.
KERNEL_SPANS = ("integrals.integrate", "integrals.chi_theta")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.marks: list[tuple[str, int]] = []
        self.realize_keys: set[str] = set()
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = time.perf_counter()

    def mark(self, name: str) -> None:
        """Count an event and remember the span it happened in."""
        self.counts[name] += 1
        self.marks.append((name, self._open[-1] if self._open else -1))

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self._exit(idx)

        return wrapper

    def iterated(self, name: str, item: str, fn):
        """Wrap a generator function: one span per next(), one mark per item."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.mark(item)
                yield value

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "marks": self.marks,
            "realize_distinct": len(self.realize_keys),
        }


def install(tracer: Tracer) -> None:
    """Wrap the layer functions in every loaded hilbloc module."""
    from hilbloc import cache, hilb, integrals, symbolic, tautological, toric

    def dual_specialized(compute, *args, **kwargs):
        tracer.mark("symbolic.dual_specialized")

        def attempt(z):
            tracer.mark("symbolic.specialization")
            try:
                return compute(z)
            except symbolic.PoleError:
                tracer.mark("symbolic.pole_retry")
                raise

        return original_dual(attempt, *args, **kwargs)

    original_dual = symbolic.dual_specialized
    realize = tracer.timed("toric.realize_split_model", toric.realize_split_model)

    def realize_split_model(surface, *args, **kwargs):
        tracer.realize_keys.add(repr((surface.name, args, sorted(kwargs.items()))))
        return realize(surface, *args, **kwargs)

    wrappers = {
        hilb.enumerate_fixed_points: tracer.iterated(
            "hilb.enumerate_fixed_points", "hilb.fixed_point",
            hilb.enumerate_fixed_points,
        ),
        symbolic.dual_specialized: functools.wraps(original_dual)(dual_specialized),
        toric.realize_split_model: functools.wraps(toric.realize_split_model)(
            realize_split_model
        ),
    }
    for fn in (
        hilb.tangent_weights, hilb.taut_weights, hilb.theta_weight,
        symbolic.series_exp, symbolic.signed_chern_coefficients,
        integrals.integrate, integrals.chi_theta,
        tautological.virtual_integral, tautological.universal_poly,
        toric.chi_surface,
    ):
        layer = fn.__module__.rsplit(".", 1)[-1]
        wrappers[fn] = tracer.timed(f"{layer}.{fn.__name__}", fn)

    by_id = {id(fn): (fn, w) for fn, w in wrappers.items()}
    for modname, module in list(sys.modules.items()):
        if modname != "hilbloc" and not modname.startswith("hilbloc."):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    get = tracer.timed("cache.get", cache.ResultCache.get)

    def cache_get(self, request):
        value = get(self, request)
        if self.enabled:
            tracer.mark("cache.hit" if value is not None else "cache.miss")
        return value

    cache.ResultCache.get = functools.wraps(get)(cache_get)
    cache.ResultCache.put = tracer.timed("cache.put", cache.ResultCache.put)
    amb = tautological.AmbientClass
    for method in ("mul_trinomial", "div_trinomial", "__mul__"):
        setattr(amb, method,
                tracer.counted("tautological.ambient_op", getattr(amb, method)))


def summarize(dump: dict) -> dict:
    """Per-name calls, total and self seconds, plus kernel fixed-point work.

    ``total`` counts only the outermost span of each name, so a layer that
    re-enters itself is not counted twice.
    """
    spans = dump["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    for i, (name, _, _, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            total[name] += dur[i]

    # fixed points x specializations summed under each kernel span
    def kernel_of(idx: int) -> int:
        while idx >= 0 and spans[idx][0] not in KERNEL_SPANS:
            idx = spans[idx][3]
        return idx

    per_kernel: dict[int, list[int]] = {}
    for name, idx in dump["marks"]:
        if name not in ("hilb.fixed_point", "symbolic.specialization"):
            continue
        k = kernel_of(idx)
        if k >= 0:
            slot = per_kernel.setdefault(k, [0, 0])
            slot[name == "symbolic.specialization"] += 1
    return {
        "calls": dict(calls),
        "total": dict(total),
        "self": dict(self_s),
        "counts": dump["counts"],
        "realize_distinct": dump["realize_distinct"],
        "fp_evals": sum(fps * specs for fps, specs in per_kernel.values()),
    }


def layer_values(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, summed over the pass's processes."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    distinct = fp_evals = 0
    for s in summaries:
        calls.update(s["calls"])
        total.update(s["total"])
        self_s.update(s["self"])
        counts.update(s["counts"])
        distinct += s["realize_distinct"]
        fp_evals += s["fp_evals"]

    specs = counts["symbolic.specialization"]
    kernel_self = sum(self_s[name] for name in KERNEL_SPANS)
    out = {
        "hilb.fixed_points": counts["hilb.fixed_point"],
        "hilb.enumerate_s": total["hilb.enumerate_fixed_points"],
        "symbolic.dual_specialized.calls": counts["symbolic.dual_specialized"],
        "symbolic.specializations": specs,
        "symbolic.pole_retries": counts["symbolic.pole_retry"],
        "symbolic.spec_useful_ratio":
            2 * counts["symbolic.dual_specialized"] / specs if specs else 0.0,
        "integrals.fp_evals_per_s":
            fp_evals / kernel_self if kernel_self > 0 else 0.0,
        "tautological.ambient_ops": counts["tautological.ambient_op"],
        "tautological.universal_poly.failed":
            counts["tautological.universal_poly.raised"],
        "toric.realize_split_model.distinct": distinct,
        "cache.hits": counts["cache.hit"],
        "cache.misses": counts["cache.miss"],
        "cache.put.calls": calls["cache.put"],
    }
    for name in ("hilb.tangent_weights", "hilb.taut_weights", "hilb.theta_weight",
                 "symbolic.series_exp", "symbolic.signed_chern_coefficients",
                 "tautological.virtual_integral", "toric.realize_split_model",
                 "toric.chi_surface"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    for name in ("integrals.integrate", "integrals.chi_theta",
                 "tautological.virtual_integral"):
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
    out["tautological.universal_poly.s"] = total["tautological.universal_poly"]
    out["cache.get.s"] = total["cache.get"]
    out["cache.put.s"] = total["cache.put"]
    return out
