"""Run one rankcert command with spans around each layer's entry points.

    python3 perfbench/tracer.py SPANS_FILE ARG...

behaves like ``python3 -m rankcert.cli ARG...`` (same stdout, same exit
code) while the entry points listed in ``ENTRY_POINTS`` are wrapped from
outside: nothing under ``src/`` changes.  Spans are kept in memory; when
the command ends the wrapped attributes are restored and the spans are
written to SPANS_FILE as one JSON document ``{"spans": [...]}``, each span
being ``[name, parent_index, start_s, end_s, info]``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _found(args, kwargs, result):
    return int(result is not None)


def _precision(args, kwargs, result):
    return result.precision


def _labeling_index(args, kwargs, result):
    return result[1].c


def _returned_none(args, kwargs, result):
    return int(result is None)


def _count(args, kwargs, result):
    return len(result)


def _hensel(args, kwargs, result):
    # _hensel_lift_list(p, f, f_list, l): [exponent l, modular factor count]
    f_list = args[2] if len(args) > 2 else kwargs["f_list"]
    exponent = args[3] if len(args) > 3 else kwargs["l"]
    return [exponent, len(f_list)]


# (span name, defining module, attribute, info extracted from the call).
# Each attribute is replaced in every rankcert module namespace that bound
# the same object, so `from .factorq import gf_ddf` callers are traced too.
ENTRY_POINTS = (
    ("certify.point_search", "rankcert.certify", "find_deg1_class", _found),
    ("certroots.isolate", "rankcert.certroots", "isolate_roots", _precision),
    ("weierstrass.label", "rankcert.weierstrass", "build_label_resolvents", _labeling_index),
    ("weierstrass.ball_product", "rankcert.weierstrass", "_resolvent_from_labels", _returned_none),
    ("factorq.sqf_check", "rankcert.factorq", "squarefree_by_reduction", _returned_none),
    ("factorq.coprime_check", "rankcert.factorq", "coprime_by_reduction", _returned_none),
    ("exactpoly.int_gcd", "rankcert.exactpoly", "_zgcd", None),
    ("factorq.ddf", "rankcert.factorq", "gf_ddf", None),
    ("factorq.edf", "rankcert.factorq", "gf_edf", _count),
    ("factorq.hensel", "rankcert.factorq", "_hensel_lift_list", _hensel),
    ("factorq.recombine", "rankcert.factorq", "_zassenhaus", None),
    ("factorq.irreducible", "rankcert.factorq", "is_irreducible_over_q", None),
    ("factorq.factor_over_q", "rankcert.factorq", "factor_over_q", None),
    ("family.exclusions", "rankcert.family", "exclusion_sets", None),
    ("family.fiber", "rankcert.family", "certify_fiber", None),
)

ROOT_SPAN = "cli"


class Tracer:
    """Nested spans of one single-threaded run, recorded in memory."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def call(self, name, fn, args, kwargs, info):
        # a call made directly inside a span of the same name (recursion,
        # as in _hensel_lift_list) belongs to that span
        if self._open and self.spans[self._open[-1]][0] == name:
            return fn(*args, **kwargs)
        rec = [name, self._open[-1] if self._open else -1, 0.0, 0.0, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._open.pop()
        if info is not None:
            rec[4] = info(args, kwargs, result)
        return result

    def _wrapper(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced

    def install(self):
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "rankcert" or key.startswith("rankcert.")
        ]
        for name, module, attr, info in ENTRY_POINTS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrapper(name, original, info)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def restore(self):
        while self._patched:
            m, key, original = self._patched.pop()
            setattr(m, key, original)


def _nearest_rank(sorted_values, q):
    if not sorted_values:
        return 0.0
    k = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(k) - 1]


def layer_metrics(runs) -> dict:
    """Per-layer totals over the span lists of several commands.

    A span's self time is its duration minus the durations of its direct
    children; spans of one command nest properly, so the children never
    overlap.
    """
    self_s, calls, infos = {}, {}, {}
    isolate_in_label = 0
    hensel_under_recombine = [0]
    slow_irreducible = 0
    fiber_ms = []
    for spans in runs:
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _info in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, parent, t0, t1, info) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
            infos.setdefault(name, []).append(info)
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "certroots.isolate" and parent_name == "weierstrass.label":
                isolate_in_label += 1
            if name == "factorq.hensel" and parent_name == "factorq.recombine":
                hensel_under_recombine.append(info[1])
            if name == "family.fiber":
                fiber_ms.append((t1 - t0) * 1000.0)
        # an irreducibility test took the slow path when a factor_over_q
        # span lies below it
        slow = set()
        for name, parent, _t0, _t1, _info in spans:
            k = parent if name == "factorq.factor_over_q" else -1
            while k >= 0 and spans[k][0] != "factorq.irreducible":
                k = spans[k][1]
            if k >= 0:
                slow.add(k)
        slow_irreducible += len(slow)

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def total(name, pick=lambda v: v):
        return sum(pick(v) for v in infos.get(name, ()))

    def top(name, pick=lambda v: v):
        return max((pick(v) for v in infos.get(name, ())), default=0)

    def ratio(a, b):
        return a / b if b else 0.0

    fiber_ms.sort()
    return {
        "certify.point_search.self_s": s("certify.point_search"),
        "certify.point_search.calls": n("certify.point_search"),
        "certify.point_search.found_ratio": ratio(
            total("certify.point_search"), n("certify.point_search")
        ),
        "certroots.isolate.self_s": s("certroots.isolate"),
        "certroots.isolate.calls": n("certroots.isolate"),
        "certroots.isolate.max_bits": top("certroots.isolate"),
        "weierstrass.label.self_s": s("weierstrass.label"),
        "weierstrass.label.attempts": ratio(isolate_in_label, n("weierstrass.label")),
        "weierstrass.label.max_c": top("weierstrass.label"),
        "weierstrass.ball_product.self_s": s("weierstrass.ball_product"),
        "weierstrass.ball_product.calls": n("weierstrass.ball_product"),
        "weierstrass.ball_product.snap_failures": total("weierstrass.ball_product"),
        "factorq.sqf_check.self_s": s("factorq.sqf_check"),
        "factorq.sqf_check.inconclusive": total("factorq.sqf_check"),
        "factorq.coprime_check.self_s": s("factorq.coprime_check"),
        "factorq.coprime_check.inconclusive": total("factorq.coprime_check"),
        "exactpoly.int_gcd.self_s": s("exactpoly.int_gcd"),
        "exactpoly.int_gcd.calls": n("exactpoly.int_gcd"),
        "factorq.ddf.self_s": s("factorq.ddf"),
        "factorq.ddf.calls": n("factorq.ddf"),
        "factorq.edf.self_s": s("factorq.edf"),
        "factorq.edf.factors": total("factorq.edf"),
        "factorq.hensel.self_s": s("factorq.hensel"),
        "factorq.hensel.max_exponent": top("factorq.hensel", lambda v: v[0]),
        "factorq.recombine.self_s": s("factorq.recombine"),
        "factorq.recombine.max_modular_factors": max(hensel_under_recombine),
        "factorq.irreducible.calls": n("factorq.irreducible"),
        "factorq.irreducible.fast_path_ratio": ratio(
            n("factorq.irreducible") - slow_irreducible, n("factorq.irreducible")
        ),
        "factorq.factor_over_q.self_s": s("factorq.factor_over_q"),
        "family.exclusions.self_s": s("family.exclusions"),
        "family.fiber.p50_ms": _nearest_rank(fiber_ms, 50),
        "family.fiber.p95_ms": _nearest_rank(fiber_ms, 95),
        "cli.other.self_s": s(ROOT_SPAN),
    }


def main(argv) -> int:
    spans_file, args = argv[0], argv[1:]
    from rankcert import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call(ROOT_SPAN, cli.main, (args,), {}, None)
    finally:
        tracer.restore()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
