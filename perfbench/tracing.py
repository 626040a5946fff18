"""Per-module spans and counts for the traced run, recorded from outside fockop.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and rebinds
each wrapper under every name any ``fockop`` module holds for the original
(so calls inside a module are traced too), wraps ``ExpPoly.eval_many`` on the
class and the suite functions in ``verify._SUITES``.  ``uninstall`` puts the
originals back.  A span is [name, start, end, parent index]; spans stay in
memory until ``write`` is called at the end of the run.  A span's self time is
its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from fockop.quad import DEFAULT_SPEC

#: per-layer metrics reported by the traced run, with their units
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("linalg.svd.calls", "count"),
    ("linalg.svd.self_s", "s"),
    ("wco.normalize_pair.calls", "count"),
    ("wco.classify.calls", "count"),
    ("wco.classify.self_s", "s"),
    ("wco.norm_bounds.self_s", "s"),
    ("wco.ell_sup.calls", "count"),
    ("wco.ell_sup.self_s", "s"),
    ("wco.ell_at_many.points", "count"),
    ("wco.ell_at_many.self_s", "s"),
    ("funcspace.compose_affine.calls", "count"),
    ("funcspace.compose_affine.terms_out", "count"),
    ("funcspace.compose_affine.self_s", "s"),
    ("funcspace.multiply.calls", "count"),
    ("funcspace.multiply.terms_out", "count"),
    ("funcspace.multiply.self_s", "s"),
    ("funcspace.eval_many.points", "count"),
    ("funcspace.eval_many.self_s", "s"),
    ("quad.fock_norm.closed_calls", "count"),
    ("quad.fock_norm.quad_calls", "count"),
    ("quad.fock_norm.nodes", "count"),
    ("quad.fock_norm.self_s", "s"),
    ("quad.slice_norm.calls", "count"),
    ("carleson.carleson_integral.calls", "count"),
    ("carleson.carleson_integral.self_s", "s"),
    ("carleson.berezin_transform.self_s", "s"),
    ("carleson.pullback_mass.self_s", "s"),
    ("oracle.f2_inner.calls", "count"),
    ("oracle.f2_inner.term_pairs", "count"),
    ("oracle.f2_inner.self_s", "s"),
    ("oracle.f2_matrix.self_s", "s"),
    ("oracle.truncated_essential_upper.self_s", "s"),
    ("oracle.rayleigh_sweep.self_s", "s"),
    ("oracle.compactness_witness.self_s", "s"),
    ("verify.lemmas.s", "s"),
    ("verify.sandwich.s", "s"),
    ("verify.normalization-independence.s", "s"),
    ("verify.witness.s", "s"),
    ("verify.carleson.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _terms_out(counts, name, args, kwargs, result):
    counts[name + ".terms_out"] += len(result.terms)


def _points(counts, name, args, kwargs, result):
    counts[name + ".points"] += int(result.size)


def _term_pairs(counts, name, args, kwargs, result):
    counts[name + ".term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _fock_norm(counts, name, args, kwargs, result):
    if result.mode == "closed_form":
        counts[name + ".closed_calls"] += 1
    elif result.mode == "quadrature":
        # computed, not observed: fock_norm evaluates the tensor Gauss-Hermite
        # rule at k and at the check resolution k2 nodes per real axis
        f = args[0]
        spec = (args[2] if len(args) > 2 else kwargs.get("spec")) or DEFAULT_SPEC
        k = spec.resolve_nodes(f.n)
        k2 = max(8, k // 2)
        if k2 == k:
            k2 = k - 2
        counts[name + ".quad_calls"] += 1
        counts[name + ".nodes"] += k ** (2 * f.n) + k2 ** (2 * f.n)


#: (module, function, extra counter); every target also gets calls and self time
TARGETS = (
    ("cli", "main", None),
    ("linalg", "svd", None),
    ("wco", "normalize_pair", None),
    ("wco", "classify", None),
    ("wco", "norm_bounds", None),
    ("wco", "ell_sup", None),
    ("wco", "ell_at_many", _points),
    ("funcspace", "compose_affine", _terms_out),
    ("funcspace", "multiply", _terms_out),
    ("quad", "fock_norm", _fock_norm),
    ("quad", "slice_norm", None),
    ("carleson", "carleson_integral", None),
    ("carleson", "berezin_transform", None),
    ("carleson", "pullback_mass", None),
    ("oracle", "f2_inner", _term_pairs),
    ("oracle", "f2_matrix", None),
    ("oracle", "truncated_essential_upper", None),
    ("oracle", "rayleigh_sweep", None),
    ("oracle", "compactness_witness", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, name, args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, key, value, setter):
        self._undo.append((setter, owner, key, getattr(owner, key) if setter is setattr else owner[key]))
        setter(owner, key, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "fockop" or name.startswith("fockop.")]
        for mod_name, fn_name, count in TARGETS:
            original = getattr(sys.modules[f"fockop.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper, setattr)
        expoly = sys.modules["fockop.funcspace"].ExpPoly
        self._rebind(expoly, "eval_many", self.wrap("funcspace.eval_many", expoly.eval_many, _points), setattr)
        suites = sys.modules["fockop.verify"]._SUITES
        for suite, fn in list(suites.items()):
            self._rebind(suites, suite, self.wrap(f"verify.{suite}", fn), dict.__setitem__)

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, value = self._undo.pop()
            setter(owner, key, value)

    def totals(self) -> tuple[dict, dict, dict]:
        """(calls, inclusive seconds, self seconds) summed by span name."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
        return calls, incl, own

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Every ``PER_LAYER`` metric but the overhead, per traced round."""
        calls, incl, own = self.totals()
        out = {}
        for metric, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric == "trace.overhead_s":
                continue
            if kind == "calls":
                value = calls[base]
            elif kind == "self_s":
                value = own[base]
            elif kind == "s":
                value = incl[base]
            elif metric == "trace.spans":
                value = len(self.spans)
            else:
                value = self.counts[metric]
            out[metric] = value / rounds
        return out

    def write(self, path) -> None:
        """One JSON line per span: [name, start, end, parent index or -1]."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
