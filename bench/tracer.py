"""Traced in-process replay of benchmark jobs, for the per-layer metrics.

``Tracer.instrument()`` rebinds the public functions and methods of each
``qwhitney`` module to span recorders, in every module namespace that holds
them (``cauchy`` imports ``stirling_first_row`` and ``rising_factorial`` by
name, ``cli`` imports the triangle and series builders), and puts the
originals back on exit.  Each span stores its label, start, end and parent
span in flat arrays, in call order; a job's spans are the subtree under its
``cli.main`` root.  Self times are worked out when the pass ends.  A
span's self time is its duration minus the time its child spans cover, and
the recorder's own bookkeeping after a call counts as covered, so it lands in
no layer.

The package source is not touched; the replay calls ``qwhitney.cli.main``
with the same argv a subprocess job gets, clearing the package's caches
before each job so that every job starts as cold as a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback
import types
from array import array
from collections import Counter

from jobs import SUITES

# label -> layer.  A label is "<module>.<name>" or "<module>.<Class>.<method>";
# labels absent from the package are skipped.
LAYERS = {
    "poly.BiPoly.__mul__": "poly.mul",
    "poly.BiPoly.__pow__": "poly.mul",
    "poly.BiPoly.__add__": "poly.add",
    "poly.BiPoly.__radd__": "poly.add",
    "poly.BiPoly.__sub__": "poly.add",
    "poly.BiPoly.__rsub__": "poly.add",
    "poly.BiPoly.__neg__": "poly.add",
    "poly.BiPoly.__rmul__": "poly.add",
    "poly.BiPoly.scale": "poly.add",
    "poly.BiPoly.subst_q": "poly.subst",
    "poly.BiPoly.subst_r": "poly.subst",
    "poly.BiPoly.eval_at": "poly.eval",
    "poly.BiPoly.to_text": "poly.render",
    "poly.BiPoly.to_latex": "poly.render",
    "poly.BiPoly.to_records": "poly.render",
    "poly.XPoly.__add__": "poly.xpoly",
    "poly.XPoly.scale": "poly.xpoly",
    "poly.XPoly.mul_linear": "poly.xpoly",
    "poly.XPoly.subst_x": "poly.xpoly",
    "poly.XPoly.integrate01": "poly.xpoly",
    "triangles.whitney_first": "triangles.symbolic",
    "triangles.whitney_second": "triangles.symbolic",
    "triangles.stirling_first": "triangles.symbolic",
    "triangles.r_stirling_first": "triangles.symbolic",
    "triangles.triangle": "triangles.symbolic",
    "triangles.whitney_first_values": "triangles.values",
    "triangles.whitney_second_values": "triangles.values",
    "triangles.rising_factorial": "triangles.factorial",
    "triangles.falling_factorial": "triangles.factorial",
    "triangles.falling_factorial_x": "triangles.factorial",
    "triangles.stirling_first_row": "triangles.stirling",
    "triangles.whitney_first_cheon": "triangles.stirling",
    "cauchy.cauchy_first": "cauchy.assemble",
    "cauchy.cauchy_second": "cauchy.assemble",
    "cauchy.cauchy_poly": "cauchy.assemble",
    "cauchy.cauchy_number": "cauchy.assemble",
    "cauchy.cauchy_first_integral": "cauchy.oracle",
    "cauchy.cauchy_second_integral": "cauchy.oracle",
    "cauchy.cauchy_first_via_stirling": "cauchy.oracle",
    "cauchy.q_cauchy_number": "cauchy.oracle",
    "cauchy.shift_counterexample": "cauchy.identity",
    "cauchy.inversion_counterexample": "cauchy.identity",
    "cauchy.cheon_counterexample": "cauchy.identity",
    "cauchy.classical_shift_counterexample": "cauchy.identity",
    "series.Series.__mul__": "series.mul",
    "series.Series.exp": "series.exp",
    "series.Series.__add__": "series.egf",
    "series.Series.__sub__": "series.egf",
    "series.Series.scale": "series.egf",
    "series.Series.scale_poly": "series.egf",
    "series.log1p_qt_over_q": "series.egf",
    "series.binomial_power": "series.egf",
    "series.expm1_div": "series.egf",
    "series.whitney_column_egf": "series.egf",
    "series.cauchy_first_egf": "series.egf",
    "series.cauchy_second_egf": "series.egf",
    "series.egf_term": "series.egf",
    "suites.run_suite": "suites.run",
    "cli.main": "cli.main",
    "cli.build_parser": "cli.parse",
}

# The two package caches whose cache_info() is reported, by metric prefix.
CACHES = {
    "triangles.stirling_cache": ("triangles", "stirling_first_row"),
    "triangles.subst_cache": ("triangles", "_substituted_rows"),
}

_COUNTED_LAYERS = ("poly.mul", "poly.add", "poly.subst")
_ROW_BUILDERS = ("cauchy.cauchy_first", "cauchy.cauchy_second")


def _modules():
    import qwhitney
    from qwhitney import arith, cauchy, cli, poly, series, suites, triangles

    return {
        "qwhitney": qwhitney, "arith": arith, "poly": poly, "triangles": triangles,
        "cauchy": cauchy, "series": series, "suites": suites, "cli": cli,
    }


def _poly_terms(p):
    terms = getattr(p, "_terms", None)
    return terms if terms is not None else dict(p.sorted_terms())


class Tracer:
    """Span recorder for one traced pass over a job list."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.covered_end = array("d")
        self._stack = [-1]
        self.job_id = -1
        self.counts: Counter = Counter()
        self.rows_seen: set = set()

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, label: str, after=None):
        lid = self._label_ids.setdefault(label, len(self.labels))
        if lid == len(self.labels):
            self.labels.append(label)
        stack = self._stack
        perf = time.perf_counter
        t_label, t_parent = self.label, self.parent
        t_start, t_end, t_cov = self.start, self.end, self.covered_end

        def traced(*args, **kwargs):
            idx = len(t_start)
            t_label.append(lid)
            t_parent.append(stack[-1])
            t_start.append(0.0)
            t_end.append(0.0)
            t_cov.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                t_start[idx] = t0
                t_end[idx] = t1
                t_cov[idx] = t1
            if after is not None:
                after(result, args)
                t_cov[idx] = perf()
            return result

        return traced

    def _after(self, label: str, layer: str):
        counts = self.counts
        if layer in _COUNTED_LAYERS:
            def after(result, args):
                terms = _poly_terms(result)
                counts["poly.terms_out"] += len(terms)
                for c in terms.values():
                    bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    if bits > counts["poly.coeff_bits_max"]:
                        counts["poly.coeff_bits_max"] = bits
            return after
        if layer == "triangles.symbolic" and label != "triangles.triangle":
            def after(result, args):
                n_max = result.n_max
                counts["triangles.symbolic.entries"] += (n_max + 1) * (n_max + 2) // 2
            return after
        if layer == "triangles.values":
            def after(result, args):
                bits = counts["triangles.values.bits_max"]
                for row in result:
                    counts["triangles.values.entries"] += len(row)
                    for v in row:
                        bits = max(bits, abs(v.numerator).bit_length(), v.denominator.bit_length())
                counts["triangles.values.bits_max"] = bits
            return after
        if label in _ROW_BUILDERS:
            def after(result, args):
                counts["cauchy.rows_built"] += 1
                self.rows_seen.add((self.job_id, label, args[0]))
            return after
        if layer.startswith("suites.") and layer != "suites.run":
            def after(result, args):
                counts[f"{layer}.checks"] += getattr(result, "checks", 0)
            return after
        if label == "cli.build_parser":
            def after(parser, args):
                parser.parse_args = self._wrap(parser.parse_args, "cli.parse_args")
            return after
        return None

    @contextlib.contextmanager
    def instrument(self):
        """Rebind every traced name for the duration of the block."""
        modules = _modules()
        restore: list[tuple[object, str, object]] = []
        wrappers: dict[int, object] = {}
        try:
            for label, layer in LAYERS.items():
                module_name, _, attr = label.partition(".")
                owner = modules[module_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(original, label, self._after(label, layer))
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if isinstance(owner, types.ModuleType):
                    wrappers[id(original)] = (original, wrapper)
            # Rebind names imported into other module namespaces.
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        restore.append((module, name, value))
                        setattr(module, name, hit[1])
            table = getattr(modules["suites"], "SUITES", {})
            for name in SUITES:
                if name in table:
                    original = table[name]
                    restore.append((table, name, original))
                    label = f"suites.{name}"
                    table[name] = self._wrap(original, label, self._after(label, label))
            yield self
        finally:
            for owner, name, original in reversed(restore):
                if isinstance(owner, dict):
                    owner[name] = original
                else:
                    setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(self seconds by layer, inclusive seconds by layer, calls by layer)."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.covered_end[i] - self.start[i]
        own: Counter = Counter()
        total: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            layer = LAYER_OF_LABEL[self.labels[self.label[i]]]
            duration = self.end[i] - self.start[i]
            own[layer] += duration - covered[i]
            total[layer] += duration
            calls[layer] += 1
        return dict(own), dict(total), calls


LAYER_OF_LABEL: dict[str, str] = dict(
    LAYERS, **{"cli.parse_args": "cli.parse"}, **{f"suites.{s}": f"suites.{s}" for s in SUITES}
)


def cache_functions() -> dict[str, object]:
    """The reported caches, by metric prefix, as currently bound in the package."""
    modules = _modules()
    found = {}
    for prefix, (module_name, attr) in CACHES.items():
        fn = getattr(modules[module_name], attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            found[prefix] = fn
    return found


def all_caches() -> list:
    """Every lru_cache in the package, cleared before each job."""
    found = {}
    for module in _modules().values():
        for value in vars(module).values():
            if callable(value) and hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


def replay(jobs, tracer: Tracer | None = None):
    """Run each job through qwhitney.cli.main in this process.

    Returns (seconds, exit code, stdout bytes) per job, plus the summed
    cache_info() of the reported caches.  With a tracer, the run is
    instrumented and the tracer's job_id is the index of the running job.
    An exception escaping cli.main counts as exit code 1, as it would for
    a separate interpreter.
    """
    from qwhitney import cli

    caches = cache_functions()
    clearable = all_caches()
    cache_totals: Counter = Counter()
    results = []
    ctx = tracer.instrument() if tracer is not None else contextlib.nullcontext()
    with ctx:
        for i, job in enumerate(jobs):
            for fn in clearable:
                fn.cache_clear()
            if tracer is not None:
                tracer.job_id = i
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(list(job.argv))
                except Exception:
                    traceback.print_exc()
                    code = 1
                seconds = time.perf_counter() - t0
            results.append((seconds, code, out.getvalue().encode()))
            for prefix, fn in caches.items():
                info = fn.cache_info()
                cache_totals[f"{prefix}.hits"] += info.hits
                cache_totals[f"{prefix}.misses"] += info.misses
                size_key = f"{prefix}.currsize"
                cache_totals[size_key] = max(cache_totals[size_key], info.currsize)
    for fn in clearable:
        fn.cache_clear()
    return results, cache_totals
