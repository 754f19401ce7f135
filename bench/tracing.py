"""Per-layer tracing from outside the library.

Wrappers replace the public functions of each layer at every module
that holds a reference to them, found by identity, so calls made through
``from .lp import solve_lp`` in another module are traced as well. The
library's source is not edited, and ``Tracer.installed`` puts every
original back on exit.

A span records calls, busy time and self time (busy time minus the time
of the traced calls it made). An LP is attributed to the innermost
enclosing call site: balance, direction, equalized (the second LP of
``direction(canonicalize=True)``), tight or zero_sum. ``lp.failed`` counts
each LpNumericalError once, whether solve_lp raised it or a traced caller
did on an LP that ended other than OPTIMAL.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LP_SITES = ("balance", "direction", "equalized", "tight", "zero_sum")
DFM_CASES = ("1none", "2none", "3A", "3B", "4A", "4B")

# (defining module, function, span name, LP site it opens or None)
SPANS = (
    ("lp", "solve_zero_sum", "lp.solve_zero_sum", "zero_sum"),
    ("descent", "find_stationary", "descent.find_stationary", None),
    ("descent", "balance", "descent.balance", "balance"),
    ("descent", "direction", "descent.direction", "direction"),
    ("descent", "_equalized_dual_weights", "descent.equalized", "equalized"),
    ("descent", "line_search", "descent.line_search", None),
    ("adjust", "adjust_ts", "adjust.adjust_ts", None),
    ("adjust", "adjust_boundary_min", "adjust.adjust_boundary_min", None),
    ("adjust", "adjust_linear", "adjust.adjust_linear", None),
    ("dfm", "dfm_adjust", "dfm.dfm_adjust", None),
    ("dfm", "segment_min_f", "dfm.segment_min_f", None),
    ("generator", "generate_tight", "generator.generate_tight", "tight"),
    ("generator", "verify_tight", "generator.verify_tight", None),
)


def lp_cells(lp) -> int:
    """Rows x columns of the phase-2 tableau, computed from the LinearProgram.

    Rows are the constraints plus one per finite upper bound; columns are
    the variables, one more per free variable, and one slack per row.
    """
    rows = len(lp.constraints) + sum(u is not None for u in lp.upper)
    cols = lp.objective.size + sum(lo is None for lo in lp.lower) + rows
    return rows * cols


class Tracer:
    """Spans and counters for the layers of one imported package ``nd``."""

    def __init__(self, nd):
        self.nd = nd
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy s, self s
        self.counts = Counter()
        self.sites: dict[str, list[str]] = {}  # wrapped name -> patched modules
        # One frame per open span: [time of traced child calls, LP site].
        self._stack: list[list] = []

    def _call(self, name, site, fn, args, kwargs):
        """Run fn inside span ``name``; ``site`` None inherits the caller's."""
        stack = self._stack
        frame = [0.0, site or (stack[-1][1] if stack else "other")]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            rec = self.spans[name]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[0]
            if stack:
                stack[-1][0] += dt

    def _count_lp_error(self, err):
        """Count an LpNumericalError once, however many traced spans it leaves."""
        if not getattr(err, "_traced", False):
            err._traced = True
            self.counts["lp.failed"] += 1

    def _span(self, name, fn, site=None, after=None):
        errors = self.nd.lp.LpNumericalError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = self._call(name, site, fn, args, kwargs)
            except errors as err:
                self._count_lp_error(err)
                raise
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _solve_lp(self, fn):
        stack, counts = self._stack, self.counts
        errors = self.nd.lp.LpNumericalError
        infeasible = self.nd.lp.INFEASIBLE

        @functools.wraps(fn)
        def wrapper(lp):
            site = stack[-1][1] if stack else "other"
            counts[f"lp.{site}.cells"] += lp_cells(lp)
            try:
                sol = self._call(f"lp.{site}", site, fn, (lp,), {})
            except errors as err:
                self._count_lp_error(err)
                raise
            if sol.status == infeasible:
                counts["lp.infeasible"] += 1
            return sol

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_balance(self, args, kwargs, result):
        if result is (args[1] if len(args) > 1 else kwargs.get("p")):
            self.counts["descent.balance.skipped"] += 1

    def _after_find_stationary(self, args, kwargs, sp):
        self.counts["descent.iterations"] += sp.iterations

    def _after_dfm_adjust(self, args, kwargs, trace):
        self.counts[f"dfm.case.{trace.case}{trace.branch}"] += 1
        self.counts["dfm.fallback"] += bool(trace.fallback)

    def _after_generate_tight(self, args, kwargs, insts):
        self.counts["generator.instances"] += len(insts)
        self.counts["generator.feasible"] += bool(insts)

    def _wrappers(self):
        nd = self.nd
        after = {
            "balance": self._after_balance,
            "find_stationary": self._after_find_stationary,
            "dfm_adjust": self._after_dfm_adjust,
            "generate_tight": self._after_generate_tight,
        }
        out = [(nd.lp.solve_lp, self._solve_lp(nd.lp.solve_lp)),
               (nd.game.regrets, self._counted("game.regrets", nd.game.regrets))]
        for module, fname, name, site in SPANS:
            fn = getattr(getattr(nd, module), fname)
            out.append((fn, self._span(name, fn, site, after.get(fname))))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to each wrapped function; restore on exit."""
        patched = []
        try:
            for fn, wrapper in self._wrappers():
                where = []
                for modname, module in list(sys.modules.items()):
                    if modname != "nashdescent" and not modname.startswith("nashdescent."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, fn))
                            where.append(modname)
                self.sites[fn.__name__] = sorted(where)
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def calls(self, name: str) -> int:
        """Calls of a span or counter; zero for one that never fired."""
        if name in self.spans:
            return self.spans[name][0]
        return self.counts.get(name, 0)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics as {name: (value, unit)}."""
        spans, counts = self.spans, self.counts

        def calls(name):
            return spans[name][0] / ops if name in spans else 0.0

        def busy(name):
            return spans[name][1] / ops if name in spans else 0.0

        def own(name):
            return spans[name][2] / ops if name in spans else 0.0

        def per_op(name):
            return counts.get(name, 0) / ops

        out = {}
        lp_calls = 0
        for site in LP_SITES:
            lp_calls += spans[f"lp.{site}"][0] if f"lp.{site}" in spans else 0
            out[f"lp.{site}.calls"] = (calls(f"lp.{site}"), "1/op")
            out[f"lp.{site}.s"] = (busy(f"lp.{site}"), "s/op")
            out[f"lp.{site}.cells"] = (per_op(f"lp.{site}.cells"), "cells/op")
        out["lp.failed"] = (per_op("lp.failed"), "1/op")
        out["lp.infeasible_share"] = (
            counts.get("lp.infeasible", 0) / lp_calls if lp_calls else 0.0, "share")
        out["descent.find_stationary.s"] = (busy("descent.find_stationary"), "s/op")
        out["descent.find_stationary.self_s"] = (own("descent.find_stationary"), "s/op")
        out["descent.iterations_per_op"] = (per_op("descent.iterations"), "1/op")
        out["descent.lp_per_op"] = (
            calls("lp.balance") + calls("lp.direction") + calls("lp.equalized"), "1/op")
        out["descent.balance.calls"] = (calls("descent.balance"), "1/op")
        out["descent.balance.skipped"] = (per_op("descent.balance.skipped"), "1/op")
        out["descent.balance.s"] = (busy("descent.balance"), "s/op")
        out["descent.direction.calls"] = (calls("descent.direction"), "1/op")
        out["descent.direction.s"] = (busy("descent.direction"), "s/op")
        out["descent.line_search.s"] = (busy("descent.line_search"), "s/op")
        for name in ("adjust_ts", "adjust_boundary_min", "adjust_linear"):
            out[f"adjust.{name}.s"] = (busy(f"adjust.{name}"), "s/op")
        out["dfm.dfm_adjust.s"] = (busy("dfm.dfm_adjust"), "s/op")
        out["dfm.dfm_adjust.self_s"] = (own("dfm.dfm_adjust"), "s/op")
        out["dfm.segment_min_f.calls"] = (calls("dfm.segment_min_f"), "1/op")
        out["dfm.segment_min_f.s"] = (busy("dfm.segment_min_f"), "s/op")
        for case in DFM_CASES:
            out[f"dfm.case.{case}"] = (per_op(f"dfm.case.{case}"), "1/op")
        out["dfm.fallback"] = (per_op("dfm.fallback"), "1/op")
        out["generator.generate_tight.s"] = (busy("generator.generate_tight"), "s/op")
        out["generator.generate_tight.self_s"] = (own("generator.generate_tight"), "s/op")
        out["generator.verify_tight.s"] = (busy("generator.verify_tight"), "s/op")
        draws = spans["generator.generate_tight"][0] if "generator.generate_tight" in spans else 0
        out["generator.feasible_share"] = (
            counts.get("generator.feasible", 0) / draws if draws else 0.0, "share")
        out["generator.instances"] = (per_op("generator.instances"), "1/op")
        out["game.regrets.calls"] = (per_op("game.regrets"), "1/op")
        return out
