"""Tracing wrappers installed from outside the program.

Each traced public function is replaced by a wrapper that records a span
(name, parent span, start, end) in memory. Modules import these functions by
name, so every alias across the ``walgebras.*`` modules is replaced, and so
is every default argument bound to one (``evaluator=susy_master_bracket``).
The hot kernel dunders (GRat/Scalar/SuperPoly arithmetic) are only counted,
never timed, which bounds the overhead. A target that a refactor renamed or
removed is reported as missing instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from array import array

# Timed spans: "<module>.<qualname>"; a class name traces its __init__.
SPAN_TARGETS = (
    "scalars.solve_linear",
    "superpoly.SuperPoly.deriv",
    "superpoly.SuperPoly.partial",
    "superpoly.SuperPoly.substitute",
    "pva.master_bracket",
    "pva.bracket_oracle",
    "spva.susy_master_bracket",
    "spva.susy_bracket_oracle",
    "liealg.validate_algebra",
    "liealg.dual_bases_F",
    "liealg.dual_bases_f",
    "wclassical.ReductionContext",
    "wclassical.solve_generator",
    "wclassical.solve_all_generators",
    "wclassical.w_bracket_direct",
    "wclassical.w_bracket_closed",
    "wclassical.rewrite_in_generators",
    "swclassical.SUSYReductionContext",
    "swclassical.solve_susy_generator",
    "swclassical.solve_all_susy_generators",
    "swclassical.susy_w_bracket_direct",
    "swclassical.susy_w_bracket_closed",
    "brst.BRSTDifferential.verify",
    "brst.cohomology_generators",
    "brst.brst_bracket_table",
    "brst.check_thm_5_9",
    "cli.main",
)

# Counted, untimed: target -> counter name.
COUNT_TARGETS = (
    ("scalars.GRat.__add__", "scalars.GRat.ops"),
    ("scalars.GRat.__sub__", "scalars.GRat.ops"),
    ("scalars.GRat.__mul__", "scalars.GRat.ops"),
    ("scalars.GRat.__neg__", "scalars.GRat.ops"),
    ("scalars.GRat.__truediv__", "scalars.GRat.ops"),
    ("scalars.Scalar.__mul__", "scalars.Scalar.mul.calls"),
    ("scalars.Scalar.__add__", "scalars.Scalar.add.calls"),
    ("superpoly.SuperPoly.__mul__", "superpoly.SuperPoly.mul.calls"),
    ("superpoly.SuperPoly.__add__", "superpoly.SuperPoly.add.calls"),
)


def _lambda_terms(result):
    return sum(len(p.terms) for p in result.coeffs.values())


def _solve_shape(args, kwargs, result):
    eqs = args[0] if args else kwargs.get("equations")
    unknowns = args[1] if len(args) > 1 else kwargs.get("unknowns")
    out = {}
    if hasattr(eqs, "__len__"):
        out["rows"] = len(eqs)
        out["nnz"] = sum(len(coeffs) for coeffs, _rhs in eqs)
    if hasattr(unknowns, "__len__"):
        out["cols"] = len(unknowns)
    return out


# Extra per-call statistics of some spans: name -> fn(args, kwargs, result).
SPAN_STATS = {
    "scalars.solve_linear": _solve_shape,
    "pva.master_bracket": lambda a, k, r: {"terms_out": _lambda_terms(r)},
    "spva.susy_master_bracket": lambda a, k, r: {"terms_out": _lambda_terms(r)},
}
# Extra statistics of counted dunders: counter -> fn(result) -> int.
COUNT_STATS = {
    "superpoly.SuperPoly.mul.calls":
        ("superpoly.SuperPoly.mul.terms_out", lambda r: len(r.terms)),
}


class Tracer:
    """Spans kept in memory as parallel arrays, plus plain counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []            # span name strings, by id
        self._name_ids = {}
        self.name_of = array("l")  # per span: name id
        self.parent = array("l")   # per span: parent span index or -1
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = {}
        self.stats = {}            # "<span name>.<stat>" -> summed value
        self.missing = []
        self._undo = []

    # -- spans ------------------------------------------------------------
    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def span_wrapper(self, name, fn, stat=None):
        nid = self.name_id(name)
        opn, cls = self.open, self.close
        if stat is None:
            def traced(*args, **kwargs):
                idx = opn(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    cls(idx)
        else:
            stats = self.stats

            def traced(*args, **kwargs):
                idx = opn(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    cls(idx)
                for key, val in stat(args, kwargs, result).items():
                    key = name + "." + key
                    stats[key] = stats.get(key, 0) + val
                return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count_wrapper(self, counter, fn, stat=None):
        counters = self.counters
        counters.setdefault(counter, 0)
        if stat is None:
            def counted(*args):
                counters[counter] += 1
                return fn(*args)
        else:
            key, size = stat
            counters.setdefault(key, 0)

            def counted(*args):
                counters[counter] += 1
                result = fn(*args)
                if result is not NotImplemented:
                    counters[key] += size(result)
                return result
        counted.__wrapped__ = fn
        return counted

    # -- results ------------------------------------------------------------
    def summary(self):
        """Per span name: calls and self seconds; plus counters and stats."""
        calls, self_s = span_totals(self.names, self.name_of, self.parent,
                                    self.start, self.end)
        return {"calls": calls, "self_s": self_s, "counters": dict(self.counters),
                "stats": dict(self.stats), "missing": list(self.missing),
                "spans": len(self.start)}

    def write_spans(self, path):
        """One line per span: index, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n"
                         % (i, self.parent[i], names[self.name_of[i]],
                            self.start[i], self.end[i]))

    # -- installation ---------------------------------------------------------
    def install(self, package="walgebras"):
        """Wrap every target in the imported modules of the package."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and
                   (name == package or name.startswith(package + "."))}
        for target in SPAN_TARGETS:
            self._patch(modules, package, target,
                        lambda fn, t=target: self.span_wrapper(
                            t, fn, SPAN_STATS.get(t)))
        for target, counter in COUNT_TARGETS:
            self._patch(modules, package, target,
                        lambda fn, c=counter: self.count_wrapper(
                            c, fn, COUNT_STATS.get(c)))

    def _patch(self, modules, package, target, make):
        modname, _, qual = target.partition(".")
        mod = modules.get(package + "." + modname)
        parts = qual.split(".")
        owner = mod
        for part in parts[:-1]:
            owner = getattr(owner, part, None) if owner is not None else None
        attr = parts[-1]
        obj = getattr(owner, attr, None) if owner is not None else None
        if obj is None:
            self.missing.append(target)
            return
        if isinstance(obj, type):        # a class: trace its constructor
            owner, attr, obj = obj, "__init__", obj.__dict__.get("__init__")
            if obj is None:
                self.missing.append(target)
                return
        wrapper = make(obj)
        if isinstance(owner, type):
            for name, val in list(vars(owner).items()):
                if val is obj:
                    self._set(owner, name, wrapper)
        else:
            for m in modules.values():
                for name, val in list(vars(m).items()):
                    if val is obj:
                        self._set(m, name, wrapper)
        for m in modules.values():
            for fn in _functions_of(m):
                for field in ("__defaults__", "__kwdefaults__"):
                    self._rebind_defaults(fn, field, obj, wrapper)

    def _rebind_defaults(self, fn, field, obj, wrapper):
        old = getattr(fn, field)
        if isinstance(old, tuple) and any(v is obj for v in old):
            new = tuple(wrapper if v is obj else v for v in old)
        elif isinstance(old, dict) and any(v is obj for v in old.values()):
            new = {k: wrapper if v is obj else v for k, v in old.items()}
        else:
            return
        setattr(fn, field, new)
        self._undo.append((fn, field, old))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()


def _functions_of(module):
    """Plain functions defined at module level or as methods of its classes."""
    out = []
    for val in vars(module).values():
        if isinstance(val, type) and val.__module__ == module.__name__:
            for meth in vars(val).values():
                if isinstance(meth, (staticmethod, classmethod)):
                    meth = meth.__func__
                if hasattr(meth, "__defaults__"):
                    out.append(meth)
        elif hasattr(val, "__defaults__") and \
                getattr(val, "__module__", None) == module.__name__:
            out.append(val)
    return out


def span_totals(names, name_of, parent, start, end):
    """Calls and self time per span name.

    A span's self time is its duration minus the part of it covered by its
    child spans. Children of one parent are recorded in start order, so their
    union is built in one pass by tracking the furthest end seen so far.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        s, e = start[i], end[i]
        if s < reach[p]:
            s = reach[p]
        if e > s:
            covered[p] += e - s
        if e > reach[p]:
            reach[p] = e
    calls, self_s = {}, {}
    for i in range(n):
        name = names[name_of[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i]) - covered[i]
    return calls, self_s
