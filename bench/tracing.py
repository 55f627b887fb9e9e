"""Per-layer tracing from outside the package.

The tracer replaces public functions and methods of each layer with wrappers
that record spans.  A span's self time is its duration minus the time covered
by wrapped child spans, so the self times of all spans add up to the time
covered by the outermost spans.  Every name is patched in every module
namespace (and registry dataclass) that bound it at import time; a name that
no longer exists is reported as absent instead of failing the run.
"""

import dataclasses
import fnmatch
import inspect
import sys
import time

clock = time.perf_counter


def _terms(x):
    return len(x.terms)


# (metric prefix, module, attribute patterns, (size metric suffix, size fn))
SPANS = (
    ("algebra.preset", "algebra", ("preset",), None),
    ("combinatorics.enumerate_CS", "combinatorics", ("enumerate_CS",), ("items", len)),
    ("combinatorics.enumerate_sub", "combinatorics", ("enumerate_sub",), ("items", len)),
    ("combinatorics.enumerate_CP", "combinatorics", ("enumerate_CP",), None),
    ("identities.lhs", "identities", ("lhs_*",), None),
    ("identities.rhs", "identities", ("rhs_*",), None),
    ("engine.UElem", "engine", ("UElem.__init__",), None),
    ("engine.insert", "engine", ("Engine._insert",), None),
    ("engine.normalize", "engine", ("Engine.normalize",), ("out_terms", _terms)),
    ("engine.mul", "engine", ("Engine.mul",), ("out_terms", _terms)),
    ("engine.p", "engine", ("Engine.p",), None),
    ("engine.to_divided", "engine", ("Engine.to_divided",), ("out_terms", _terms)),
    ("engine.triangular_factor", "engine", ("Engine.triangular_factor",), None),
    ("verify.verify_identity", "verify", ("verify_identity",), None),
    ("verify.sample_products", "verify", ("sample_products",), None),
    ("exprio.parse_expr", "exprio", ("parse_expr",), None),
    ("exprio.format", "exprio", ("uelem_str", "divided_str"), None),
    ("cli.main", "cli", ("main",), None),
)

# Work counts only: these are called too often, and do too little, for a span.
COUNTS = (
    ("combinatorics.Multiset", "combinatorics", ("Multiset.__init__",)),
    ("coeffalg.mul", "coeffalg", ("MonoidBasis.mul",)),
)

# Memo tables read as gauges: metric name -> Engine attribute.
MEMOS = (
    ("engine.memo.insert_size", "_insert_memo"),
    ("engine.memo.p_size", "_p_memo"),
)


PACKAGE = "superpbw"


class Tracer:
    def __init__(self):
        self.stack = []            # child-time accumulators of the open spans
        self.stats = {}            # prefix -> [calls, self_s, size]
        self.absent = []
        self.gauges = {name: 0 for name, _ in MEMOS}
        self.new_engines = []
        self._restore = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, st, fn, size):
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                st[0] += 1
                st[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if size is not None:
                st[2] += size(out)
            return out
        return wrapper

    def _gen_span(self, st, fn):
        """A generator function does its work in next(), so each step is a span."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            st[0] += 1
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dur = clock() - t0
                    st[1] += dur - stack.pop()
                    if stack:
                        stack[-1] += dur
                yield item
        return wrapper

    def _count(self, st, fn):
        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def root(self, name, fn):
        """fn wrapped in a span of the benchmark's own (setup, one op)."""
        return self._span(self.stats.setdefault(name, [0, 0.0, 0]), fn, None)

    # -- patching ------------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _targets(self, module, pattern):
        """(owner, attribute, original) for each match of pattern in module."""
        if "." in pattern:
            cls_name, attr = pattern.split(".", 1)
            cls = getattr(module, cls_name, None)
            if isinstance(cls, type) and attr in vars(cls):
                return [(cls, attr, vars(cls)[attr])]
            return []
        return [(module, k, v) for k, v in sorted(vars(module).items())
                if fnmatch.fnmatchcase(k, pattern) and inspect.isfunction(v)
                and v.__module__ == module.__name__]

    def _rebind(self, orig, wrapper):
        """Replace orig by wrapper wherever a package module or a registry
        dataclass in one bound it."""
        for m in self._modules():
            for k, v in list(vars(m).items()):
                if v is orig:
                    self._restore.append((m, k, orig))
                    setattr(m, k, wrapper)
                elif isinstance(v, dict):
                    for dk, dv in list(v.items()):
                        if dv is orig:
                            self._restore.append((v, dk, orig))
                            v[dk] = wrapper
                        if not dataclasses.is_dataclass(dv) or isinstance(dv, type):
                            continue
                        for f in dataclasses.fields(dv):
                            if getattr(dv, f.name) is orig:
                                self._restore.append((dv, f.name, orig))
                                object.__setattr__(dv, f.name, wrapper)

    def _patch(self, prefix, modname, patterns, make):
        module = sys.modules.get("%s.%s" % (PACKAGE, modname))
        found = []
        for pattern in patterns:
            found += self._targets(module, pattern) if module else []
        if not found:
            self.absent.append(prefix)
            return
        for owner, attr, orig in found:
            wrapper = make(orig)
            if isinstance(owner, type):
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
            else:
                self._rebind(orig, wrapper)

    def install(self):
        for prefix, modname, patterns, size in SPANS:
            st = self.stats.setdefault(prefix, [0, 0.0, 0])
            sizefn = size[1] if size else None
            self._patch(prefix, modname, patterns,
                        lambda fn, st=st, sizefn=sizefn:
                        self._gen_span(st, fn) if inspect.isgeneratorfunction(fn)
                        else self._span(st, fn, sizefn))
        for prefix, modname, patterns in COUNTS:
            st = self.stats.setdefault(prefix, [0, 0.0, 0])
            self._patch(prefix, modname, patterns, lambda fn, st=st: self._count(st, fn))
        self._patch("engine.Engine", "engine", ("Engine.__init__",), self._keep_engine)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            elif dataclasses.is_dataclass(owner) and not isinstance(owner, type):
                object.__setattr__(owner, attr, orig)
            else:
                setattr(owner, attr, orig)
        self._restore = []

    # -- memo gauges ---------------------------------------------------------

    def _keep_engine(self, init):
        new = self.new_engines

        def wrapper(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            new.append(engine)
        return wrapper

    def take_engines(self):
        """Engines built since the last call."""
        out = list(self.new_engines)
        self.new_engines.clear()
        return out

    def read_memos(self, engines):
        """Add the memo sizes of these engines to the gauges."""
        for name, attr in MEMOS:
            for eng in engines:
                memo = getattr(eng, attr, None)
                if memo is None:
                    if name not in self.absent:
                        self.absent.append(name)
                else:
                    self.gauges[name] += len(memo)

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = dict(self.gauges)
        for prefix, (calls, self_s, size) in self.stats.items():
            out[prefix + ".calls"] = calls
            out[prefix + ".self_s"] = self_s
            for p, _, _, sz in SPANS:
                if p == prefix and sz:
                    out[prefix + "." + sz[0]] = size
        return out

    def total_self_s(self):
        return sum(st[1] for st in self.stats.values())
