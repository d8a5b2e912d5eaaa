"""Outside-in span tracing for ternrep, installed from the benchmark.

The tracer swaps a timing wrapper in for each traced public function at
every place a caller looks it up: the defining module and every ternrep
module that imported the name (``ternrep.pipeline.factorize`` and
``ternrep.descent.factorize`` are both the object defined in
``ternrep.factor``).  No ternrep source is changed, and ``restore`` puts the
original objects back.

A span is (id, name, start_ns, end_ns, parent_id, request_id); spans are
kept in memory as flat integers and written out once at the end.  Self
time is span time minus the time of the span's direct children.  Only the
process that installed the wrappers records spans: pool workers forked by
``scan --jobs N`` inherit the wrappers but call straight through.
"""

import array
import functools
import gzip
import os
import time

# (layer module, public function) pairs, one span name each.
TRACED = (
    ("cli", "dispatch"),
    ("forms", "eligibility"),
    ("forms", "reduce_to_core"),
    ("factor", "factorize"),
    ("factor", "squarefree_decompose"),
    ("arith", "is_prime"),
    ("cases", "select_case"),
    ("pipeline", "build_witness"),
    ("pipeline", "find_q"),
    ("pipeline", "solve_t"),
    ("pipeline", "solve_bh"),
    ("pipeline", "enumerate_point"),
    ("pipeline", "verify_witness"),
    ("descent", "represent_binary"),
    ("oracle", "brute_force_ternary"),
    ("oracle", "scan_compare"),
)
NAMES = tuple("%s.%s" % pair for pair in TRACED)
_FIELDS = 8


class Tracer:
    def __init__(self, modules: dict):
        """modules maps every loaded ternrep module name to the module."""
        self.modules = modules
        self.request = -1
        self.sites = {}
        self._patches = []
        self._next_id = 0
        self._stack = []
        self._depth = [0] * len(TRACED)
        self._rec = array.array("q")

    def _wrap(self, index: int, fn):
        tracer, rec = self, self._rec
        stack, depth = self._stack, self._depth
        clock, getpid, owner = time.perf_counter_ns, os.getpid, os.getpid()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getpid() != owner:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent, parent_index = stack[-1] if stack else (-1, -1)
            nested = depth[index]
            depth[index] = nested + 1
            stack.append((sid, index))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[index] = nested
                rec.extend((sid, index, start, end, parent, parent_index,
                            nested, tracer.request))

        return wrapper

    def install(self) -> None:
        for index, (layer, fn_name) in enumerate(TRACED):
            original = getattr(self.modules["ternrep." + layer], fn_name)
            wrapper = self._wrap(index, original)
            sites = []
            for mod_name, module in sorted(self.modules.items()):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
                        sites.append("%s.%s" % (mod_name, attr))
            self.sites[NAMES[index]] = sites

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def spans(self):
        """Spans in the order they ended, as (id, name, start_ns, end_ns,
        parent id, parent name, nesting depth under the same name,
        request id); children always end before their parent."""
        rec = self._rec
        for i in range(0, len(rec), _FIELDS):
            sid, index, start, end, parent, pindex, nested, request = rec[i:i + _FIELDS]
            yield (sid, NAMES[index], start, end, parent,
                   NAMES[pindex] if pindex >= 0 else None, nested, request)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,request\n")
            for sid, name, start, end, parent, _, _, request in self.spans():
                fh.write("%d,%s,%d,%d,%d,%d\n" % (sid, name, start, end, parent, request))


class Summary:
    """Per-name totals over spans given in end order.

    incl_ns and outer_calls count only spans not nested under a span of the
    same name (the T2D path calls build_witness inside build_witness), so
    incl_ns is wall time spent under that name.  self_ns is span time minus
    the time of its direct children.  by_request holds incl_ns per request.
    """

    def __init__(self, spans):
        self.calls = dict.fromkeys(NAMES, 0)
        self.outer_calls = dict.fromkeys(NAMES, 0)
        self.incl_ns = dict.fromkeys(NAMES, 0)
        self.self_ns = dict.fromkeys(NAMES, 0)
        self.child_calls = {}
        self.by_request = {}
        open_child_ns = {}
        for sid, name, start, end, parent, parent_name, nested, request in spans:
            dur = end - start
            self.calls[name] += 1
            self.self_ns[name] += dur - open_child_ns.pop(sid, 0)
            if parent >= 0:
                open_child_ns[parent] = open_child_ns.get(parent, 0) + dur
                key = (parent_name, name)
                self.child_calls[key] = self.child_calls.get(key, 0) + 1
            if not nested:
                self.outer_calls[name] += 1
                self.incl_ns[name] += dur
                per = self.by_request.setdefault(request, {})
                per[name] = per.get(name, 0) + dur
