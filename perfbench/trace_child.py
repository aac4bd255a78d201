"""Run one cayley-lift CLI request with spans recorded around its layers.

Usage: python3 perfbench/trace_child.py FD REQUEST_ID CLI_ARG...

The benchmark spawns this script in place of ``python -m cayley_lift.cli``
for its traced passes.  Before calling ``cli.main`` it replaces each public
layer function named in LAYERS, in every ``cayley_lift`` module namespace
that holds it, with a wrapper that records a span (name, start, end,
parent span) in memory.  Calls across modules are therefore counted no
matter which module made them.  The source tree is not modified.

At exit the spans, the derived counters and the lru_cache statistics are
written as one JSON object to file descriptor FD, which the parent opened.
Stdout and the exit code are those of the CLI itself.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import wraps

# Public functions wrapped per module.  Metric names are <module>.<function>.
LAYERS = {
    "root_system": ("build_root_system", "mat_mul", "mat_apply", "reflection_matrix",
                    "canonical_reflection_word", "integral_system"),
    "cartan": ("signature_from_involution", "involution_from_pairs", "root_type",
               "hasse_diagram", "cover_center_data", "cartan_classes"),
    "parameters": ("make_parameter", "length", "theta", "orbit_representatives",
                   "tower_parameter"),
    "coherent": ("count_small", "rule_out", "stabilizer", "chain_types", "matrix_to_word",
                 "replay_witness"),
    "klv_poset": ("tower_poset", "verify_inversion", "M_entry", "m_entry", "in_tower_scope"),
    "lifting": ("lift_trivial", "K_coefficient", "cartan_constant"),
    "cli": ("main",),
}

# lru_cache'd functions whose hit and miss counts are reported.
CACHED = ("root_system.build_root_system", "root_system.reflection_matrix",
          "cartan.signature_from_involution")


def _mat_mul_counts(args, result):
    a, b = args
    return {"root_system.mat_mul.scalar_mults": len(a) * len(b) * len(b[0])}


def _rule_out_counts(args, result):
    return {"coherent.rule_out.method." + result.method: 1,
            "coherent.elements_checked": result.checked}


# Work counters derived from arguments and results, keyed by wrapped name.
COUNTERS = {
    "root_system.mat_mul": _mat_mul_counts,
    "coherent.rule_out": _rule_out_counts,
    "coherent.chain_types": lambda args, result: {"coherent.chain_types.steps": len(result.steps)},
    "coherent.matrix_to_word": lambda args, result: {"coherent.matrix_to_word.letters": len(result)},
}

# Functions whose distinct first arguments are counted.
DISTINCT = ("parameters.length",)


class Tracer:
    """Span and counter store for one request process."""

    def __init__(self):
        self.names = []
        self.spans = []           # [name index, start, end, parent span index or -1]
        self.stack = []
        self.counters = {}
        self.distinct = {name: set() for name in DISTINCT}
        self.originals = {}

    def wrap(self, name, func):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        counter = COUNTERS.get(name)
        distinct = self.distinct.get(name)
        clock = time.perf_counter

        @wraps(func)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, start, end, parent)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counters[key] = counters.get(key, 0) + value
            if distinct is not None:
                distinct.add(args[0])
            return result

        return traced

    def install(self):
        """Wrap every LAYERS function in each cayley_lift namespace holding it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cayley_lift" or key.startswith("cayley_lift."))]
        for module_name, functions in LAYERS.items():
            home = sys.modules["cayley_lift." + module_name]
            for function in functions:
                name = module_name + "." + function
                original = getattr(home, function)
                self.originals[name] = original
                traced = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def report(self, request_id, import_s):
        counters = dict(self.counters)
        for name, seen in self.distinct.items():
            counters[name + ".distinct_args"] = len(seen)
        lru = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            lru[name] = [info.hits, info.misses]
        return {
            "request": request_id,
            "import_s": import_s,
            "names": self.names,
            "spans": self.spans,
            "counters": counters,
            "lru": lru,
        }


def main():
    fd = int(sys.argv[1])
    request_id = sys.argv[2]
    argv = sys.argv[3:]
    start = time.perf_counter()
    import cayley_lift.cli as cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as out:
            json.dump(tracer.report(request_id, import_s), out)
    return code


if __name__ == "__main__":
    sys.exit(main())
