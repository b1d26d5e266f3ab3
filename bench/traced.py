"""Run one gelwarp command with spans around each module's public functions.

    python bench/traced.py SPANS.json <gelwarp arguments...>

It wraps exactly the functions named in bench/run.py's metric tables.
The wrapped names are rebound in every gelwarp module that holds them (the
``cli`` module keeps its own reference to ``hclust_complete``, for example),
and ``DewarpModel`` methods are wrapped on the class.  A name that no longer
exists is listed under "missing" and its metrics are left out.

Spans are kept in memory and written on exit as
{"names": [...], "spans": [[name_index, start, end, parent], ...],
 "counts": {...}, "missing": [...]}; parent is the index of the enclosing
span or -1.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from run import BOUNDARY_COUNTS, TRACED_FUNCTIONS

# function -> count taken at its boundary from (args, result)
COUNTS = dict(BOUNDARY_COUNTS.values())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        count = COUNTS.get(qualname)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                self.counts[qualname] = self.counts.get(qualname, 0) + count(args, result)
            return result

        return traced

    def install(self) -> None:
        import gelwarp  # noqa: F401  (imports every library module)
        import gelwarp.cli  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gelwarp" or n.startswith("gelwarp."))]
        for qualname in TRACED_FUNCTIONS:
            modname, _, name = qualname.rpartition(".")
            owner = sys.modules.get(modname)
            if owner is None:  # "module.Class.method"
                modname, _, clsname = modname.rpartition(".")
                owner = getattr(sys.modules.get(modname), clsname, None)
                if not isinstance(owner, type):
                    owner = None
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(qualname)
                continue
            wrapper = self.wrap(qualname, original)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts, "missing": self.missing}, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from gelwarp.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
