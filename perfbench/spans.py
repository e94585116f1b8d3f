"""In-memory spans around public functions of the program, for the traced
run.

A traced function is replaced by a wrapper in every module namespace that
binds it, because the modules import names directly (enumeration calls
its own binding of canonical_form, not autgrp's).  Each call appends one
span (function index, start, end, parent span) to a list; self time is a
span's duration minus the time its direct child spans cover.  Nothing is
written while the program runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Dict, List, Sequence, Tuple

Span = Tuple[int, float, float, int]


class Tracer:
    def __init__(self, functions: Sequence[Tuple[str, str]], package: str):
        """functions: (module, name) pairs, module relative to package."""
        self.names = [f"{module}.{name}" for module, name in functions]
        self.modules = [module for module, _ in functions]
        self.spans: List[Span] = []
        self.colored_calls = 0
        self._stack = [-1]
        targets = {}
        for i, (module, name) in enumerate(functions):
            # a function the program no longer has keeps its metrics at 0
            original = getattr(importlib.import_module(f"{package}.{module}"),
                               name, None)
            if original is not None:
                targets[id(original)] = (original, self._wrap(original, i))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, fn, index: int):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        # a coloring is the second argument of automorphism_group
        colored = fn.__name__ == "automorphism_group"

        def traced(*args, **kwargs):
            if colored and (
                kwargs.get("coloring") is not None
                or (len(args) > 1 and args[1] is not None)
            ):
                self.colored_calls += 1
            slot = len(spans)
            spans.append((index, 0.0, 0.0, stack[-1]))
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, spans[slot][3])

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.colored_calls = 0

    def summary(self) -> Dict[str, float]:
        """<module>.<function>.calls and .self_s, <module>.self_s, and the
        calls of automorphism_group with a coloring."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        covered = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for slot, (index, start, end, _) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += end - start - covered[slot]
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        for module in dict.fromkeys(self.modules):
            out[f"{module}.self_s"] = sum(
                self_s[i] for i, m in enumerate(self.modules) if m == module
            )
        out["autgrp.automorphism_group.colored_calls"] = self.colored_calls
        return out
