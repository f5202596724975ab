"""In-memory span tracing around the library's layer boundaries.

Timing wrappers are installed from the benchmark's own code: no file of
the library changes.  Each wrapper replaces every binding of a timed
function inside the ``liemarkov`` package, i.e. the name each caller
actually looks up (``liemarkov.catalog.canonical_subspace`` as well as
``liemarkov.modelgen.canonical_subspace``).  Each call records one span
``(op, span, parent, name, start, end)``; spans stay in memory until the
run ends.  A span's self time is its duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function) under liemarkov, grouped by layer.  ``render`` is
# split by format into catalog.render_json and catalog.render_md.
TIMED = (
    ("cayley", "enumerate_semigroups"),
    ("cayley", "is_associative"),
    ("representation", "regular_rep"),
    ("linalg", "rref"),
    ("linalg", "solve_in_rowspace"),
    ("linalg", "rref_with_transform"),
    ("modelgen", "rate_basis"),
    ("modelgen", "canonical_subspace"),
    ("symmetry", "symmetry_group"),
    ("closure", "check_lie_closed"),
    ("closure", "check_algebra_closed"),
    ("closure", "expm"),
    ("closure", "logm"),
    ("closure", "verify_multiplicative_closure"),
    ("constructors", "group_based_model"),
    ("constructors", "equivariant_model"),
    ("catalog", "build_registry"),
    ("catalog", "classify_model"),
    ("catalog", "run_pipeline"),
    ("catalog", "render"),
)

SPAN_NAMES = tuple(
    name
    for module, func in TIMED
    for name in (
        (f"{module}.{func}_json", f"{module}.{func}_md")
        if (module, func) == ("catalog", "render")
        else (f"{module}.{func}",)
    )
)

SPAN_FIELDS = ("op", "span", "parent", "name", "start", "end")


def _render_span_name(args, kwargs) -> str:
    fmt = kwargs.get("fmt", args[1] if len(args) > 1 else "json")
    return "catalog.render_md" if fmt in ("md", "markdown") else f"catalog.render_{fmt}"


class Tracer:
    """Records one span per call of a wrapped function, and one per operation."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_sweep: dict[int, int] = {}
        self._ids = itertools.count()
        self._stack = [-1]
        self._op = -1

    @contextmanager
    def operation(self, name: str, op_id: int, sweep: int):
        """Root span of one benchmark operation; its spans share ``op_id``."""
        self.op_sweep[op_id] = sweep
        self._op = op_id
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((op_id, sid, -1, name, start, end))
            self._op = -1

    def wrap(self, name, fn):
        """Timing wrapper; ``name`` is a span name or a callable(args, kwargs)."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (self._op, sid, parent, fixed or name(args, kwargs), start, end)
                )

        return timed

    def summary(self) -> tuple[dict[int, Counter], dict[int, Counter]]:
        """Per sweep: calls and self seconds of every span name."""
        covered: defaultdict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: defaultdict[int, Counter] = defaultdict(Counter)
        self_s: defaultdict[int, Counter] = defaultdict(Counter)
        for op, sid, _, name, start, end in self.spans:
            sweep = self.op_sweep.get(op, -1)
            calls[sweep][name] += 1
            self_s[sweep][name] += (end - start) - covered[sid]
        return calls, self_s


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of the TIMED functions; restore them on exit.

    Yields the (module, function) pairs that the library does not have,
    which then report zero calls.
    """
    package = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "liemarkov" or name.startswith("liemarkov."))
    ]
    patches = []
    missing = []
    for module, func in TIMED:
        original = getattr(sys.modules.get(f"liemarkov.{module}"), func, None)
        if original is None:
            missing.append(f"{module}.{func}")
            continue
        span = _render_span_name if (module, func) == ("catalog", "render") else f"{module}.{func}"
        wrapper = tracer.wrap(span, original)
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    try:
        yield missing
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)
