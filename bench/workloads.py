"""The three benchmark workloads: inputs, one operation, and its correctness gates.

Each workload builds its inputs from the seed in ``__init__`` (set-up),
lists the items of one sweep, runs one item through the library's public
functions (the timed operation), and checks the result.  ``check``
returns the names of the gates the result failed.

* census-k4: the paper's census, ``run_pipeline(order=4)`` plus both
  renderings.  Enumeration, canonical keys, symmetry groups, exact
  closure and rendering; no floating point.
* requests-k4: 188 single-table ``run_pipeline(tables=[t])`` requests on
  seeded relabelings of the order-4 semigroups.  No enumeration; input
  validation and the per-call registry rebuild dominate.
* closure-k4: ``verify_multiplicative_closure`` on the 131 golden spans
  plus the SYM fixture as a negative control.  The only floating-point
  workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

GOLDEN = Path("tests") / "golden" / "catalog_k4.json"
# Digests of the golden order-4 catalog and of its markdown rendering,
# taken when this benchmark was defined.
GOLDEN_JSON_SHA256 = "ba36f3d26d3e5f1848935b1010c96de518e6e74ae33b03520abf857c3c6e9f98"
CATALOG_MD_SHA256 = "511295f62ab5f8e36cc8e47e0772367725fdd1ad53e6e7a373c69417ab6ceb46"
SEMIGROUPS_K4 = 188  # OEIS A027851
MODELS_K4 = 131
INTERESTING_K4 = 4
CLOSURE_TOL = 1e-6
SYM_MIN_RESIDUAL = 1e-3


class SetupError(RuntimeError):
    """The benchmark's reference data is missing or not the pinned version."""


def load_golden(root: Path) -> tuple[bytes, dict]:
    path = root / GOLDEN
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise SetupError(f"golden catalog not found: {GOLDEN}") from None
    if hashlib.sha256(raw).hexdigest() != GOLDEN_JSON_SHA256:
        raise SetupError(f"{GOLDEN} differs from the version this benchmark pins")
    return raw, json.loads(raw)


def is_right_zero(table) -> bool:
    """x*y == y for all x, y: the one table whose model is the zero model."""
    return all(row == tuple(range(table.order)) for row in table.table)


def _golden_by_source(lm, doc: dict) -> dict:
    """Map each 0-based source Cayley table to its golden catalog entry."""
    out = {}
    for entry in doc["entries"]:
        for src in entry["sources"]:
            out[lm.make_table([[x - 1 for x in row] for row in src])] = entry
    return out


class Workload:
    """One sweep runs ``call`` once on every entry of ``items``."""

    name = ""
    op_name = ""
    items: list

    def layer_counts(self, results: list) -> dict[str, float]:
        """Per-layer counts read off the results of one sweep."""
        return {}


class Census(Workload):
    name = "census-k4"
    op_name = "catalog pass"

    def __init__(self, lm, root: Path, seed: int, trials: int) -> None:
        self.lm = lm
        self.items = [None]
        self.golden_raw, doc = load_golden(root)
        tables = lm.enumerate_semigroups(4)
        by_source = _golden_by_source(lm, doc)
        self.expected_sources = Counter(t for t in tables if t in by_source)
        trivial = [t for t in tables if t not in by_source]
        # The funnel's first number: every one of the 188 classes is a
        # golden source, except the right-zero table, whose model is zero.
        if len(tables) != SEMIGROUPS_K4 or len(trivial) != 1 or not is_right_zero(trivial[0]):
            raise SetupError("order-4 enumeration does not match the golden sources")

    def call(self, item):
        entries = self.lm.run_pipeline(order=4)
        return entries, self.lm.render(entries, "json"), self.lm.render(entries, "md")

    def check(self, item, result) -> list[str]:
        entries, doc_json, doc_md = result
        failed = []
        if doc_json.encode() != self.golden_raw:
            failed.append("census.json_golden")
        sources = Counter(t for e in entries for t in e.report.provenance)
        interesting = sum(
            1 for e in entries if not e.report.reducible and not e.report.absorbing
        )
        if (
            sources != self.expected_sources
            or len(entries) != MODELS_K4
            or interesting != INTERESTING_K4
        ):
            failed.append("census.funnel")
        if hashlib.sha256(doc_md.encode()).hexdigest() != CATALOG_MD_SHA256:
            failed.append("census.md_sha256")
        return failed


class Requests(Workload):
    name = "requests-k4"
    op_name = "single-table request"

    def __init__(self, lm, root: Path, seed: int, trials: int) -> None:
        self.lm = lm
        _, doc = load_golden(root)
        by_source = _golden_by_source(lm, doc)
        rng = random.Random(seed)
        self.items = []
        for t in lm.enumerate_semigroups(4):
            perm = tuple(rng.sample(range(4), 4))
            expected = by_source.get(t)
            if expected is None and not is_right_zero(t):
                raise SetupError("order-4 table missing from the golden sources")
            self.items.append((lm.apply_perm(t, perm), expected))

    def call(self, item):
        return self.lm.run_pipeline(tables=[item[0]])

    def check(self, item, result) -> list[str]:
        table, expected = item
        if expected is None:
            return [] if result == [] and is_right_zero(table) else ["request.right_zero_empty"]
        if len(result) != 1:
            return ["request.entry_count"]
        e = result[0]
        r = e.report
        failed = []
        if e.model_id != expected["model_id"]:
            failed.append("request.model_id")
        if r.dimension != expected["dimension"]:
            failed.append("request.dimension")
        if len(r.symmetry) != expected["symmetry"]["order"]:
            failed.append("request.symmetry_order")
        if r.known_label != expected["known_label"]:
            failed.append("request.known_label")
        if len(r.absorbing) != len(expected["absorbing_states"]):
            failed.append("request.absorbing_count")
        return failed


class Closure(Workload):
    name = "closure-k4"
    op_name = "model verification"

    def __init__(self, lm, root: Path, seed: int, trials: int) -> None:
        self.lm = lm
        self.trials = trials
        _, doc = load_golden(root)
        models = []
        for entry in doc["entries"]:
            gens = [
                [[Fraction(x) for x in row] for row in g] for g in entry["generators"]
            ]
            sub = lm.subspace_from_generators(4, gens)
            if sub.dim != entry["dimension"]:
                raise SetupError(f"golden span {entry['model_id']} has the wrong dimension")
            models.append(("span", sub))
        models.append(("SYM", lm.fixture("SYM").subspace))
        # Each model draws its own trials.  With one seed for all, every
        # model would get the same times t1, t2, and the workload's cost
        # would swing with that single draw.
        self.items = [(kind, sub, seed * 1000 + i) for i, (kind, sub) in enumerate(models)]

    def call(self, item):
        kind, sub, seed = item
        return self.lm.verify_multiplicative_closure(
            sub, trials=self.trials, tol=CLOSURE_TOL, seed=seed
        )

    def check(self, item, report) -> list[str]:
        if report.status == "inconclusive":
            return ["closure.inconclusive"]
        if item[0] == "SYM":
            ok = report.status == "fail" and report.max_residual > SYM_MIN_RESIDUAL
            ok = ok and not report.lie_closed
            return [] if ok else ["closure.sym_control"]
        failed = []
        if report.status != "pass":
            failed.append("closure.span_pass")
        if not (report.lie_closed and report.algebra_closed):
            failed.append("closure.exact_recheck")
        return failed

    def layer_counts(self, reports: list) -> dict[str, float]:
        """Verdict counts over all models; max residual over the golden spans.

        ``reports`` holds None where the verification raised.
        """
        done = [(kind, r) for (kind, _, _), r in zip(self.items, reports) if r is not None]
        status = Counter(r.status for _, r in done)
        return {
            "closure.status.pass": status["pass"],
            "closure.status.fail": status["fail"],
            "closure.status.inconclusive": status["inconclusive"],
            "closure.discarded_trials": sum(r.discarded_trials for _, r in done),
            "closure.max_residual": max(
                (r.max_residual for kind, r in done if kind == "span"), default=0.0
            ),
        }


WORKLOADS = {w.name: w for w in (Census, Requests, Closure)}
