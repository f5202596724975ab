#!/usr/bin/env python3
"""Multiplicative closure, verified numerically.

A model is multiplicatively closed when the matrix log of a product of
two of its substitution matrices e^{Q1 t1} e^{Q2 t2} lies back in the
model span.  Closure is equivalent to the span being a Lie algebra, so
semigroup-derived models always pass.  Their spans are even closed
under plain products, so the check needs no logarithm for them: the
product P itself has P - I in the span (the "product" check).  The
symmetric-rates model SYM is the classic failure: commutators of
symmetric matrices are antisymmetric and leave the span, and the
sampled logarithms (the "log" check) are far from it.
"""

import numpy as np

from liemarkov import (
    check_lie_closed,
    expm,
    fixture,
    logm,
    verify_multiplicative_closure,
)
from liemarkov.catalog import known_subspaces

# round trip: the log recovers Qt from e^{Qt}
rng = np.random.default_rng(0)
q = rng.random((4, 4))
np.fill_diagonal(q, 0.0)
q -= np.diag(q.sum(axis=0))
m = expm(q, 0.7)
print("expm column sums:", m.sum(axis=0))
print("round-trip error:", float(np.abs(logm(m) - 0.7 * q).max()))
print()

known = known_subspaces()
for name in ("F81", "K3ST", "Model-3.3b", "New-4.1"):
    report = verify_multiplicative_closure(known[name], trials=100, tol=1e-6, seed=1)
    print(f"{name:12s} {report.status:4s}  max residual {report.max_residual:.2e}  ({report.check} check)")

sym = fixture("SYM").subspace
report = verify_multiplicative_closure(sym, trials=100, tol=1e-6, seed=1)
print(f"{'SYM':12s} {report.status:4s}  max residual {report.max_residual:.2e}  ({report.check} check)")

witness = check_lie_closed(sym).witness
print()
print("SYM Lie-closure witness (an antisymmetric commutator):")
for row in witness.matrix:
    print("  ", [str(x) for x in row])
