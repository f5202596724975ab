#!/usr/bin/env python3
"""Group-based and equivariant constructions.

Groups are semigroups, so the same machinery applies, with two bonuses:
the regular representation is faithful (dimension is always |G| - 1),
and for abelian groups the classical rate pattern Q[i][j] = f(i - j)
lands in the same span.  Equivariant models go the other way: fix a
permutation group and keep every rate matrix invariant under
simultaneous row/column permutation.
"""

from fractions import Fraction

from liemarkov import (
    abelian_rate_pattern,
    canonical_form,
    canonical_subspace,
    contains,
    cyclic_group,
    equivariant_model,
    group_based_model,
    klein_group,
    model_id,
    parse_perm,
    run_pipeline,
    symmetric_group_3,
)

# the constructor's model id against the id that the enumeration pipeline
# gives the catalog entry whose sources hold the group's table (orders 2-5)
for g, name in (
    (cyclic_group(2), "C2 (binary symmetric)"),
    (cyclic_group(3), "C3"),
    (cyclic_group(4), "C4"),
    (klein_group(), "V4 (Kimura 3ST)"),
    (symmetric_group_3(), "S3, six states"),
):
    sub = group_based_model(g)
    k = g.table.order
    line = f"{name}: dimension {sub.dim}"
    if k <= 5:
        table = canonical_form(g.table)
        (entry,) = [e for e in run_pipeline(order=k) if table in e.report.provenance]
        same = entry.model_id == model_id(k, canonical_subspace(sub))
        line += f", model {entry.model_id}, matches the order-{k} catalog: {same}"
    print(line)

print()
q = abelian_rate_pattern(cyclic_group(3), {1: Fraction(2), 2: Fraction(5)})
print("C3 rate pattern with f(1)=2, f(2)=5:")
for row in q:
    print("  ", [str(x) for x in row])
print("member of the C3 model:",
      contains(group_based_model(cyclic_group(3)), q) is not None)

print()
d4 = [parse_perm(s, 4) for s in (
    "e", "(1 2)", "(3 4)", "(1 2)(3 4)",
    "(1 3)(2 4)", "(1 4)(2 3)", "(1 3 2 4)", "(1 4 2 3)",
)]
k2st = equivariant_model(d4, 4)
print(f"D4-equivariant model (Kimura 2ST): dimension {k2st.dim}")
for g in k2st.basis:
    print("  " + "; ".join(str(list(row)) for row in g))

trivial = equivariant_model([(0, 1, 2, 3)], 4)
print(f"trivial-group equivariant model: dimension {trivial.dim} "
      "(the general four-state model)")
