#!/usr/bin/env python3
"""Enumerate small semigroups and census their anti-isomorphism structure.

A semigroup is a set with an associative product, recorded as a Cayley
table.  The library enumerates one canonical representative per
isomorphism class; reversing the multiplication (transposing the table)
gives the anti-isomorphic copy, which is never merged there.
``anti_iso_census(k)`` counts the classes up to anti-isomorphism as well
(OEIS A001423), in one pass of the same search.
"""

from liemarkov import (
    anti_iso_census,
    canonical_form,
    enumerate_semigroups,
    format_tables,
    reverse,
)

for k in (1, 2, 3, 4):
    tables = enumerate_semigroups(k)
    self_dual, pairs = anti_iso_census(k)
    print(
        f"order {k}: {len(tables):3d} classes "
        f"({self_dual} self-anti-isomorphic, {pairs} reversal pairs); "
        f"{self_dual + pairs} up to anti-isomorphism too (OEIS A001423)"
    )

print()
print("The five order-2 semigroups (1-based Cayley tables):")
print()
print(format_tables(enumerate_semigroups(2)))

t = enumerate_semigroups(2)[2]  # a*b = a
print("reversing a*b = a gives a*b = b:")
print(format_tables([t, reverse(t)]))
print("reversal changes the isomorphism class here:",
      canonical_form(reverse(t)) != t)
