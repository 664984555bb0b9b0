"""Exhaustive search for single-ratio labelings on small graphs.

A labeling with one edge ratio k > 1 everywhere two-colors the graph
by vertex difference, so odd cycles can never carry one.  The search
returns None for a graph with an odd cycle before it tries any
difference assignment; otherwise it enumerates difference assignments
and fills in labels smallest-first, returning the least witness in its
window or None.
"""

from iasi import (
    SearchBound,
    classify,
    cycle,
    search_identical_biarithmetic,
    serialize_labeling,
    serialize_report,
)

for n in (4, 5, 6, 7):
    g = cycle(n)
    witness = search_identical_biarithmetic(g)
    print(f"== cycle on {n} vertices ==")
    if witness is None:
        print("no single-ratio labeling exists (odd cycle)\n")
        continue
    print(serialize_labeling(witness))
    rep = classify(g, witness)
    print(f"verified: identical edge ratio {rep.identical_biarithmetic}\n")

# a tighter window can be searched explicitly
bound = SearchBound(max_element=20, sizes=(3,), ratios=(3,))
witness = search_identical_biarithmetic(cycle(4), bound)
print("ratio-3 witness on the 4-cycle, elements capped at 20:")
print(serialize_labeling(witness))
print(serialize_report(classify(cycle(4), witness)))
