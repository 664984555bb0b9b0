"""Audit closed-form class counts against exhaustive enumeration.

Each audit counts the compatibility classes of the canonical label
pair for a grid point (two progressions whose differences stand in
ratio k) by size, from one product of the pair's packed indicator
polynomials, without building either label, and compares the
closed-form prediction with those counts.  The
audit never raises on a failed prediction: the point is reported as a
mismatch with the observed numbers next to the predicted ones, so a
sweep always classifies its entire grid.
"""

from iasi import audit, serialize_audit

print("== saturated class counts, shared difference (m >= n >= 3) ==")
grid = [(m, n) for m in range(3, 8) for n in range(3, m + 1)]
print(serialize_audit(audit("T-NCC", grid)))

print("== saturated class counts at ratio k (regime m >= (n-1)k) ==")
grid = [(m, 3, 2) for m in range(4, 10)]
print(serialize_audit(audit("T-NSC-II", grid)))

print("== maximal class counts, m divisible by k: exact ==")
grid = [(p * 2, 4, 2) for p in range(2, 4)] + [(p * 3, 5, 3) for p in range(2, 5)]
print(serialize_audit(audit("T-NMCC-II-q0", grid)))

print("== maximal class counts, m not divisible by k: mismatches ==")
# the closed form for this slice disagrees with the enumeration; the
# audit reports each point with its observed histogram
grid = [(5, 4, 2), (3, 3, 2), (7, 5, 2)]
print(serialize_audit(audit("T-NMCC-II-qpos", grid)))

print("== edge label cardinality m + k(n-1), both slices ==")
grid = [(m, n, k) for m in (3, 5) for n in (3, 4) for k in (1, 2, 3)]
print(serialize_audit(audit("EDGE-SIN", grid)))
