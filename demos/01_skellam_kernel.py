"""A tour of the probability kernel.

Every quantity in this library reduces to questions about the difference of
two independent Poisson counts: "candidate a finishes strictly ahead of b",
"a and b tie exactly", "a trails b by exactly one vote".  This script shows
the kernel's three entry points and the identities connecting them.
"""

import math

from irvpivot import prob_strictly_greater, skellam_pmf, tie_terms

# pmf of the difference X - Y for X ~ Poisson(12), Y ~ Poisson(9)
print("pmf of the vote margin, rates 12 vs 9:")
for w in range(-3, 7):
    bar = "#" * int(200 * skellam_pmf(w, 12, 9))
    print(f"  margin {w:+d}: {skellam_pmf(w, 12, 9):.4f} {bar}")

# The three outcomes of a head-to-head comparison partition the space.
a, b = 12.0, 9.0
p_ahead = prob_strictly_greater(a, b)
p_behind = prob_strictly_greater(b, a)
p_tie = skellam_pmf(0, a, b)
print(f"\nP(ahead) + P(behind) + P(tie) = {p_ahead + p_behind + p_tie:.15f}")

# Tie terms: an exact tie can be broken by one more vote, a one-vote deficit
# can be turned into a tie.  Both enter pivot probabilities with a fair-coin
# factor of one half.
brk, mk = tie_terms(a, b)
print(f"break-tie mass {brk:.5f}, make-tie mass {mk:.5f}")
print(f"pivot mass of one extra vote in this pair: {0.5 * (brk + mk):.5f}")

# Degenerate rates are exact, not approximated.
print(f"\npmf(1 | 1, 0) = {skellam_pmf(1, 1.0, 0.0):.12f}  (exp(-1) = {math.exp(-1):.12f})")
print(f"pmf(0 | 0, 0) = {skellam_pmf(0, 0.0, 0.0)}")

# Large rates need no tuning: P(X > Y) comes from a closed form, and the
# kernel's sums keep a fixed window of 12 standard deviations plus 40 terms.
print(f"\nlarge rates: P(X > Y) at (1e6, 1e6 - 5000) = {prob_strictly_greater(1e6, 1e6 - 5000):.10f}")
