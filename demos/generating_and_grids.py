"""
Generating functions and exponent grids
=======================================

Walks through the psi family, the discrete grids, and the three
equivalence constants Z, W, W^ that measure how much of the norm
survives when the exponent domain is thinned out.
"""

import numpy as np

from glspace import (
    PowerSlowVaryParams,
    geometric_grid,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    gaussian_model,
    psi_eval,
    set_from_spec,
    sqrt_dip_psi,
    w_constant,
    w_hat_constant,
    z_constant,
)

# the workhorse family: p^(1/r) * (ln(2+p)/ln 3)^delta, normalized so psi(1) = 1
psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.5))
ps = np.array([1.0, 2.0, 4.0, 16.0, 100.0])
print("psi =", psi.description)
print("  psi(p) at", ps, "->", np.round(psi_eval(psi, ps), 6))
print("  nondecreasing:", psi.nondecreasing)

# every model induces its own natural psi: p -> |f|_p / |f|_1
nat = natural_psi(gaussian_model())
print("natural psi of the gaussian at p=2:", float(nat(2.0)), "(= sqrt(pi/2))")

# grids: geometric q(m) = 1 + (D^m - D)/(D - 1) ... integers q(m) = m
geo = geometric_grid(D=2.0, M=12)
ints = integer_grid(30)
print()
print(geo.description, "first values:", geo.values[:5])
print(ints.description, "p_plus(7.3) =", ints.first_index_at_least(7.3), "-> q =", ints.value_at(8))

# W measures the worst psi jump between consecutive grid points.  For
# a monotone psi the refined constant W^ agrees with it.
w = w_constant(geo, psi)
wh = w_hat_constant(geo, psi)
print()
print("W  on", geo.description, "=", w.value, "at cell", w.arg)
print("W^ on", geo.description, "=", wh.value, " (monotone psi: identical)")

# a psi that dips between integers separates the two constants: W only
# looks at grid points and misses the dip, W^ scans inside each cell
dip = sqrt_dip_psi()
w_dip = w_constant(ints, dip)
wh_dip = w_hat_constant(ints, dip)
print("dip psi: W =", round(w_dip.value, 6), " W^ =", round(wh_dip.value, 6), "(> W, sees the dip)")

# Z plays the same role for continuous restricted sets: each gap in the
# set is charged the psi ratio across it
S = set_from_spec("intervals:1-2,3-inf")
z = z_constant(S, psi)
print()
print("Z on", S.description, "=", round(z.value, 6), "from the gap at p =", z.arg)
print("Z on the full ray      =", z_constant(set_from_spec("full"), psi).value)
