"""
Tail envelopes from the discrete norm
=====================================

A finite discrete norm N forces the exponential tail bound

    P(|f| > x) <= exp(-h(x / N))    for x >= e * N,

where h is the Legendre-type transform of the grid/psi pair.  The
script computes h, builds the envelope for a gaussian, checks it
against one million samples, and then inverts the game: estimating the
scale K from tail data alone.
"""

import numpy as np

from glspace import (
    PowerSlowVaryParams,
    gaussian_model,
    h_transform,
    integer_grid,
    make_power_slowvary,
    make_tail_envelope,
    membership_K_estimate,
    natural_psi,
    sample,
    tail_check,
)
from glspace.tails import quadratic_h_reference

q = integer_grid(120)
psi = make_power_slowvary(PowerSlowVaryParams(r=2.0, delta=0.0))

# h(x) = sup_m q(m) (ln x - ln psi(q(m))); for psi = sqrt(p) on the
# integer grid this hugs the continuous x^2 / (2e) from below
print("x      h(x)       x^2/(2e)")
for x in (1.0, np.e, 4.0, 7.0):
    res = h_transform(q, psi, x)
    print(f"{x:5.3f}  {res.value:9.5f}  {quadratic_h_reference(x):9.5f}   (arg m = {res.arg_index})")

g = gaussian_model()
env = make_tail_envelope(g, natural_psi(g), q)
print()
print("gaussian discrete norm N =", round(env.norm_value, 6))
print("envelope domain starts at e*N =", round(env.domain_threshold, 6))

# survival of 1e6 gaussians vs the envelope; 2.0 sits below e*N and is
# reported out-of-domain rather than judged
report = tail_check(g, natural_psi(g), q, n=1_000_000, seed=42, x_grid=(2.0, 2.5, 3.0, 3.5))
print()
print("x     empirical     envelope     in domain  ok")
for row in report.rows:
    print(f"{row.x:4.2f}  {row.empirical:.6e}  {row.envelope:.6e}  {row.in_domain!s:9}  {row.ok}")
print("active probes:", report.n_active, "all ok:", report.all_ok)

# reverse direction: given only samples, the smallest K whose envelope
# exp(-h(x/K)) dominates the observed tail estimates the norm
batch = sample(g, 200_000, seed=7)
est = membership_K_estimate(batch, q, natural_psi(g), K_grid=np.geomspace(0.3, 4.0, 24))
print()
print("membership estimate: K^ =", round(est.K_hat, 6))
print("checked x range:", est.x_range_checked)
