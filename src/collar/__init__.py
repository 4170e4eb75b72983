"""Numerical laboratory for degenerate diffusion with Dirichlet collar data.

The package studies ``rho(x) du/dt = Lap[G(u)]`` on bounded 1-D and radial
domains: it solves collar-approximated problems implicitly, constructs and
certifies sub/supersolution barriers with explicit constant rules, and runs
duality-based uniqueness and boundary-attainment diagnostics.
"""
