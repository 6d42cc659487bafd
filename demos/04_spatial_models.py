"""Simulate spatially autocorrelated errors, let the score tests pick a
model, and fit it by maximum likelihood.
"""

import numpy as np

from arealstat.ols import design_matrix, fit, lm_tests, model_decision
from arealstat.spatial_models import compare, fit_error_ml, fit_lag_ml
from arealstat.synth import autoregressive_solver, lattice
from arealstat.weights import queen_contiguity

rng = np.random.default_rng(3)

units = lattice(15, 15)
links = queen_contiguity(units)
n = links.n

X = design_matrix([("x1", rng.normal(size=n)), ("x2", rng.normal(size=n))])
beta = np.array([1.0, 2.0, -1.0])

# u = lambda*W*u + eps with lambda = 0.5
u = autoregressive_solver(links, 0.5)(rng.normal(size=n))
y = X.values @ beta + u

ols_fit = fit(X, y)
suite = lm_tests(X, y, ols_fit, links)
for name, stat, p in suite.as_rows():
    print(f"{name:18s} stat {stat:8.3f}  p {p:.2g}")

decision = model_decision(suite, alpha=0.05)
print("decision:", decision)

sem = fit_error_ml(X, y, links)
print(f"lambda hat {sem.param:.3f} (se {sem.param_se:.3f}, p {sem.param_p:.2g})")
for name, b in zip(sem.names, sem.beta):
    print(f"  {name:10s} {b:8.3f}")
print(f"log-likelihood {sem.log_likelihood:.2f}, AIC {sem.aic:.2f}, "
      f"pseudo-r2 {sem.pseudo_r2:.3f}")

# the competing lag fit exists too; the comparison table ranks them
lag_fit = fit_lag_ml(X, y, links)
comparison = compare(ols_fit, sem)
print("preferred vs plain regression:", comparison.preferred)
print(f"lag model AIC {lag_fit.aic:.2f} vs error model AIC {sem.aic:.2f}")
