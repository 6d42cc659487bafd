"""Walk the model-selection battery: collinearity pruning, stepwise search,
significance pruning, then the residual diagnostics.
"""

import numpy as np

from arealstat.ols import (
    condition_number,
    design_matrix,
    jarque_bera,
    koenker_bassett,
    significance_prune,
    stepwise_aic,
    vif,
    vif_prune,
)

rng = np.random.default_rng(11)
n = 400

income = rng.normal(size=n)
poverty = rng.normal(size=n)
# a near copy of poverty, the way derived indicators often are
deprivation = poverty + rng.normal(scale=0.1, size=n)
noise1 = rng.normal(size=n)
noise2 = rng.normal(size=n)

y = 3.0 - 1.2 * income + 2.0 * poverty + rng.normal(size=n)

X = design_matrix([
    ("income", income),
    ("poverty", poverty),
    ("deprivation", deprivation),
    ("noise1", noise1),
    ("noise2", noise2),
])

print("VIF before pruning:")
for name, v in zip(X.slope_names, vif(X)):
    print(f"  {name:12s} {v:8.2f}")

X, removed = vif_prune(X, threshold=10.0)
print("removed for collinearity:", [(name, round(v, 1)) for name, v in removed])

X, step_fit, trace = stepwise_aic(X, y)
print("stepwise kept:", X.slope_names)
print("AIC trace:", [round(t["aic"], 2) for t in trace])

X, final, dropped = significance_prune(X, y, alpha=0.05)
print("significance pruning dropped:", [name for name, _ in dropped])

print(f"final model: n={final.n} r2={final.r2:.3f} adj_r2={final.adj_r2:.3f}")
for name, b, se, p in zip(X.names, final.beta, final.se, final.p):
    print(f"  {name:10s} {b:8.3f}  (se {se:.3f}, p {p:.2g})")

jb_stat, jb_p = jarque_bera(final.residuals)
kb_stat, kb_p = koenker_bassett(X, final.residuals)
print(f"normality:          stat {jb_stat:6.2f}  p {jb_p:.3f}")
print(f"heteroskedasticity: stat {kb_stat:6.2f}  p {kb_p:.3f}")
print(f"condition number:   {condition_number(X):.2f}")
