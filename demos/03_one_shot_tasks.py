"""One-shot distillation and dilution against the two-level currency.

Shows the resource bookkeeping: a fully coherent qubit is worth exactly
one currency bit in both directions; mixed states split (yield < cost);
a battery closes part of the gap; and coherence converts into athermality
because both are forms of the same resource.
"""

import numpy as np

from instability import (
    battery_yield,
    catalytic_yield0,
    covariance_check,
    currency,
    dephaser,
    one_shot_cost_eps,
    one_shot_cost_exact,
    one_shot_yield,
    plus_state,
    replacer,
)

qubit = dephaser(2)
plus = plus_state(2)

print("Fully coherent qubit under dephasing:")
y = one_shot_yield(plus, qubit, 0.0)
c = one_shot_cost_exact(plus, qubit)
print(f"  yield0 = {y.value:.9f} bits, cost0 = {c.value:.9f} bits (single-copy reversible)")
print(f"  measurement witness covariance residual: {y.residuals['covariance']:.2e}")

v = np.array([np.cos(np.pi / 5), np.sin(np.pi / 5)], dtype=complex)
tilted = np.outer(v, v.conj())
print("\nTilted pure state cos(pi/5)|0> + sin(pi/5)|1>:")
y0 = one_shot_yield(tilted, qubit, 0.0)
c0 = one_shot_cost_exact(tilted, qubit)
cat = catalytic_yield0(tilted, qubit)
print(f"  yield0 = {y0.value:.6f} <= catalytic {cat.value:.6f} <= cost0 = {c0.value:.6f}")

rho = 0.6 * plus + 0.4 * np.eye(2) / 2
print("\nNoisy coherent qubit (full rank):")
y0 = one_shot_yield(rho, qubit, 0.0)
c0 = one_shot_cost_exact(rho, qubit)
print(f"  yield0 = {y0.value:.6f} < cost0 = {c0.value:.6f}")
print("  a full-rank state has zero exact yield (its support meets every")
print("  free state), yet preparing it still costs real currency: maximal")
print("  one-shot irreversibility.  Error tolerance and batteries help:")

bat = battery_yield(rho, qubit, 0.1)
print(f"  battery-assisted yield (eps=0.1) = {bat.value:.6f}")
print(f"  composite-effect membership residual: {bat.residuals['composite_membership']:.2e}")

lo, hi = one_shot_cost_eps(rho, qubit, 0.1, 0.05).value
print(f"  eps=0.1 cost interval: [{lo:.6f}, {hi:.6f}]")

print("\nCurrency units compose additively:")
for m in (0.5, 1.0, 2.5):
    cur = currency(m)
    print(f"  phi_{m}: yield0 = {one_shot_yield(cur.state, cur.channel, 0.0).value:.9f}")

print("\nCoherence converts to athermality (cross-mechanism free channel):")
gibbs = np.diag([1 / 3, 2 / 3]).astype(complex)
target = replacer(gibbs)
residual = covariance_check(lambda e: np.trace(e) * gibbs, qubit, target)
print(f"  the constant preparation tau -> tr[tau] gamma is destruction-covariant")
print(f"  (residual {residual:.2e}); composing it after distillation moves")
print("  coherent bits into thermodynamic ones at the currency exchange rate.")
