#!/usr/bin/env python3
"""Map the one-period employer profit surface around the closed-form rules.

Shows why a global grid argmax does not land on the rules: the stationary
point is a saddle (profit is linear in the base wage at fixed (p, alpha)), and
the unconstrained argmax is a degenerate corner that confiscates the wage
through the penalty anchor. Run with no arguments; prints a short study.
"""
import numpy as np

from wagedyn import FirmParams, GridSteps, Horizon, WorkerPrefs
from wagedyn.employer import (_one_period_profit, _profit_differences, grid_search_optimum,
                              stationary_one_period_optimum)

FIRM = FirmParams(k=1.5, lam=1.0 / 1.5, c=0.3, eta=0.9)
PREFS = WorkerPrefs.additive(delta=0.9)


def main() -> None:
    opt = stationary_one_period_optimum(FIRM)
    p, a, w = opt.raw_p, opt.raw_alpha, opt.raw_w0
    print(f"stationary rules: p*={p:.6f} alpha*={a:.6f} w0*={w:.6f} "
          f"profit={opt.profit:.6f}")

    h = 1e-6
    grad = [d / (2 * h) for d in _profit_differences(p, a, w, FIRM, h)]
    print(f"profit gradient at the rules: {[f'{g:+.2e}' for g in grad]}")

    print("\njoint (alpha, w0) perturbations (saddle signature):")
    for da, dw in ((1e-3, 1e-3), (-1e-3, -1e-3), (1e-3, -1e-3), (-1e-3, 1e-3)):
        dpi = _one_period_profit(p, a + da, w + dw, FIRM) - opt.profit
        print(f"  dalpha={da:+.0e} dw0={dw:+.0e}: dprofit={dpi:+.3e}")

    print("\nprofit along w0 at the stationary (p, alpha) (flat ridge):")
    for w0 in np.linspace(0.1, 1.2, 6):
        print(f"  w0={w0:.2f}: {_one_period_profit(p, a, w0, FIRM):+.9f}")

    corner = grid_search_optimum(FIRM, PREFS, Horizon(1),
                                 GridSteps(0.02, 0.02, 0.02), refine_rounds=3)
    cc = corner.contract
    print(f"\nglobal grid argmax: p={cc.p:.4f} alpha={cc.alpha:.4f} "
          f"w0={cc.w0:.4f} profit={corner.profit:.4f} flags={corner.flags}")
    print("the worker there is paid the clamped evaluated wage "
          f"{max(1 + cc.alpha - cc.alpha * cc.w0, 0):.4f} with certainty")


if __name__ == "__main__":
    main()
