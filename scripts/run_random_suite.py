#!/usr/bin/env python3
"""Random-instance sweep: solver vs direct-search oracle, per dimension.

For each dimension, draws random SPD pairs (log-uniform eigenvalues, random
orthogonal frames), solves for the volume-optimal outer ellipsoid, and
cross-checks the log-volume against the golden-section oracle plus the
containment and root-identity certificates. Prints one summary row per
dimension.
"""

import argparse
import time

import numpy as np

from ellipsum import (
    Ellipsoid,
    containment_check,
    generalized_spectrum,
    golden_section_beta,
    mvoe_pair,
    optimality_residual,
)


def spd(rng, dim, lo, hi):
    eigs = 10.0 ** rng.uniform(lo, hi, dim)
    frame, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    m = (frame * eigs) @ frame.T
    return 0.5 * (m + m.T)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", type=int, nargs="+", default=list(range(2, 11)))
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--log-lo", type=float, default=-2.0)
    parser.add_argument("--log-hi", type=float, default=2.0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'d':>3} {'instances':>9} {'worst dlogvol':>14} {'worst resid':>12} "
          f"{'worst contain':>14} {'time/solve':>11}")
    for dim in args.dims:
        worst_vol = 0.0
        worst_resid = 0.0
        worst_contain = -np.inf
        solve_time = 0.0
        for k in range(args.instances):
            e1 = Ellipsoid(rng.normal(size=dim), spd(rng, dim, args.log_lo, args.log_hi))
            e2 = Ellipsoid(rng.normal(size=dim), spd(rng, dim, args.log_lo, args.log_hi))
            start = time.perf_counter()
            result = mvoe_pair(e1, e2)
            solve_time += time.perf_counter() - start
            _, oracle_log_vol = golden_section_beta(e1.shape, e2.shape, 1e-9)
            worst_vol = max(worst_vol, abs(result.ellipsoid.log_volume() - oracle_log_vol))
            lam = generalized_spectrum(e1.shape, e2.shape)
            worst_resid = max(worst_resid, abs(optimality_residual(lam, result.beta)))
            report = containment_check(result.ellipsoid, [e1, e2], n_dirs=500, seed=k)
            worst_contain = max(worst_contain, report.worst_violation + 1e-9)
        print(f"{dim:>3} {args.instances:>9} {worst_vol:>14.3e} {worst_resid:>12.3e} "
              f"{worst_contain:>14.3e} {solve_time / args.instances * 1e3:>9.3f} ms")


if __name__ == "__main__":
    main()
