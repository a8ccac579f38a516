"""Cross-check the closed-form minimal log norm against the lattice oracle.

Sweeps Haar-random matrices, compares m(Q) from the two-block formula with
the integer-lattice minimum that ``brute_force_m`` finds by dynamic
programming over the box [-K, K]^n (never from the closed form), and tallies
the structure of the minimizers it lists (exactly |zeta| entries equal to -1
for zeta >= 0, to +1 for zeta < 0, the rest 0). Boxes of more than 1e8
tuples are rejected, so with K = 3 the orders stop at 9.
"""

import argparse
import time

from sungeo import brute_force_m, m_value, random_special_unitary, spectral_summary


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", type=int, nargs="+", default=[2, 3, 4, 5, 6, 7, 8, 9])
    parser.add_argument("--per-order", type=int, default=100)
    parser.add_argument("--box", type=int, default=3, help="half-width K of the search box")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    grand_worst = 0.0
    start = time.perf_counter()
    for n in args.orders:
        worst = 0.0
        zetas = {}
        structure_violations = 0
        for i in range(args.per_order):
            q = random_special_unitary(n, seed=args.seed + 1000 * n + i)
            sd = spectral_summary(q)
            closed = m_value(sd)
            brute, minimizers = brute_force_m(sd.args, sd.zeta, K=args.box)
            worst = max(worst, abs(closed - brute) / max(1.0, closed))
            zetas[sd.zeta] = zetas.get(sd.zeta, 0) + 1
            step = -1 if sd.zeta >= 0 else 1
            structure_violations += sum(
                not (set(k) <= {0, step} and k.count(step) == abs(sd.zeta))
                for k in minimizers)
        grand_worst = max(grand_worst, worst)
        print(f"n={n}: worst relative gap {worst:.2e}, "
              f"winding counts {dict(sorted(zetas.items()))}, "
              f"structure violations {structure_violations}")
    elapsed = time.perf_counter() - start
    print(f"overall worst relative gap {grand_worst:.2e} in {elapsed:.1f} s")


if __name__ == "__main__":
    main()
