"""Tabulate the diameter of SU(n) and verify it through the full pipeline.

For each order the closed form is compared against the eigendecomposition
path evaluated at the deep hole e^{2 pi i a / n} I, a = n // 2, of the
lattice 2 pi A_{n-1}, and the reported diametral points of a random base
point are checked to sit at the diameter.
"""

import argparse
import math

import numpy as np

from sungeo import (
    diameter,
    diametral_points,
    distance,
    random_special_unitary,
    validate_special_unitary,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'n':>3} {'diameter':>12} {'pipeline':>12} {'gap':>10} {'points':>7} {'worst point gap':>16}")
    for n in range(2, args.max_order + 1):
        delta = diameter(n)
        identity = validate_special_unitary(np.eye(n))
        far = validate_special_unitary(np.exp(2j * math.pi * (n // 2) / n) * np.eye(n))
        pipeline = distance(identity, far)

        base = random_special_unitary(n, seed=args.seed + n)
        points = diametral_points(base)
        worst = max(abs(distance(base, pt) - delta) for pt in points)
        print(f"{n:>3} {delta:>12.8f} {pipeline:>12.8f} {abs(pipeline - delta):>10.1e} "
              f"{len(points):>7} {worst:>16.1e}")


if __name__ == "__main__":
    main()
