"""Explore the family of minimal logarithms of a special unitary matrix.

Prints the descriptor (winding, boundary eigenvalue, Grassmannian shape),
then draws random members of the family and shows that they all
exponentiate back to the matrix with the same minimal norm while being
genuinely different points.
"""

import argparse

import numpy as np

from sungeo import (
    grassmann_label,
    m_value,
    random_unitary,
    theta_descriptor,
    theta_sample,
    validate_special_unitary,
)
from sungeo.cli import nonnegative_int


EXAMPLES = {
    "antipode4": -np.eye(4),
    "boundary-pair": np.diag([-1.0, -1.0, 1.0, 1.0]),
    "quarter-turns": np.diag([1j, 1j, 1j, 1j]),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--example", choices=sorted(EXAMPLES), default="antipode4")
    parser.add_argument("--samples", type=nonnegative_int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    q = validate_special_unitary(np.asarray(EXAMPLES[args.example], dtype=complex))
    td = theta_descriptor(q)
    sd = td.spectral
    print(f"example {args.example}: order {q.n}, winding {sd.zeta}, "
          f"s {sd.s}, m {m_value(sd):.6f}")
    if td.is_singleton:
        print("the set of minimal logarithms is a single point")
        return
    print(f"family: {grassmann_label(*td.grassmannian)} "
          f"(nu1 {td.nu1}, nu2 {td.nu2}, boundary argument {td.beta_arg:+.6f})")

    # One stacked draw of sampling unitaries, sampled as one stack; the
    # sampler checks each round trip ||exp(X) - Q||_F and returns it with
    # the norm ||X||_F.
    drawn = theta_sample(td, random_unitary(td.nu1 + td.nu2, args.seed, args.samples))
    samples = drawn.logs
    print(f"{'sample':>6} {'norm':>12} {'exp residual':>14} {'dist to base':>14}")
    for i, (x, norm, resid) in enumerate(zip(samples, drawn.norms, drawn.residuals)):
        gap = np.linalg.norm(x.entries - td.base_log.entries)
        print(f"{i:>6} {norm:>12.8f} {resid:>14.2e} {gap:>14.6f}")
    if len(samples) > 1:
        pairwise = max(np.linalg.norm(a.entries - b.entries)
                       for i, a in enumerate(samples) for b in samples[i + 1:])
        print(f"largest pairwise separation: {pairwise:.6f}")


if __name__ == "__main__":
    main()
