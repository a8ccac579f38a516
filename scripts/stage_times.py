"""Time each stage of a small-order pair request on one Haar pair, and of
sampling a family of minimal logarithms.

For each order given, prints the best of ``--repeat`` ``timeit`` runs of
``--number`` calls, in microseconds per call, of: validating P and Q,
the relative product P^*Q, ``unitary_eig`` of it and the Hermitian solve
inside it, ``spectral_summary``, ``distance``, ``log_map``,
``geodesic_family``, the same with its canonical X read (``geodesic_family``
builds no X, so the difference is what the logarithm costs) and
``geodesic_eval`` at t = 0.5; then
``theta_descriptor`` and ``theta_sample`` of a stack of 8 Haar unitaries at
the deep hole e^{2 pi i a / n} I, a = n // 2, whose minimal logarithms form
a family at every order n >= 2. The output is one JSON object keyed by order:

    python scripts/stage_times.py 2 4 8

The repeats cycle through the stages, so a slow spell of the machine
spreads over all of them rather than landing on one. Best-of times are a
floor, not a typical request: compare them only with other best-of times
taken on the same machine.
"""

import argparse
import json
import math
import timeit

import numpy as np

from sungeo import (
    distance,
    geodesic_eval,
    geodesic_family,
    log_map,
    random_special_unitary,
    random_unitary,
    spectral_summary,
    theta_descriptor,
    theta_sample,
    unitary_eig,
    validate_special_unitary,
)
from sungeo.matrixcore import _TURN, _eigh

# The pair at order n is drawn from seeds [SEED, n, 1] and [SEED, n, 2], the
# sampling stack from [SEED, n, 3].
SEED = 0


def stages(n: int) -> dict:
    p = random_special_unitary(n, seed=[SEED, n, 1])
    q = random_special_unitary(n, seed=[SEED, n, 2])
    p_raw, q_raw = p.entries.copy(), q.entries.copy()
    pq = p.adjoint_times(q)
    turned = pq.entries * _TURN
    herm = turned.conj().T + turned
    seg = geodesic_family(p, q).canonical
    hole = validate_special_unitary(np.exp(2j * math.pi * (n // 2) / n) * np.eye(n))
    td = theta_descriptor(hole)
    rs = random_unitary(td.nu1 + td.nu2, [SEED, n, 3], 8)
    return {
        "validate x2": lambda: (validate_special_unitary(p_raw), validate_special_unitary(q_raw)),
        "P^*Q": lambda: p.adjoint_times(q),
        "unitary_eig": lambda: unitary_eig(pq),
        "eigh": lambda: _eigh(herm),
        "spectral_summary": lambda: spectral_summary(pq),
        "distance": lambda: distance(p, q),
        "log_map": lambda: log_map(p, q),
        "geodesic_family": lambda: geodesic_family(p, q),
        "canonical X": lambda: geodesic_family(p, q).canonical.X,
        "geodesic_eval": lambda: geodesic_eval(seg, 0.5),
        "theta_descriptor": lambda: theta_descriptor(hole),
        "theta_sample x8": lambda: theta_sample(td, rs),
    }


# Flag value types. A ValueError makes argparse report a usage error.

def order(text: str) -> int:
    """An order of at least 2: SU(1) is {I}, whose deep hole is no family."""
    n = int(text)
    if n < 2:
        raise ValueError(text)
    return n


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("orders", type=order, nargs="+", help="matrix orders to time, each >= 2")
    parser.add_argument("--repeat", type=positive_int, default=5,
                        help="timeit runs per stage; the best is kept")
    parser.add_argument("--number", type=positive_int, default=2000, help="calls per timeit run")
    args = parser.parse_args()

    table = {}
    for n in args.orders:
        timers = {name: timeit.Timer(fn) for name, fn in stages(n).items()}
        best = dict.fromkeys(timers, float("inf"))
        for _ in range(args.repeat):
            for name, timer in timers.items():
                best[name] = min(best[name], timer.timeit(args.number))
        table[n] = {name: round(1e6 * t / args.number, 2) for name, t in best.items()}
    print(json.dumps(table))


if __name__ == "__main__":
    main()
