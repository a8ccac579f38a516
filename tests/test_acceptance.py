"""Acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
single pass/fail line (run pytest with -s to see them). The random corpora
are seeded, so runs are reproducible.
"""

import math
import time

import numpy as np
import pytest

from sungeo import (
    brute_force_m,
    diameter,
    distance,
    expm_skew,
    frobenius_norm,
    log_map,
    m_value,
    plog_status,
    random_special_unitary,
    random_unitary,
    spectral_summary,
    theta_descriptor,
    theta_sample,
    validate_special_unitary,
    AdmissibleTuple,
)

PI = math.pi


def report(num: int, label: str, checks, elapsed: float, budget: float | None = None):
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"[{status}] criterion {num}: {label} ({elapsed:.2f} s)"
    print(line)
    assert not failed, f"criterion {num} failed: {', '.join(failed)}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget:.0f} s budget"


@pytest.fixture(scope="module")
def corpus():
    """100 Haar-random matrices per order 2..7, with spectral summaries."""
    start = time.perf_counter()
    data = {}
    for n in range(2, 8):
        rows = []
        for i in range(100):
            q = random_special_unitary(n, seed=1000 * n + i)
            rows.append((q, spectral_summary(q)))
        data[n] = rows
    return data, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_results(corpus):
    """Closed form and brute-force oracle evaluated over the corpus."""
    data, gen_elapsed = corpus
    start = time.perf_counter()
    results = {}
    for n, rows in data.items():
        out = []
        for _, sd in rows:
            closed = m_value(sd)
            brute, minimizers = brute_force_m(sd.args, sd.zeta, K=3)
            out.append((sd, closed, brute, minimizers))
        results[n] = out
    return results, gen_elapsed + time.perf_counter() - start


def test_criterion_1_diameter_values():
    start = time.perf_counter()
    checks = []
    for n in (2, 4, 6, 8):
        checks.append((f"closed form n={n}",
                       diameter(n) == PI * math.sqrt(n)))
        p = validate_special_unitary(np.eye(n))
        q = validate_special_unitary(-np.eye(n))
        checks.append((f"pipeline distance n={n}",
                       abs(distance(p, q) - PI * math.sqrt(n)) <= 1e-9))
    for n in (3, 5, 7):
        checks.append((f"closed form n={n}",
                       diameter(n) == PI * math.sqrt(n - 1.0 / n)))
        p = validate_special_unitary(np.eye(n))
        q = validate_special_unitary(np.exp(1j * (n - 1) * PI / n) * np.eye(n))
        checks.append((f"pipeline distance n={n}",
                       abs(distance(p, q) - PI * math.sqrt(n - 1.0 / n)) <= 1e-9))
    report(1, "diameter closed forms and full-pipeline distances",
           checks, time.perf_counter() - start, budget=1.0)


def test_criterion_2_oracle_equivalence(oracle_results):
    results, elapsed = oracle_results
    start = time.perf_counter()
    checks = []
    for n, rows in results.items():
        worst = max(abs(closed - brute) / max(1.0, closed)
                    for _, closed, brute, _ in rows)
        checks.append((f"n={n} worst relative gap {worst:.2e}", worst <= 1e-9))
    report(2, "closed form equals brute force on 100 Haar matrices per order 2..7",
           checks, elapsed + time.perf_counter() - start, budget=60.0)


def test_criterion_3_minimizer_structure(oracle_results):
    results, _ = oracle_results
    start = time.perf_counter()
    spread_ok = True
    entries_ok = True
    for rows in results.values():
        for sd, _, _, minimizers in rows:
            for k in minimizers:
                if max(k) - min(k) > 1:
                    spread_ok = False
                if sd.zeta >= 0:
                    if k.count(-1) != sd.zeta or any(v not in (0, -1) for v in k):
                        entries_ok = False
    checks = [("every minimizer has spread <= 1", spread_ok),
              ("nonnegative winding: exactly zeta entries -1, rest 0", entries_ok)]
    report(3, "brute-force minimizer structure", checks,
           time.perf_counter() - start)


def test_criterion_4_log_roundtrip():
    start = time.perf_counter()
    checks = []
    for n in range(2, 9):
        worst_exp = 0.0
        worst_norm = 0.0
        for i in range(100):
            p = random_special_unitary(n, seed=20_000 + 200 * n + 2 * i)
            q = random_special_unitary(n, seed=20_001 + 200 * n + 2 * i)
            x = log_map(p, q)
            e = expm_skew(x)
            worst_exp = max(worst_exp,
                            float(np.linalg.norm(p.entries @ e.entries - q.entries)))
            worst_norm = max(worst_norm,
                             abs(frobenius_norm(x.entries) - distance(p, q)))
        checks.append((f"n={n} exp roundtrip {worst_exp:.2e}", worst_exp <= 1e-7 * n))
        checks.append((f"n={n} norm vs distance {worst_norm:.2e}", worst_norm <= 1e-9))
    report(4, "log map round trip on 100 random pairs per order 2..8",
           checks, time.perf_counter() - start, budget=30.0)


def test_criterion_5_plog_classifier():
    start = time.perf_counter()
    tuples = [
        # zeta < 0
        [-2 * PI / 3] * 3,
        [-PI / 2] * 4,
        [-0.85 * PI, -0.8 * PI, -0.75 * PI, -0.6 * PI, PI],
        # 0 <= zeta <= s
        [0.0] * 3,
        [-0.9 * PI, -0.8 * PI, -0.3 * PI, PI, PI],
        [0.0, 0.0, PI, PI],
        [PI, PI],
        [PI, PI, PI, PI],
        # zeta > s
        [2 * PI / 3] * 3,
        [PI / 2] * 4,
        [0.7 * PI, 0.75 * PI, 0.75 * PI, 0.8 * PI, PI],
    ]
    checks = []
    regimes = set()
    for args in tuples:
        q = AdmissibleTuple.from_args(args).to_special_unitary()
        sd = spectral_summary(q)
        if sd.zeta < 0:
            regimes.add("negative")
        elif sd.zeta <= sd.s:
            regimes.add("inside")
        else:
            regimes.add("above")
        status = plog_status(sd)
        plain = float(np.dot(sd.args, sd.args))
        agrees = status.nonempty == (abs(m_value(sd) - plain) <= 1e-9)
        checks.append((f"tuple zeta={sd.zeta} s={sd.s}", agrees))
    checks.append(("corpus spans all three regimes",
                   regimes == {"negative", "inside", "above"}))
    report(5, "principal-logarithm classifier agrees with the norm criterion",
           checks, time.perf_counter() - start)


def test_criterion_6_theta_family():
    start = time.perf_counter()
    q = validate_special_unitary(-np.eye(2))
    td = theta_descriptor(q)
    rng = np.random.default_rng(606)
    samples = [theta_sample(td, random_unitary(2, rng)).logs[0] for _ in range(50)]
    exp_ok = all(np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-9
                 for x in samples)
    norm_ok = all(abs(frobenius_norm(x.entries) - PI * math.sqrt(2)) <= 1e-10
                  for x in samples)
    spread = max(np.linalg.norm(samples[0].entries - x.entries) for x in samples)
    singleton = theta_descriptor(validate_special_unitary(
        np.diag(np.exp(1j * np.array([0.1, 0.2, -0.3]))))).is_singleton
    checks = [
        ("all 50 samples exponentiate to -I2", exp_ok),
        ("all samples have norm pi*sqrt(2)", norm_ok),
        ("at least two samples are far apart", spread > 0.1),
        ("distinct-spectrum matrix has singleton set", singleton),
    ]
    report(6, "Grassmannian family of minimal logarithms of -I2",
           checks, time.perf_counter() - start, budget=5.0)


def test_criterion_7_metric_properties():
    start = time.perf_counter()
    checks = []
    for n in range(2, 7):
        sym_worst = 0.0
        tri_worst = -np.inf
        binv_worst = 0.0
        ident_worst = 0.0
        for i in range(200):
            base = 40_000 + 800 * n + 4 * i
            p = random_special_unitary(n, seed=base)
            q = random_special_unitary(n, seed=base + 1)
            r = random_special_unitary(n, seed=base + 2)
            u = random_special_unitary(n, seed=base + 3)
            dpq = distance(p, q)
            sym_worst = max(sym_worst, abs(dpq - distance(q, p)))
            tri_worst = max(tri_worst,
                            distance(p, r) - (dpq + distance(q, r)))
            left = distance(validate_special_unitary(u.entries @ p.entries),
                            validate_special_unitary(u.entries @ q.entries))
            right = distance(validate_special_unitary(p.entries @ u.entries),
                             validate_special_unitary(q.entries @ u.entries))
            binv_worst = max(binv_worst, abs(left - dpq), abs(right - dpq))
            if i < 25:
                ident_worst = max(ident_worst, distance(p, p))
        checks.append((f"n={n} symmetry {sym_worst:.2e}", sym_worst <= 1e-9))
        checks.append((f"n={n} triangle slack {tri_worst:.2e}", tri_worst <= 1e-8))
        checks.append((f"n={n} bi-invariance {binv_worst:.2e}", binv_worst <= 1e-8))
        checks.append((f"n={n} identity {ident_worst:.2e}", ident_worst <= 1e-9))

        bound = diameter(n) + 1e-8
        rng = np.random.default_rng(70_000 + n)
        worst = 0.0
        for _ in range(10_000):
            p = random_special_unitary(n, rng)
            q = random_special_unitary(n, rng)
            worst = max(worst, distance(p, q))
        checks.append((f"n={n} max distance {worst:.6f} vs diameter {diameter(n):.6f}",
                       worst <= bound))
    report(7, "metric axioms, bi-invariance, and the diameter bound",
           checks, time.perf_counter() - start, budget=120.0)


def test_criterion_8_adjoint_symmetry(corpus):
    data, _ = corpus
    start = time.perf_counter()
    checks = []
    for n, rows in data.items():
        m_worst = 0.0
        zeta_ok = True
        for q, sd in rows:
            sd_adj = spectral_summary(validate_special_unitary(q.entries.conj().T))
            m_worst = max(m_worst, abs(m_value(sd_adj) - m_value(sd)))
            if sd_adj.zeta != sd.s - sd.zeta:
                zeta_ok = False
        checks.append((f"n={n} |m(Q*) - m(Q)| {m_worst:.2e}", m_worst <= 1e-12))
        checks.append((f"n={n} zeta(Q*) = s - zeta(Q)", zeta_ok))
    report(8, "adjoint symmetry of the minimum and the winding relation",
           checks, time.perf_counter() - start)
