"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s, and in the captured output on failure). Tolerances are pinned
here and nowhere else.
"""

import time

import numpy as np

from numrad import (
    BoundParams,
    bound_classical,
    bound_th2,
    bound_th3,
    bound_th4,
    bound_th5,
    buzano,
    buzano_power,
    buzano_refined,
    buzano_refined_two,
    cli,
    convex_norm_check,
    cs_refinement_gen,
    cs_refinement_two,
    jensen_operator_check,
    mccarthy_check,
    mixed_schwarz_check,
    numerical_radius,
    numerical_radius_oracle,
    operator_norm,
    optimize_lambda,
    refinement_chain,
    young_amgm,
)
from numrad.bounds import cor_bomi_coefficients, th2_coefficients, th3_coefficients
from numrad.ensembles import ENSEMBLES, EnsembleConfig, generate_ensemble
from numrad.operator_lemmas import CONVEX_FUNCTIONS

J = np.array([[0, 1], [0, 0]], dtype=complex)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" [{detail}]" if detail else ""
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def _ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_criterion_1_engine_correctness():
    t0 = time.perf_counter()
    failures = []

    w_jordan = numerical_radius(J)
    if abs(w_jordan - 0.5) > 1e-8:
        failures.append(f"w(J) = {w_jordan}")

    rng = np.random.default_rng(101)
    for k in range(50):
        n = 2 + k % 7
        g = _ginibre(rng, n)
        h = (g + g.conj().T) / 2
        w = numerical_radius(h)
        target = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        scale = max(1.0, operator_norm(h))
        if abs(w - target) > 1e-8 * scale:
            failures.append(f"GUE {k}: w={w} maxeig={target}")

    rng = np.random.default_rng(202)
    for k in range(200):
        n = 2 + k % 7
        m = _ginibre(rng, n)
        w = numerical_radius(m)
        nrm = operator_norm(m)
        eps = 1e-8 * max(1.0, nrm)
        if not (nrm / 2 - eps <= w <= nrm + eps):
            failures.append(f"Ginibre {k}: w={w} norm={nrm}")
        oracle = numerical_radius_oracle(m, 4, seed=k)
        if oracle > w + eps:
            failures.append(f"Ginibre {k}: oracle {oracle} > engine {w}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(1, "engine correctness", ok, f"{elapsed:.1f}s")
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    assert not failures, failures[:5]


def test_criterion_2_scalar_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    count = 100_000
    failures = 0
    for k in range(count):
        n = 2 + k % 5
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        e_raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        e = e_raw / np.linalg.norm(e_raw)
        lam = 10.0 ** rng.uniform(-3, 3)
        nn = 1 + k % 3
        t = lam / (1.0 + lam)
        records = (
            cs_refinement_gen(x, y, lam),
            cs_refinement_two(x, y, lam),
            buzano(x, y, e),
            buzano_refined(x, y, e, lam),
            buzano_refined_two(x, y, e, lam),
            buzano_power(x, y, e, lam, nn),
            young_amgm(float(np.linalg.norm(x)) ** 2, float(np.linalg.norm(y)) ** 2, t),
        )
        failures += sum(not rec.holds for rec in records)

    eq = buzano(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([1.0, 1.0]) / np.sqrt(2))
    eq_ok = eq.slack <= 1e-12

    ok = failures == 0 and eq_ok
    elapsed = time.perf_counter() - t0
    _report(2, "scalar fuzz 1e5", ok, f"violations={failures}, {elapsed:.1f}s")
    assert failures == 0
    assert eq_ok, f"Buzano equality slack {eq.slack}"


def test_criterion_3_operator_lemma_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    per_predicate = 10_000
    failures = {"mccarthy": 0, "convex_norm": 0, "mixed_schwarz": 0, "jensen": 0}
    h_ids = sorted(CONVEX_FUNCTIONS)
    for k in range(per_predicate):
        n = 2 + k % 5
        r = rng.uniform(1.0, 4.0)
        alpha = rng.uniform(0.05, 0.95)
        g = _ginibre(rng, n)
        t_psd = g.conj().T @ g
        failures["mccarthy"] += not mccarthy_check(t_psd, _unit(rng, n), r).holds
        g2 = _ginibre(rng, n)
        failures["convex_norm"] += not convex_norm_check(t_psd, g2.conj().T @ g2, r).holds
        failures["mixed_schwarz"] += not mixed_schwarz_check(
            _ginibre(rng, n), _unit(rng, n), _unit(rng, n), alpha).holds
        gh = _ginibre(rng, n)
        failures["jensen"] += not jensen_operator_check(
            (gh + gh.conj().T) / 2, _unit(rng, n), h_ids[k % 4]).holds

    total = sum(failures.values())
    elapsed = time.perf_counter() - t0
    _report(3, "operator-lemma fuzz 4x1e4", total == 0, f"{failures}, {elapsed:.1f}s")
    assert total == 0, failures


def test_criterion_4_bound_soundness_sweep(tmp_path):
    t0 = time.perf_counter()
    codes = {}
    for ensemble in ENSEMBLES:
        for dim in (2, 3, 5, 8):
            out = tmp_path / f"{ensemble}_{dim}.json"
            code = cli.main([
                "verify", "--ensemble", ensemble, "--dim", str(dim),
                "--trials", "50", "--seed", "42",
                "--lambda-grid", "0.01,0.5,1,2,100",
                "--chains", "",
                "--out", str(out), "--format", "json",
            ])
            codes[(ensemble, dim)] = code
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in codes.items() if v != 0}
    ok = not bad and elapsed < 60.0
    _report(4, "bound soundness sweep 6x4x50", ok, f"{elapsed:.1f}s")
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    assert not bad, f"nonzero exit codes: {bad}"


def test_criterion_5_refinement_chains():
    cfg = EnsembleConfig("ginibre", 4, 200, 505)
    mats = generate_ensemble(cfg)
    params = BoundParams(lam=1.0, r=1.0)
    bad = []
    for chain_id in ("th3_elhaddad", "th4_elhaddad", "th5_elhaddad", "bomi_elhaddad"):
        for i in range(100):
            ch = refinement_chain(mats[i], None, chain_id, params)
            if not ch.holds:
                bad.append((chain_id, i, ch.links))
    for chain_id in ("th2_dragomir", "th2_aldolat"):
        for i in range(100):
            ch = refinement_chain(mats[2 * i], mats[2 * i + 1], chain_id, params)
            if not ch.holds:
                bad.append((chain_id, i, ch.links))
    _report(5, "refinement chains 6x100", not bad)
    assert not bad, bad[:5]


def test_criterion_6_equality_regressions():
    failures = []
    eye = np.eye(2, dtype=complex)
    for lam in (0.01, 1.0, 100.0):
        for name, res in (
            ("th2", bound_th2(eye, eye, 1.0, lam)),
            ("th3", bound_th3(eye, 0.5, lam)),
            ("th4", bound_th4(eye, lam)),
            ("th5", bound_th5(eye, lam)),
        ):
            if abs(res.rhs_value - 1.0) > 1e-10:
                failures.append(f"{name}@{lam}: rhs={res.rhs_value}")

    jordan_cases = (
        ("kittaneh", bound_classical(J, "kittaneh"), 0.5),
        ("abu_omar", bound_classical(J, "abu_omar"), 0.25),
        ("th3(1/2,1/2)", bound_th3(J, 0.5, 0.5), 0.25),
        ("th5(1)", bound_th5(J, 1.0), 1.0 / 16.0),
    )
    for name, res, expected in jordan_cases:
        scale = max(1.0, res.rhs_value, res.w_power_value)
        if abs(res.rhs_value - expected) > 1e-8 * scale or abs(res.slack) > 1e-8 * scale:
            failures.append(f"{name}: rhs={res.rhs_value} slack={res.slack}")

    th4_limit = bound_th4(J, 1e-9).rhs_value
    if abs(th4_limit - 1.0 / 16.0) > 1e-6:
        failures.append(f"th4 lambda->0: {th4_limit}")

    _report(6, "equality regressions", not failures)
    assert not failures, failures


def test_criterion_7_coefficient_specializations():
    failures = []
    for got, want in zip(th3_coefficients(0.5), (1 / 12, 1 / 6, 1 / 3)):
        if abs(got - want) > 1e-12:
            failures.append(f"th3: {got} != {want}")
    for got, want in zip(cor_bomi_coefficients(1.0), (3 / 16, 5 / 16)):
        if abs(got - want) > 1e-12:
            failures.append(f"cor_bomi: {got} != {want}")
    for t in (0.25, 0.5, 0.75):
        got = th2_coefficients(t)
        want = (1 / (2 * (t + 1)), t / (4 * (t + 1)), t / (2 * (t + 1)))
        for g, w in zip(got, want):
            if abs(g - w) > 1e-12:
                failures.append(f"th2@{t}: {g} != {w}")
    _report(7, "coefficient specializations", not failures)
    assert not failures, failures


def test_criterion_8_optimizer_cross_validation():
    rng = np.random.default_rng(808)
    failures = []
    for k in range(50):
        t = _ginibre(rng, 3)
        for name in ("th4", "th6", "cor_bomi"):
            closed = optimize_lambda(name, t, method="auto")
            golden = optimize_lambda(name, t, method="golden-section")
            if abs(closed.infimum - golden.infimum) > 1e-6 * max(1.0, abs(closed.infimum)):
                failures.append(f"{name}@{k}: {closed.infimum} vs {golden.infimum}")

    opt = optimize_lambda("th4", J)
    if abs(opt.infimum - 1.0 / 16.0) > 1e-10 or opt.boundary != "lambda->0":
        failures.append(f"th4(J): {opt}")

    _report(8, "optimizer cross-validation", not failures)
    assert not failures, failures[:5]


def test_criterion_9_determinism(tmp_path):
    args = ["verify", "--ensemble", "ginibre", "--dim", "3", "--trials", "10",
            "--seed", "42", "--format", "json"]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(path_a)]) == 0
    assert cli.main(args + ["--out", str(path_b)]) == 0
    byte_identical = path_a.read_bytes() == path_b.read_bytes()

    _report(9, "determinism", byte_identical, f"byte-identical={byte_identical}")
    assert byte_identical
