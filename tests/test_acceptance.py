"""Acceptance gate: one test per shipped guarantee.

Each test prints a single criterion line in the terminal summary via
helpers.record_acceptance, then asserts.  Numbers quoted here are the
frozen contract values; tolerances are pinned, not tuned.
"""

import io
import json

import numpy as np
import pytest

from paymech import (
    Infeasible,
    InfoStructure,
    PvcParams,
    SecurityParams,
    TargetNotImplementable,
    build_pvc,
    deposit_lower_bound,
    implemented_utilities,
    left_inverse,
    lp_to_game,
    minmax_deposit,
    monte_carlo,
    norms,
    point_from_scheme,
    run_episode,
    scheme_for_target,
    scheme_from_point,
    spectral_norm,
    synthesize,
    SynthesisOptions,
    trial_seed,
    verify,
)
from paymech.cli import dispatch
from paymech.security import build_constraints

from .helpers import (
    lp_oracle,
    oracle_rows,
    random_lp,
    random_profile,
    random_tree,
    record_acceptance,
    solvable_instance,
    system_rows,
)


def conclude(num: int, ok: bool, detail: str) -> None:
    record_acceptance(num, ok, detail)
    assert ok, f"criterion {num}: {detail}"


def _cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_commerce_cli_golden(tmp_path):
    game = tmp_path / "game.json"
    code, _, _ = _cli(["gen", "commerce", "--x", "100", "--xprime", "50",
                       "--eps", "0.1", "-o", str(game)])
    target = tmp_path / "target.json"
    target.write_text(json.dumps({
        "target_e": [[-100, 0, -50, 50], [100, -50, -50, 50]],
    }))
    code2, out, _ = _cli(["implement", str(game), "--target", str(target)])
    doc = json.loads(out) if code2 == 0 else {}
    want = np.array([[0.0, -25.0, 225.0], [0.0, 56.25, -6.25]])
    lam_ok = code == 0 and code2 == 0 and np.allclose(doc.get("lambda"), want, atol=1e-9)
    dep_ok = code2 == 0 and np.allclose(doc.get("max_deposits"), [225.0, 56.25], atol=1e-9)
    conclude(1, lam_ok and dep_ok,
             "commerce CLI reproduces the closed-form payments and deposits (225, 56.25)")


def test_criterion_02_commerce_sharpness(commerce):
    at = verify(commerce.tree, commerce.info, commerce.scheme, commerce.profile,
                SecurityParams(delta=100.0, t=1))
    beyond = verify(commerce.tree, commerce.info, commerce.scheme, commerce.profile,
                    SecurityParams(delta=100.001, t=1))
    ok = at.passed and not beyond.passed and len(beyond.violations) == 3
    conclude(2, ok,
             "commerce scheme verifies at delta=100 and breaks all 3 constraints at 100.001")


def test_criterion_03_pvc_grid():
    checked = 0
    ok = True
    for n in (2, 3):
        for eps in (0.2, 0.5, 0.9):
            for delta in (0.0, 0.5, 2.0):
                inst = build_pvc(PvcParams(n=n, eps=eps, u_plus=2.0, u_minus=-1.0, delta=delta))
                params = SecurityParams(delta=delta)
                at = verify(inst.tree, inst.info, inst.scheme, inst.profile, params)
                beyond = verify(inst.tree, inst.info, inst.scheme, inst.profile,
                                SecurityParams(delta=1.0 + delta + 1e-3))
                inv = left_inverse(inst.info)
                eye = np.eye(inst.info.m)
                inv_ok = np.allclose(inv @ inst.info.phi, eye, atol=1e-8) and np.allclose(
                    inst.info.phi @ inv, eye, atol=1e-8
                )
                dep = ((1 - eps) * 2.0 + delta) / eps
                dep_ok = np.allclose(inst.scheme.max_deposits, dep, atol=1e-9)
                ok = ok and at.passed and not beyond.passed and inv_ok and dep_ok
                checked += 1
    conclude(3, ok and checked == 18,
             "pvc grid (2 n values x 9 eps/delta pairs): verifies at delta, "
             "breaks at (1+delta)+1e-3 (the derived target's margin is one "
             "unit above the request by construction), left inverse exact, "
             "deposits ((1-eps)u+ + delta)/eps")


def _random_info(rng, m, s):
    phi = rng.dirichlet(np.ones(s), size=m).T
    return InfoStructure(tuple(f"s{k}" for k in range(s)), phi)


def test_criterion_04_target_implementation():
    rng = np.random.default_rng(404)
    full_ok = 0
    for _ in range(50):
        m = int(rng.integers(2, 6))
        s = int(rng.integers(m, m + 4))
        info = _random_info(rng, m, s)
        while np.linalg.matrix_rank(info.phi) < m:
            info = _random_info(rng, m, s)
        n = int(rng.integers(1, 4))
        u = rng.integers(-5, 6, size=(n, m)).astype(float)
        lam0 = rng.normal(size=(n, s)).round(3)
        target = u - lam0 @ info.phi
        scheme = scheme_for_target(u, target, info)
        if np.max(np.abs(scheme.matrix @ info.phi - (u - target))) < 1e-8:
            full_ok += 1
    deficient_ok = 0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        s = int(rng.integers(m, m + 4))
        info = _random_info(rng, m, s)
        phi = np.array(info.phi)
        phi[:, 1] = phi[:, 0]  # duplicate columns force rank < m
        info = InfoStructure(info.alphabet, phi)
        n = int(rng.integers(1, 4))
        u = rng.integers(-5, 6, size=(n, m)).astype(float)
        v = np.zeros(m)
        v[0], v[1] = 1.0, -1.0  # orthogonal to every emission row
        coefs = rng.uniform(0.5, 2.0, size=n)
        target = u - np.outer(coefs, v)
        try:
            scheme_for_target(u, target, info)
        except TargetNotImplementable:
            deficient_ok += 1
    conclude(4, full_ok == 50 and deficient_ok == 20,
             f"exact targets: {full_ok}/50 full-rank solves with residual < 1e-8, "
             f"{deficient_ok}/20 rank-deficient targets rejected")


def test_criterion_05_zero_inflation_column_sums():
    rng = np.random.default_rng(505)
    opts = SynthesisOptions(zero_inflation=True)
    successes = 0
    worst = 0.0
    for _ in range(20):
        tree, info, profile = solvable_instance(rng)
        delta = float(rng.uniform(0.0, 1.5))
        try:
            scheme = synthesize(tree, info, profile, SecurityParams(delta=delta), opts=opts)
        except Infeasible:
            continue
        successes += 1
        u = tree.u
        e = implemented_utilities(u, scheme, info)
        worst = max(worst, float(np.max(np.abs((u - e).sum(axis=0)))))
    conclude(5, successes >= 15 and worst < 1e-7,
             f"zero-inflation synthesis: {successes} solves, worst |column sum| "
             f"of U-E is {worst:.2e} (< 1e-7)")


def test_criterion_06_constraint_oracle():
    rng = np.random.default_rng(606)
    mismatches = 0
    for _ in range(200):
        tree = random_tree(rng, n_players=int(rng.integers(1, 4)))
        profile = random_profile(rng, tree)
        t = int(rng.integers(1, min(tree.n, 2) + 1))
        delta = float(rng.uniform(0.0, 2.0))
        system = build_constraints(tree, profile, SecurityParams(delta=delta, t=t))
        if system_rows(system) != oracle_rows(tree, profile, delta, t):
            mismatches += 1
    conclude(6, mismatches == 0,
             "constraint builder matches the brute-force enumeration on 200 random trees")


def test_criterion_07_lp_oracle():
    from paymech.simplex import solve

    rng = np.random.default_rng(707)
    bad = 0
    optimal_seen = 0
    for _ in range(500):
        lp = random_lp(rng)
        status, value = lp_oracle(lp.c, lp.g, lp.h, lp.a_eq, lp.b_eq)
        out = solve(lp)
        if out.status != status:
            bad += 1
            continue
        if status == "optimal":
            optimal_seen += 1
            if abs(out.value - value) > 1e-7 * (1.0 + abs(value)):
                bad += 1
                continue
            x = out.x
            if lp.g is not None and lp.g.size and np.any(lp.g @ x < lp.h - 1e-7):
                bad += 1
            if lp.a_eq is not None and lp.a_eq.size and np.any(
                np.abs(lp.a_eq @ x - lp.b_eq) > 1e-7
            ):
                bad += 1
    conclude(7, bad == 0 and optimal_seen > 100,
             f"simplex agrees with vertex enumeration on 500 random programs "
             f"({optimal_seen} optimal, all re-verified feasible)")


def test_criterion_08_synthesis_soundness():
    rng = np.random.default_rng(808)
    grid = (0.0, 0.5, 1.0, 2.0)
    verified = 0
    monotone = True
    total = 0
    for _ in range(100):
        tree, info, profile = solvable_instance(rng)
        prev = -np.inf
        for delta in grid:
            scheme = synthesize(tree, info, profile, SecurityParams(delta=delta))
            total += 1
            report = verify(tree, info, scheme, profile, SecurityParams(delta=delta))
            if report.passed:
                verified += 1
            top = float(scheme.max_deposits.max())
            if top < prev - 1e-7:
                monotone = False
            prev = top
    conclude(8, verified == total == 400 and monotone,
             f"synthesized schemes verified {verified}/{total}; min-max deposit "
             f"nondecreasing along delta in {grid}")


def test_criterion_09_reduction_round_trip():
    rng = np.random.default_rng(909)
    params = SecurityParams(delta=0.0)
    agreements = 0
    inversions = 0
    trials = 0
    while trials < 100:
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        a = rng.integers(0, 4, size=(p, d)).astype(float)
        a[a.sum(axis=1) == 0, 0] = 1.0
        b = rng.integers(-3, 4, size=p).astype(float)
        c = rng.integers(-3, 4, size=d).astype(float)
        x = rng.integers(0, 4, size=d).astype(float)
        margin = float((a @ x - b).min())
        if abs(margin) < 1e-6:
            continue  # stay clear of the knife edge
        trials += 1
        inst = lp_to_game(a, b, c)
        scheme = scheme_from_point(inst, x)
        report = verify(inst.tree, inst.info, scheme, inst.profile, params)
        if report.passed == (margin > 0):
            agreements += 1
        if np.array_equal(point_from_scheme(inst, scheme), x):
            inversions += 1
    conclude(9, agreements == 100 and inversions == 100,
             "gadget security at zero margin matches A x >= b on 100 systems; "
             "point extraction inverts scheme construction exactly")


def test_criterion_10_escrow_monte_carlo(commerce):
    deviation = {"root": "send", "after_send": "reject", "after_not_send": "reject"}
    seed, trials = 1006, 10000
    res = monte_carlo(commerce.tree, commerce.info, commerce.scheme, deviation, trials, seed)
    target = commerce.target_e[:, 2]  # the reject-after-send leaf
    gaps = np.abs(res.mean_utilities - target)
    close = bool(np.all(gaps <= 4.0 * res.std_errors))
    min_surplus = min(
        run_episode(commerce.tree, commerce.info, commerce.scheme, deviation,
                    trial_seed(seed, idx)).surplus
        for idx in range(trials)
    )
    again = monte_carlo(commerce.tree, commerce.info, commerce.scheme, deviation, trials, seed)
    identical = (
        np.array_equal(res.mean_utilities, again.mean_utilities)
        and np.array_equal(res.std_errors, again.std_errors)
        and np.array_equal(res.symbol_frequencies, again.symbol_frequencies)
    )
    conclude(10, close and min_surplus >= -1e-9 and identical,
             f"10000 deviation episodes: means within 4 SE of (-50, -50), "
             f"min ledger surplus {min_surplus:.3g} >= 0, reruns byte-identical")


def test_criterion_11_norm_and_bound_identities():
    rng = np.random.default_rng(1111)
    slack = 1e-9
    norm_ok = 0
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        mat = rng.normal(size=(rows, cols)) * rng.uniform(0.1, 10.0)
        two = spectral_norm(mat)
        rep = norms(mat)
        checks = (
            rep.one_norm / np.sqrt(rows) <= two + slack,
            two <= np.sqrt(cols) * rep.one_norm + slack,
            rep.inf_norm / np.sqrt(cols) <= two + slack,
            two <= np.sqrt(rows) * rep.inf_norm + slack,
            two + slack >= rep.max_norm,
            rep.max_norm + slack >= two / np.sqrt(rows * cols),
        )
        if all(checks):
            norm_ok += 1
    ordered = True
    dominated = 0
    bound_hits = 0
    instances = 0
    while instances < 15:
        tree, info, profile = solvable_instance(rng)
        delta = float(rng.uniform(0.0, 1.0))
        params = SecurityParams(delta=delta)
        try:
            report = deposit_lower_bound(tree, info, profile, params)
        except Exception:
            continue
        instances += 1
        if report.conservative_bound > report.optimistic_bound + 1e-12:
            ordered = False
        top = float(synthesize(tree, info, profile, params).max_deposits.max())
        if top >= minmax_deposit(tree, info, profile) - 1e-7:
            dominated += 1
        if top >= report.optimistic_bound - 1e-9:
            bound_hits += 1
    conclude(11, norm_ok == 100 and ordered and dominated == 15,
             f"norm sandwich identities 100/100; conservative <= optimistic on all "
             f"15 instances; synthesized deposit >= zero-margin optimum always "
             f"(headline bound held {bound_hits}/15, reported only)")
