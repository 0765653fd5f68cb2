"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Tolerances are pinned here, not tuned at runtime.
"""

import numpy as np
import pytest

from dqe import agsp, analytics as an, circuits as cc, instrument as im, noise as nz
from dqe import pauli, stopping as st, trajectory as tj

import oracles
from oracles import (
    chow_expected_rank_enumerated,
    column_stacked,
    fixed_point_iterate,
    global_channel,
    global_pair,
    global_run_success_probs,
    markov_expected_absorption,
    trace_row,
)


def _report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. Linear-AGSP parameters reproduce the closed forms within 1e-9
# ---------------------------------------------------------------------------


def test_criterion_01_linear_agsp_parameters(ham_z, heis2, maxsat_single):
    worst = 0.0
    for ham in (ham_z, heis2, maxsat_single):
        spec = pauli.diagonalize(ham)
        a = agsp.agsp_linear(ham, spec)
        measured = agsp.verify_agsp(a.operator, spec.ground_projector)
        claimed_sg = (1.0 - spec.lambda0 / ham.kappa) / 2.0
        claimed_sd = (1.0 - spec.lambda1 / ham.kappa) / 2.0
        worst = max(
            worst,
            abs(measured.sqrt_gamma - claimed_sg),
            abs(measured.sqrt_delta - claimed_sd),
            measured.epsilon,
        )
    ok = worst <= 1e-9
    assert _report(1, ok, f"max deviation from closed forms {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Stopped-state oracle on Heisenberg 2..4 with global resampling
# ---------------------------------------------------------------------------


def test_criterion_02_stopped_state_oracle():
    eps, n_stop, trials = 0.5, 4, 10_000
    all_ok = True
    details = []
    for size in (2, 3, 4):
        ham = pauli.build_heisenberg_chain(size)
        cfg = tj.RunConfig(
            ham,
            agsp_mode="linear-global",
            schedule=st.EpsilonSchedule.constant(eps),
            resampler="global",
            rule=st.FirstRunOfZeros(n_stop),
            seed=1000 + size,
        )
        engine = tj.TrajectoryEngine(cfg)
        e0 = engine.sweep_success_kraus(eps)
        stats = tj.run_ensemble(cfg, trials, engine=engine)
        state = oracles.expected_state_global(e0, n_stop)
        exact_ov = float(np.trace(engine.pi0 @ state).real)
        exact_tau = an.expected_tau_global(e0, n_stop)
        z_ov = abs(stats.mean_overlap - exact_ov) / max(stats.stderr_overlap, 1e-30)
        z_tau = abs(stats.mean_tau - exact_tau) / max(stats.stderr_tau, 1e-30)
        ok = z_ov <= 3.0 and z_tau <= 3.0
        # exact overlap dominates the stopped-process bound at every depth
        params = agsp.verify_agsp(e0, engine.pi0)
        spec = engine.spectral
        for n in range(1, 9):
            state = oracles.expected_state_global(e0, n)
            exact_n = float(np.trace(engine.pi0 @ state).real)
            bound = an.overlap_lower_bound(params, spec.dimension, spec.degeneracy, n)
            ok = ok and exact_n >= bound.value - 1e-9
        details.append(f"n={size}: z_ov={z_ov:.2f} z_tau={z_tau:.2f}")
        all_ok = all_ok and ok
    # the eps = 1 instrument on the 2-qubit chain has Delta/Gamma = 1/9
    heis2 = pauli.build_heisenberg_chain(2)
    spec2 = pauli.diagonalize(heis2)
    k = agsp.agsp_linear(heis2, spec2).operator
    p = agsp.verify_agsp(k, spec2.ground_projector)
    assert p.delta / p.gamma == pytest.approx(1.0 / 9.0, abs=1e-12)
    for n in range(1, 9):
        state = oracles.expected_state_global(k, n)
        exact_n = float(np.trace(spec2.ground_projector @ state).real)
        bound = 1.0 - 4.0 * (1.0 / 9.0) ** n
        all_ok = all_ok and exact_n >= bound - 1e-9
    assert _report(2, all_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. Martingale run-time closed form for a projector AGSP
# ---------------------------------------------------------------------------


def test_criterion_03_martingale_run_time():
    k = np.diag([1.0, 0.0]).astype(complex)  # D = 2, N = 1
    tau = an.expected_tau_global(k, 3)
    oracle = markov_expected_absorption(global_run_success_probs(k, 3))
    ok = abs(tau - 4.0) <= 1e-12 and abs(tau - oracle) <= 1e-12
    assert _report(3, ok, f"E(tau)={tau!r}, D/N + n - 1 = 4, markov oracle {oracle!r}")


# ---------------------------------------------------------------------------
# 4. General-resampling formulas: reductions and trace identities
# ---------------------------------------------------------------------------


def test_criterion_04_general_resampling_identities():
    worst_reduce = 0.0
    worst_trace = 0.0
    worst_tp = 0.0
    for size in (2, 3, 4):
        ham = pauli.build_heisenberg_chain(size)
        spec = pauli.diagonalize(ham)
        d = ham.dimension
        rho0 = np.eye(d) / d
        a = agsp.agsp_linear(ham, spec)
        inst = oracles.make_instrument(a.operator, 0.5, "global")
        t0g, t1g = global_pair(inst)
        for n in (1, 3, 6):
            state = an.expected_state_general(t0g, t1g, rho0, n)
            ref = oracles.expected_state_global(inst.e0, n)
            worst_reduce = max(worst_reduce, float(np.abs(state - ref).max()))
            tau = an.expected_tau_general(t0g, t1g, rho0, n)
            tau_ref = an.expected_tau_global(inst.e0, n)
            worst_reduce = max(worst_reduce, abs(tau - tau_ref) / max(tau_ref, 1.0))
        # local resampling: normalization of the expected stopped state
        amax = max(abs(t.coefficient) for t in ham.terms)
        insts = [
            oracles.make_instrument((abs(t.coefficient) / amax) * f.k_local, 0.2, "local", support=f.support)
            for t, f in zip(ham.terms, im.term_instruments(ham, "sum"))
        ]
        t0l, t1l = im.sweep_transfer_product(insts, size)
        for n in (1, 4):
            rho = an.expected_state_general(t0l, t1l, rho0, n)
            worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
        # trace-preservation of E0^n W^{-1} (all instruments) and of
        # E1 (1-E0)^{-1} (needs spectral radius of E0 below 1, which the
        # Gamma = 1 two-qubit chain does not satisfy)
        for t0, t1 in ((t0g, t1g), (t0l, t1l)):
            t0, t1 = column_stacked(t0), column_stacked(t1)
            d2 = t0.shape[0]
            row = trace_row(d)
            t0n, g_n, _ = an.geometric_sums(t0, 4)
            w = np.eye(d2) - t1 @ g_n
            lhs = np.linalg.solve(w.T, row @ t0n)
            worst_tp = max(worst_tp, float(np.abs(lhs - row).max()))
            if np.abs(np.linalg.eigvals(t0)).max() < 1.0 - 1e-9:
                lhs2 = np.linalg.solve((np.eye(d2) - t0).T, row @ t1)
                worst_tp = max(worst_tp, float(np.abs(lhs2 - row).max()))
    ok = worst_reduce <= 1e-8 and worst_trace <= 1e-8 and worst_tp <= 1e-8
    assert _report(
        4,
        ok,
        f"reduction {worst_reduce:.2e}, trace {worst_trace:.2e}, TP rows {worst_tp:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. Resampling comparison: local <= global, smaller fitted exponent
# ---------------------------------------------------------------------------


def test_criterion_05_resampling_comparison():
    eps, n_zeros = 0.2, 8
    sizes = [2, 3, 4, 5]
    taus_g, taus_l = [], []
    for size in sizes:
        ham = pauli.build_heisenberg_chain(size)
        cfg = tj.RunConfig(
            ham,
            agsp_mode="product-sweep",
            schedule=st.EpsilonSchedule.constant(eps),
            resampler="local",
            rule=st.FirstRunOfZeros(n_zeros),
            seed=0,
            weighting="max",
        )
        engine = tj.TrajectoryEngine(cfg)
        taus_g.append(an.expected_tau_global(engine.sweep_success_kraus(eps), n_zeros))
        t0, t1 = engine.sweep_transfers(eps)
        rho0 = np.eye(ham.dimension) / ham.dimension
        taus_l.append(an.expected_tau_general(t0, t1, rho0, n_zeros))
    ordered = all(l <= g + 1e-9 for l, g in zip(taus_l, taus_g))
    slope_g = float(np.polyfit(sizes, np.log(taus_g), 1)[0])
    slope_l = float(np.polyfit(sizes, np.log(taus_l), 1)[0])
    gap = slope_g - slope_l
    # Monte Carlo sanity at the smallest size
    ham2 = pauli.build_heisenberg_chain(2)
    cfg2 = tj.RunConfig(
        ham2,
        agsp_mode="product-sweep",
        schedule=st.EpsilonSchedule.constant(eps),
        resampler="local",
        rule=st.FirstRunOfZeros(n_zeros),
        seed=77,
        weighting="max",
    )
    engine2 = tj.TrajectoryEngine(cfg2)
    stats = tj.run_ensemble(cfg2, 4000, engine=engine2)
    z = abs(stats.mean_tau - taus_l[0]) / max(stats.stderr_tau, 1e-30)
    ok = ordered and gap > 0.0 and z <= 3.0
    assert _report(
        5,
        ok,
        f"local<=global at all sizes: {ordered}; slope gap {gap:+.4f} "
        f"(global {slope_g:.3f}, local {slope_l:.3f}); MC z={z:.2f}",
    )


# ---------------------------------------------------------------------------
# 6. Fixed points: closed form vs iteration, block and overlap bounds
# ---------------------------------------------------------------------------


def test_criterion_06_fixed_points():
    rng = np.random.default_rng(2024)
    worst_dist = 0.0
    bounds_ok = True
    for trial in range(10):
        d = int(rng.choice([4, 8]))
        n_ground = int(rng.integers(1, 3))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        top = rng.uniform(0.75, 0.95, size=n_ground)
        rest = rng.uniform(0.0, 0.5, size=d - n_ground)
        vals = np.concatenate([np.sort(top)[::-1], np.sort(rest)[::-1]])
        k = (q * vals) @ q.conj().T
        k = (k + k.conj().T) / 2.0
        pi = q[:, :n_ground] @ q[:, :n_ground].conj().T
        rho_direct = im.fixed_point_direct(k)
        rho_iter = fixed_point_iterate(global_channel(k), tol=1e-12)
        worst_dist = max(worst_dist, im.trace_distance(rho_direct, rho_iter))
        params = agsp.verify_agsp(k, pi)
        c = 1.0 / float(np.trace(np.linalg.inv(np.eye(d) - k @ k)).real)
        x0 = q[:, :n_ground].conj().T @ rho_direct @ q[:, :n_ground] / c
        xp = q[:, n_ground:].conj().T @ rho_direct @ q[:, n_ground:] / c
        bounds_ok &= np.linalg.eigvalsh(x0).min() >= 1.0 / (1.0 - params.gamma) - 1e-8
        bounds_ok &= np.linalg.eigvalsh(xp).max() <= 1.0 / (1.0 - params.delta) + 1e-8
        overlap = float(np.trace(pi @ rho_direct).real)
        bound = an.fixed_point_overlap_bound(params, d, n_ground)
        bounds_ok &= overlap >= bound - 1e-9
    ok = worst_dist <= 1e-8 and bool(bounds_ok)
    assert _report(6, ok, f"max |direct - iterate| {worst_dist:.2e}; bounds hold: {bool(bounds_ok)}")


# ---------------------------------------------------------------------------
# 7. Optimal stopping: Chow thresholds and the secretary policy
# ---------------------------------------------------------------------------


def test_criterion_07_optimal_stopping():
    chow_ok = True
    for n in range(1, 7):
        table = st.chow_thresholds(n)
        enumerated = chow_expected_rank_enumerated(n, table)
        chow_ok &= abs(table.expected_rank - enumerated) <= 1e-9
    ranks = [st.chow_thresholds(n).expected_rank for n in range(1, 26)]
    chow_ok &= all(r <= 3.8695 for r in ranks)

    rng = np.random.default_rng(99)
    p0, horizon, trials = 0.9, 2500, 20_000
    hits = 0
    runs_seen = []
    for _ in range(trials):
        est = int(horizon / 10) + 60
        lengths = (rng.geometric(1.0 - p0, size=est) - 1).astype(np.int64)
        coins = rng.random(est)
        stop = oracles.secretary_select(lengths, horizon, coins)
        trunc = oracles.run_lengths_within(lengths, horizon)
        runs_seen.append(len(trunc))
        if stop >= 0 and stop < len(trunc) and trunc[stop] == trunc.max():
            hits += 1
    p_hit = hits / trials
    secretary_ok = 0.30 <= p_hit <= 0.44 and np.mean(runs_seen) >= 200
    ok = chow_ok and secretary_ok
    assert _report(
        7,
        ok,
        f"chow exact to n=6, c0(25)={ranks[-1]:.4f}; "
        f"P(longest)={p_hit:.4f} over {trials} trials (~{np.mean(runs_seen):.0f} runs each)",
    )


# ---------------------------------------------------------------------------
# 8. Decaying schedule: overlap non-decreasing in the stop-run length and
#    above 0.9 at the largest.  Under eps/(t - t1) with eps = suggest_epsilon
#    = 1/16 each heis2 triplet state fails two terms, each measured twice per
#    sweep, so n successful sweeps shrink its weight by about n^(-8 eps) =
#    n^(-1/2).  The exact overlap is therefore only 0.59 at n=8 (the constant
#    schedule gives 0.96 there) and first clears 0.9 near n=400; n=1024 (exact
#    0.9408) is where the 0.9 target is checked.
# ---------------------------------------------------------------------------


def test_criterion_08_decaying_schedule(heis2):
    eps = st.suggest_epsilon(heis2)
    # Trials per stop-run length.  A run of 1024 takes about 1000 sweeps, so
    # it gets fewer trials; with a per-trajectory overlap spread of about
    # 0.15, 400 trials still put the exact value over 5 standard errors
    # above 0.9.
    trials = {2: 4000, 4: 4000, 6: 4000, 8: 4000, 1024: 400}
    run_lengths = tuple(trials)
    n_max = run_lengths[-1]
    transfers = None
    means, errs, exacts = [], [], []
    for n in run_lengths:
        cfg = tj.RunConfig(
            heis2,
            agsp_mode="product-sweep",
            schedule=st.EpsilonSchedule.decaying(eps),
            resampler="global",
            rule=st.FirstRunOfZeros(n),
            seed=8000 + n,
            weighting="max",
        )
        engine = tj.TrajectoryEngine(cfg)
        if transfers is None:
            # the sweep channels at position j depend on eps / j alone, not on n
            transfers = [engine.sweep_transfers(eps / j) for j in range(1, n_max + 1)]
        stats = tj.run_ensemble(cfg, trials[n], engine=engine)
        # a truncated run reports a snapshot, not the stopped state
        assert stats.truncated_count == 0
        means.append(stats.mean_overlap)
        errs.append(stats.stderr_overlap)
        t0s = [t0 for t0, _ in transfers[:n]]
        t1s = [t1 for _, t1 in transfers[:n]]
        rho0 = np.eye(4) / 4
        exact = float(
            np.trace(engine.pi0 @ oracles.expected_state_schedule(t0s, t1s, rho0)).real
        )
        exacts.append(exact)
        assert abs(stats.mean_overlap - exact) <= 3 * stats.stderr_overlap
    nondecreasing = all(
        means[i + 1] >= means[i] - 3 * (errs[i] + errs[i + 1])
        for i in range(len(run_lengths) - 1)
    )
    final_above = means[-1] > 0.9
    detail = (
        f"n={list(run_lengths)}: overlaps {['%.4f' % m for m in means]} "
        f"(exact {['%.4f' % e for e in exacts]}); non-decreasing: {nondecreasing}; "
        f"overlap(n={n_max}) > 0.9: {final_above} "
        f"(harmonic eps decay suppresses the triplets only as n^(-8 eps))"
    )
    ok = nondecreasing and final_above
    assert _report(8, ok, detail)


# ---------------------------------------------------------------------------
# 9. Circuit consistency on every Heisenberg-4 term
# ---------------------------------------------------------------------------


def test_criterion_09_circuit_consistency(heis4):
    rng = np.random.default_rng(5150)
    worst_stats = 0.0
    for term in heis4.terms:
        for eps in (0.05, 0.2, 1.0):
            for weight in (1.0, 1.0 / 9.0):
                circ = cc.measurement_circuit(term, eps, weight)
                piloc = im.TermInstrument(term, weight).k_local
                d = piloc.shape[0]
                inst = oracles.make_instrument(weight * piloc, eps, "identity")
                for _ in range(8):
                    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
                    psi /= np.linalg.norm(psi)
                    p0, post0, p1, post1 = oracles.simulate_measurement(circ, psi)
                    e0psi = inst.e0 @ psi
                    q0 = float(np.vdot(e0psi, e0psi).real)
                    e1psi = inst.e1 @ psi
                    q1 = float(np.vdot(e1psi, e1psi).real)
                    worst_stats = max(worst_stats, abs(p0 - q0), abs(p1 - q1))
                    if post0 is not None and q0 > 1e-12:
                        worst_stats = max(
                            worst_stats, float(np.abs(post0 - e0psi / np.sqrt(q0)).max())
                        )
                    if post1 is not None and q1 > 1e-12:
                        worst_stats = max(
                            worst_stats, float(np.abs(post1 - e1psi / np.sqrt(q1)).max())
                        )
    worst_unitarity = 0.0
    for eps in np.linspace(0.0, 1.0, 10):
        for kv in np.linspace(0.0, 1.0, 10):
            u = oracles.dilation_unitary(kv, eps).matrix
            worst_unitarity = max(worst_unitarity, float(np.abs(u @ u.T - np.eye(4)).max()))
    ok = worst_stats <= 1e-10 and worst_unitarity <= 1e-12
    assert _report(
        9, ok, f"stats deviation {worst_stats:.2e}; dilation unitarity {worst_unitarity:.2e}"
    )


# ---------------------------------------------------------------------------
# 10. Fault-resilience: run-time independence under gate noise
# ---------------------------------------------------------------------------


def test_criterion_10_fault_resilience():
    ham = pauli.build_heisenberg_chain(5)
    model = nz.DepolarizingPerGate(1e-4, 1e-4)
    report = nz.run_resilience_experiment(
        ham,
        model,
        runtimes=(2400, 9600),
        eps=0.4,
        num_trajectories=120,
        seed=17,
        weighting="max",
    )
    diff = abs(report.overlaps[1] - report.overlaps[0])
    tol = max(3 * max(report.stderrs), 0.01)
    flat = diff < tol
    series = np.asarray(report.baseline_series)
    spec = pauli.diagonalize(ham)
    floor = spec.degeneracy / spec.dimension
    baseline_ok = (
        np.all(np.diff(series) <= 1e-12)
        and series[-1] < series[0]
        and series[-1] >= floor - 1e-9
        and (series[-1] - floor) < 0.8 * (series[0] - floor)
    )

    # perturbed fixed points meet the fixed-point fault-resilience bound
    rng = np.random.default_rng(31415)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    vals = np.array([0.97, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05])
    k = (q * vals) @ q.conj().T
    k = (k + k.conj().T) / 2.0
    pi = q[:, :1] @ q[:, :1].conj().T
    params = agsp.verify_agsp(k, pi)
    inst = oracles.make_instrument(k, 1.0, "global")
    fp_ok = True
    for delta in (1e-3, 1e-2):
        for seed in (0, 1):
            pert = oracles.perturb_instrument(inst, oracles.ChannelPerturbation(delta, seed=seed))
            rho = fixed_point_iterate(global_channel(pert.e0), tol=1e-12)
            overlap = float(np.trace(pi @ rho).real)
            delta_eff = 4.0 * float(np.linalg.norm(pert.e0 - inst.e0, 2))
            bound = oracles.fixed_point_resilience_bound(params, delta_eff, 8, 1)
            fp_ok &= overlap >= bound - 1e-9
    ok = flat and baseline_ok and bool(fp_ok)
    assert _report(
        10,
        ok,
        f"overlaps {report.overlaps[0]:.4f}/{report.overlaps[1]:.4f} at caps "
        f"{report.runtimes} (diff {diff:.4f} < {tol:.4f}); per-term delta "
        f"{report.delta_measured:.2e}; baseline decays {series[0]:.3f}->{series[-1]:.3f} "
        f"(N/D={floor:.3f}); fixed-point bounds hold: {bool(fp_ok)}",
    )
