import math

import numpy as np
import pytest

from dqe import stopping as st
from dqe.errors import InternalOrderingError, ParameterError

import oracles
from oracles import chow_expected_rank_enumerated, geometric_run_stream, longest_zero_run


class TestChow:
    def test_boundary_cases(self):
        t1 = st.chow_thresholds(1)
        assert t1.expected_rank == pytest.approx(1.0)
        assert t1.s[1] == 1
        t2 = st.chow_thresholds(2)
        assert t2.c[1] == pytest.approx(1.5)
        assert t2.s[1] == 1
        assert t2.expected_rank == pytest.approx(1.5)

    def test_matches_enumeration_exactly(self):
        for n in range(2, 7):
            table = st.chow_thresholds(n)
            enumerated = chow_expected_rank_enumerated(n, table)
            assert table.expected_rank == pytest.approx(enumerated, abs=1e-9)

    def test_thresholds_monotone_and_capped(self):
        for n in (5, 12, 25):
            table = st.chow_thresholds(n)
            s = table.s[1:]
            assert all(a <= b for a, b in zip(s, s[1:]))
            assert s[-1] == n
            assert table.expected_rank <= 3.8695

    def test_value_increases_with_n(self):
        ranks = [st.chow_thresholds(n).expected_rank for n in range(1, 26)]
        assert all(a <= b + 1e-12 for a, b in zip(ranks, ranks[1:]))
        assert 3.0 <= ranks[-1] <= 3.8695


class TestEpsilonSchedule:
    def test_decaying_values(self):
        sched = st.EpsilonSchedule.decaying(0.3)
        assert st.epsilon_at(sched, 5, 4) == pytest.approx(0.3)
        assert st.epsilon_at(sched, 7, 4) == pytest.approx(0.1)

    def test_constant(self):
        sched = st.EpsilonSchedule.constant(0.2)
        assert st.epsilon_at(sched, 123, 0) == 0.2

    def test_ordering_error(self):
        sched = st.EpsilonSchedule.constant(0.2)
        with pytest.raises(InternalOrderingError):
            st.epsilon_at(sched, 3, 3)

    def test_base_validation(self):
        with pytest.raises(ParameterError):
            st.EpsilonSchedule.decaying(1.0)
        with pytest.raises(ParameterError):
            st.EpsilonSchedule.constant(0.0)
        st.EpsilonSchedule.constant(1.0)  # projective limit allowed


class TestSuggestEpsilon:
    def test_values(self, heis2, ham_z):
        assert st.suggest_epsilon(ham_z) == pytest.approx(0.125)
        assert st.suggest_epsilon(heis2) == pytest.approx(0.0625)

    def test_below_paper_threshold(self, heis2, heis3, maxsat_single):
        # 1/(4m+4) <= 1/(4m+2+2*lambda1/kappa) whenever lambda1 <= kappa,
        # with equality exactly at lambda1 = kappa
        from dqe import pauli

        for ham in (heis2, heis3, maxsat_single):
            spec = pauli.diagonalize(ham)
            eps = st.suggest_epsilon(ham)
            m = ham.num_terms
            assert eps <= 1.0 / (4 * m + 2 + 2 * spec.lambda1 / ham.kappa) + 1e-15


class TestRules:
    def test_first_run_of_zeros(self, rng):
        tracker = st.RuleTracker(st.FirstRunOfZeros(3), rng)
        decisions = [tracker.update(b) for b in (0, 0, 1, 0, 0, 0)]
        assert decisions == [False, False, False, False, False, True]

    def test_secretary_observation_window(self, rng):
        rule = st.Secretary(100)
        assert rule.observation_steps == 36
        history = st.OutcomeHistory(step=36, current_run=5, completed_runs=[1])
        assert not st.should_stop(rule, history, rng)
        history.step = 37
        assert st.should_stop(rule, history, rng)

    def test_secretary_requires_record(self, rng):
        rule = st.Secretary(10)
        history = st.OutcomeHistory(step=9, current_run=2, completed_runs=[5])
        assert not st.should_stop(rule, history, rng)
        history.current_run = 6
        assert st.should_stop(rule, history, rng)

    def test_secretary_tie_is_fair_coin(self):
        rule = st.Secretary(10)
        history = st.OutcomeHistory(step=9, current_run=4, completed_runs=[4])
        rng = np.random.default_rng(0)
        outcomes = {st.should_stop(rule, history, rng) for _ in range(200)}
        assert outcomes == {True, False}

    def test_expected_rank_first_candidate(self, rng):
        # s_1 = 1 for n = 2: the first run stops as soon as it is best-so-far
        tracker = st.RuleTracker(st.ExpectedRank(2), rng)
        assert tracker.update(0) is True

    def test_expected_rank_respects_zero_threshold(self, rng):
        # larger horizons have s_1 = 0: never stop on the first run
        tracker = st.RuleTracker(st.ExpectedRank(10), rng)
        for _ in range(50):
            assert tracker.update(0) is False

    def test_expected_rank_forced_at_horizon(self, rng):
        rule = st.ExpectedRank(3)
        tracker = st.RuleTracker(rule, rng)
        for bit in (1, 1):  # two zero-length runs
            assert not tracker.update(bit)
        assert tracker.update(0) is True  # third candidate is forced

    def test_time_cap_never_stops(self, rng):
        tracker = st.RuleTracker(st.TimeCap(5), rng)
        assert not any(tracker.update(0) for _ in range(20))
        assert st.TimeCap(5).hard_cap() == 5

    def test_zero_length_runs_counted(self, rng):
        tracker = st.RuleTracker(st.FirstRunOfZeros(2), rng)
        for bit in (1, 1, 1):
            tracker.update(bit)
        assert tracker.history.completed_runs == [0, 0, 0]


class TestReplayDeterminism:
    def test_prefix_replay_matches(self, rng):
        # genuine stopping times: the decision after any prefix equals the
        # full run truncated there, with tie-breaks re-seeded identically
        bits = (rng.random(300) < 0.45).astype(int)
        for rule in (st.FirstRunOfZeros(4), st.Secretary(250), st.ExpectedRank(20)):
            full_tracker = st.RuleTracker(rule, np.random.default_rng(77))
            full = []
            for b in bits:
                full.append(full_tracker.update(int(b)))
                if full[-1]:
                    break
            for cut in (1, min(10, len(full)), max(1, len(full) // 2), len(full)):
                replay = st.RuleTracker(rule, np.random.default_rng(77))
                got = [replay.update(int(b)) for b in bits[:cut]]
                assert got == full[:cut]


class TestSyntheticStreams:
    def test_secretary_scan_matches_tracker(self):
        # step-level kernel vs the rule tracker on tie-free streams
        rng = np.random.default_rng(5)
        for trial in range(30):
            n_runs = 40
            lengths = rng.permutation(np.arange(1, n_runs + 1) * 2).astype(np.int64)
            horizon = int(lengths.sum() + n_runs)
            coins = rng.random(n_runs)
            stop_kernel = oracles.secretary_select(lengths, horizon, coins)
            tracker = st.RuleTracker(st.Secretary(horizon), np.random.default_rng(1))
            stop_tracker = -1
            step = 0
            done = False
            for i, run in enumerate(lengths):
                for _ in range(run):
                    step += 1
                    if tracker.update(0):
                        stop_tracker = i
                        done = True
                        break
                if done:
                    break
                step += 1
                tracker.update(1)
            assert stop_kernel == stop_tracker

    def test_longest_run_lemma(self):
        # E(L_t) ~ log_{1/p}(t) for iid Bernoulli streams
        rng = np.random.default_rng(11)
        p = 0.5
        t = 100_000
        reps = 48
        longest = []
        for _ in range(reps):
            bits = (rng.random(t) >= p).astype(np.uint8)  # P(0) = p
            longest.append(longest_zero_run(bits))
        ratio = np.mean(longest) / (np.log(t) / np.log(1.0 / p))
        assert abs(ratio - 1.0) <= 0.10

    def test_expected_rank_run_length_grows_with_horizon(self):
        # qualitative form of the log(t) growth of the selected run
        rng = np.random.default_rng(3)
        means = []
        for horizon in (10, 100):
            picked = []
            for _ in range(400):
                lengths = geometric_run_stream(rng, 0.6, horizon)
                tracker = st.RuleTracker(st.ExpectedRank(horizon), np.random.default_rng(9))
                chosen = None
                for i, run in enumerate(lengths):
                    stopped = False
                    for _ in range(int(run)):
                        if tracker.update(0):
                            chosen = int(run)
                            stopped = True
                            break
                    if stopped:
                        break
                    tracker.update(1)
                if chosen is None:
                    chosen = 0
                picked.append(chosen)
            means.append(np.mean(picked))
        assert means[1] > means[0]
