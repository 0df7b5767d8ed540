"""The built machines against their oracles and step-count predictions."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_machine_core import steps_of
from test_reference_stepper import reference_run
from qmlab import analysis
from qmlab.analysis import lprime_cycle_starts, lprime_timing
from qmlab.machine import (
    Verdict,
    check_bounded_delay,
    check_realtime,
    executor_for,
    minimal_delay,
    run,
    storage_length_series,
    validate_spec,
)
from qmlab.machines import (
    MAX_MK,
    MAX_TK,
    build_anbn,
    build_lprime_acceptor,
    build_mk,
    build_tk,
    builtin,
    predicted_cycle_length,
    predicted_tail_steps,
)
from qmlab.oracles import (
    LPRIME_CLAUSES,
    SplitMix64,
    gen_lk,
    gen_lprime,
    in_lprime,
    is_anbn,
    mutate_negative,
    reference_fk,
)


def accepts(spec, word):
    return run(spec, word).verdict is Verdict.ACCEPT


class TestBuildersValidate:
    @pytest.mark.parametrize("name", ["mk:1", "mk:2", "mk:3", "tk:1", "tk:2",
                                      "tk:3", "lprime", "anbn:linear",
                                      "anbn:quadratic"])
    def test_clean_validation(self, name):
        rep = validate_spec(builtin(name))
        assert rep.ok, rep.violations
        assert not rep.warnings

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_mk(0)
        with pytest.raises(ValueError):
            build_tk(0)
        with pytest.raises(ValueError):
            build_anbn("cubic")
        with pytest.raises(KeyError):
            builtin("mystery")
        with pytest.raises(KeyError):
            builtin("mk:two")

    def test_builtin_bounds_k(self):
        # tk:7 has 325,106 rules; builtin() refuses before building anything.
        for name in (f"tk:{MAX_TK + 1}", f"mk:{MAX_MK + 1}"):
            with pytest.raises(KeyError, match=r"takes k <="):
                builtin(name)
        assert builtin(f"mk:{MAX_MK}").name == f"mk:{MAX_MK}"
        assert len(build_mk(MAX_MK + 1).storages) == MAX_MK + 1


class TestPredictions:
    def test_cycle_length_values(self):
        assert predicted_cycle_length(3, 1) == 15
        assert predicted_cycle_length(3, 4) == 2
        assert predicted_cycle_length(0, 1) == 2

    def test_cycle_index_range(self):
        with pytest.raises(ValueError):
            predicted_cycle_length(3, 0)
        with pytest.raises(ValueError):
            predicted_cycle_length(3, 5)

    def test_tail_values(self):
        assert predicted_tail_steps(0) == 4
        assert predicted_tail_steps(3) == 33

    def test_closed_form_equals_sum(self):
        for k in range(21):
            assert predicted_tail_steps(k) == 2 + sum(predicted_cycle_length(k, i)
                                                      for i in range(1, k + 2))


class TestLprimeAcceptor:
    spec = build_lprime_acceptor()

    @pytest.mark.parametrize("word,member", [
        ("aca", True), ("bcb", True), ("acb", False),
        ("ab0c0ab", True), ("ba1c1ab", False),
        ("aabb00c00abab", True),
        ("aabb0c0abab", False),       # letter run twice the tag's power
        ("aabb00c00aabb", False),     # suffix not riffled
        ("a0c1a", False), ("", False), ("a", False), ("ac", False),
        ("acaa", False), ("ca", False), ("c", False), ("acab", False),
    ])
    def test_membership_examples(self, word, member):
        assert accepts(self.spec, word) == member
        assert in_lprime(word) == member

    @given(st.integers(0, 7), st.integers(0, 2 ** 40 - 1))
    @settings(max_examples=50, deadline=None)
    def test_members_accepted(self, k, seed):
        assert accepts(self.spec, gen_lprime(k, seed).render())

    def test_exhaustive_small(self):
        # Every word over the full alphabet up to length 7, not just the
        # shape-plausible ones.
        for n in range(8):
            for tup in itertools.product("ab01c", repeat=n):
                word = "".join(tup)
                assert accepts(self.spec, word) == in_lprime(word), word

    def test_cycle_length_schedule_k3(self):
        t = lprime_timing(gen_lprime(3, 77))
        assert t.cycle_lengths == (15, 9, 5, 2)
        assert t.cycle_lengths == t.predicted_lengths

    @pytest.mark.parametrize("k", range(0, 11))
    def test_timing_matches_predictions(self, k):
        t = lprime_timing(gen_lprime(k, 1000 + k))
        assert t.verdict is Verdict.ACCEPT
        assert len(t.cycle_start_steps) == k + 1
        assert t.cycle_lengths == t.predicted_lengths
        assert t.tail_steps == t.predicted_tail

    def test_prefix_is_realtime(self):
        inst = gen_lprime(4, 5)
        res = run(self.spec, inst.render(), trace=True)
        region = (1, inst.prefix_length)
        assert check_bounded_delay(res.trace, region, 0)
        assert check_bounded_delay(res.trace, region, 4)
        assert minimal_delay(res.trace, region) == 0
        # the run as a whole is not real-time: the tail cycles silently
        assert not check_realtime(res.trace)
        tail = (inst.prefix_length + 1, res.steps)
        assert not check_bounded_delay(res.trace, tail, 1)

    def test_queue_empty_on_accept(self):
        res = run(self.spec, "ab0c0ab", trace=True)
        assert res.verdict is Verdict.ACCEPT
        assert storage_length_series(res.trace, "q")[-1][1] == 0

    def test_rejects_padded_member(self):
        word = gen_lprime(2, 3).render()
        assert not accepts(self.spec, word + "a")
        assert not accepts(self.spec, "a" + word)

    def test_trace_reproducible_bit_for_bit(self):
        word = gen_lprime(3, 12).render()
        a = run(self.spec, word, trace=True)
        b = run(self.spec, word, trace=True)
        assert steps_of(a.trace) == steps_of(b.trace)
        assert a.trace.to_lines() == b.trace.to_lines()


class TestMk:
    def test_example_two_streams(self):
        res = run(build_mk(2), "01#1$00$11$")
        assert res.accepted and res.output == "01$10$"

    def test_example_one_stream(self):
        res = run(build_mk(1), "0$1$")
        assert res.accepted and res.output == "0$"

    def test_realtime_and_step_constant(self):
        word = gen_lk(3, (4, 2, 5), 6, 8).render()
        res = run(build_mk(3), word, trace=True)
        assert check_realtime(res.trace)
        assert res.steps == len(word)

    def test_queue_lengths_constant_after_first_dollar(self):
        inst = gen_lk(2, (3, 2), 5, 4)
        word = inst.render()
        res = run(build_mk(2), word, trace=True)
        fill = sum(inst.f) + 2   # segment symbols, one '#', the first '$'
        for qi, fi in zip(("q1", "q2"), inst.f):
            tail = [n for s, n in storage_length_series(res.trace, qi) if s > fill]
            assert set(tail) == {fi}

    @pytest.mark.parametrize("word", ["01$00$", "0#1#1$00$", "0#$00$",
                                      "01#1$0$", "01#1$000$", "01#1$00",
                                      "01#1", "", "$"])
    def test_malformed_rejected(self, word):
        assert not accepts(build_mk(2), word)

    @given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2 ** 40 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, k, m, seed):
        rng = SplitMix64(seed)
        f = tuple(1 + rng.below(5) for _ in range(k))
        word = gen_lk(k, f, m, seed).render()
        res = run(build_mk(k), word)
        assert res.accepted
        assert res.output == reference_fk(k, word)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_widest_builtin_layout(self, seed):
        # mk:64 has 64 queues: its cache key has 66 elements.
        word = gen_lk(MAX_MK, tuple(1 + (seed + i) % 3 for i in range(MAX_MK)), 2,
                      seed).render()
        res = executor_for(builtin(f"mk:{MAX_MK}")).run(word)
        assert res.accepted and res.steps == len(word)
        assert res.output == reference_fk(MAX_MK, word)


class TestTk:
    @pytest.mark.parametrize("k,word", [
        (2, "01#1$00$11$"), (1, "0$1$"), (1, "0$1$1$0$"),
        (2, "0#1$01$"), (3, "0#1#0$000$111$010$")])
    def test_matches_mk_on_examples(self, k, word):
        mk, tk = run(build_mk(k), word), run(build_tk(k), word)
        assert tk.accepted == mk.accepted
        assert tk.output == mk.output == reference_fk(k, word)

    @given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2 ** 40 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_mk_randomized(self, k, m, seed):
        rng = SplitMix64(seed)
        f = tuple(1 + rng.below(6) for _ in range(k))
        word = gen_lk(k, f, m, seed).render()
        mk, tk = run(build_mk(k), word), run(build_tk(k), word)
        assert tk.accepted and mk.accepted
        assert tk.output == mk.output

    def test_step_constant_bound(self):
        steps_per_symbol_max = 8   # loose bound on the tape machine's constant
        for k in (1, 2, 3):
            word = gen_lk(k, (5,) * k, 40, k).render()
            res = run(build_tk(k), word)
            assert res.accepted
            assert res.steps <= steps_per_symbol_max * len(word)

    @pytest.mark.parametrize("word", ["01$00$", "0#1#1$00$", "0#$00$",
                                      "01#1$0$", "01#1$000$", "01#1$00", ""])
    def test_malformed_rejected(self, word):
        assert not accepts(build_tk(2), word)

    @pytest.mark.parametrize("k, rows", [
        (1, [(255, 678, 128), (511, 1350, 256), (1023, 2694, 512), (2047, 5382, 1024),
             (4095, 10758, 2048)]),
        (2, [(255, 652, 64), (511, 1292, 128), (1023, 2572, 256), (2047, 5132, 512),
             (4095, 10252, 1024)]),
        (3, [(254, 903, 63), (509, 1773, 126), (1022, 3543, 255), (2045, 7053, 510),
             (4094, 14103, 1023)])])
    def test_growth_rows_pinned(self, k, rows):
        # (n, steps, peak length) at 2**8 ... 2**12: the repairs gather, refill
        # and copy over hundreds of cells, far past the reference's words.
        assert analysis.growth_series(f"tk:{k}", range(8, 13)) == rows

    def test_repair_survives_many_rounds(self):
        # Stream runs of different lengths force staggered repairs.
        word = gen_lk(3, (1, 2, 7), 60, 13).render()
        res = run(build_tk(3), word)
        assert res.accepted
        assert res.output == reference_fk(3, word)


class TestInterleaverTotality:
    # Over every short word of the input alphabet: whenever the grammar
    # accepts, both machines must accept with the reference output.  (The
    # converse is not required; off-grammar behavior is unconstrained.)
    @pytest.mark.parametrize("k", [1, 2])
    def test_grammar_implies_machine(self, k):
        from qmlab.oracles import ParseReject, parse_lk
        mk, tk = build_mk(k), build_tk(k)
        for n in range(1, 8):
            for tup in itertools.product("01#$", repeat=n):
                word = "".join(tup)
                try:
                    parse_lk(k, word)
                except ParseReject:
                    continue
                want = reference_fk(k, word)
                for spec in (mk, tk):
                    res = run(spec, word)
                    assert res.accepted and res.output == want, (word, spec.name)


class TestSharedExecutor:
    def test_concurrent_runs_share_one_spec(self):
        # One executor, many threads: per-run state is configuration-local.
        from concurrent.futures import ThreadPoolExecutor
        from qmlab.machine import Executor
        ex = Executor(build_lprime_acceptor())
        words = [gen_lprime(k % 5, k).render() for k in range(40)]
        expected = [ex.run(w).verdict for w in words]
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                got = list(pool.map(lambda w: ex.run(w).verdict, words))
                assert got == expected


class TestAnbn:
    @pytest.mark.parametrize("variant", ["linear", "quadratic"])
    def test_exhaustive_to_length_10(self, variant):
        spec = build_anbn(variant)
        for n in range(11):
            for tup in itertools.product("ab", repeat=n):
                word = "".join(tup)
                assert accepts(spec, word) == is_anbn(word), (variant, word)

    def test_smallest_cases(self):
        for variant in ("linear", "quadratic"):
            spec = build_anbn(variant)
            assert accepts(spec, "")         # empty storage at step 0
            assert accepts(spec, "aabb")
            assert not accepts(spec, "aab")

    def test_quadratic_step_curve(self):
        # One pass per pair, full rotations: cli.QUADRATIC_MAX_EXP rests on
        # the count, and most of these steps run as rotation sweeps.
        ex = executor_for(build_anbn("quadratic"))
        for t in range(65):
            word = "a" * t + "b" * t
            plain, watched = ex.run(word), ex.run(word, watch_lengths=True)
            assert plain.accepted and watched.accepted
            assert plain.steps == watched.steps == t * t + 2 * t
            assert watched.max_lengths == reference_run(ex.spec, word).peaks

    def test_linear_variant_is_linear(self):
        spec = build_anbn("linear")
        for t in (4, 64, 512):
            res = run(spec, "a" * t + "b" * t)
            assert res.accepted
            assert res.steps <= 5 * (2 * t)

    def test_speed_ratio_decreases(self):
        lin, quad = build_anbn("linear"), build_anbn("quadratic")
        ratios = []
        for t in (8, 16, 32, 64, 128, 256, 512, 1024):
            word = "a" * t + "b" * t
            ratios.append(run(lin, word).steps
                          / run(quad, word, max_steps=16 * t * t + 64).steps)
        assert all(x > y for x, y in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.01


class TestCycleStartExtraction:
    def test_counts_and_positions(self):
        inst = gen_lprime(2, 9)
        res = run(build_lprime_acceptor(), inst.render(), trace=True)
        starts = lprime_cycle_starts(res.trace, inst.prefix_length)
        assert len(starts) == 3
        # cycle 1 opens right after the mode-switch step
        assert starts[0] == inst.prefix_length + 2

    @pytest.mark.parametrize("k", range(7))
    def test_matches_record_by_record_scan(self, k):
        spec = build_lprime_acceptor()
        for seed in (1, 2):
            inst = gen_lprime(k, seed)
            words = [inst.render()] + [mutate_negative(inst, clause, seed)
                                       for clause in LPRIME_CLAUSES if k or clause != "v-mismatch"]
            for word in words:
                trace = run(spec, word, trace=True).trace
                for prefix in (0, inst.prefix_length, len(trace) + 1):
                    want, silent = [], 0
                    for rec in steps_of(trace)[prefix:]:
                        if rec.consumed:
                            if not want or silent >= 2:
                                want.append(rec.step)
                            silent = 0
                        else:
                            silent += 1
                    assert lprime_cycle_starts(trace, prefix) == want

    def test_timing_rejects_a_cycle_start_at_step_one(self, monkeypatch):
        # No queue length is traced before step 1, so there is no cycle length.
        monkeypatch.setattr(analysis, "lprime_cycle_starts", lambda trace, p: [1])
        with pytest.raises(ValueError, match="step 1"):
            lprime_timing(gen_lprime(1, 1))
