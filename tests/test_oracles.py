"""Reference oracles: membership, parsing, the riffle permutation, generators."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlab.cli import main
from qmlab.machines import pi, pi_order
from qmlab.oracles import (
    FK_CLAUSES,
    LPRIME_CLAUSES,
    BatchCase,
    FkInstance,
    ParseReject,
    SplitMix64,
    gen_lk,
    gen_lprime,
    in_lprime,
    is_anbn,
    mutate_negative,
    parse_lk,
    pi_by_halving,
    read_batch,
    reference_fk,
    write_batch,
)


class TestLprimeMembership:
    def test_single_letter_member(self):
        # empty tag forces a one-letter word on both sides
        assert in_lprime("aca")
        assert in_lprime("bcb")
        assert not in_lprime("acb")

    def test_tag_length_couples_letter_length(self):
        # |letters| = 2 ** |tag| on both sides
        assert in_lprime("ab0c0ab")            # 2 letters, tag length 1
        assert in_lprime("aabb00c00abab")      # 4 letters, tag length 2
        assert not in_lprime("aabb0c0abab")    # 4 letters but tag length 1
        assert not in_lprime("ab00c00ab")      # 2 letters but tag length 2

    def test_suffix_must_be_riffled(self):
        assert not in_lprime("aabb00c00aabb")  # plain copy, not the riffle
        assert in_lprime("aabb00c00" + pi("aabb"))

    def test_shape_violations(self):
        assert not in_lprime("")
        assert not in_lprime("ca")
        assert not in_lprime("a0c0")
        assert not in_lprime("a0c0a1")
        assert not in_lprime("acca")
        assert not in_lprime("axca")

    @given(st.integers(0, 6), st.integers(0, 2 ** 40 - 1))
    @settings(max_examples=60)
    def test_generated_members_are_members(self, k, seed):
        assert in_lprime(gen_lprime(k, seed).render())


class TestPi:
    def test_length_one(self):
        assert pi("a") == "a"

    def test_length_four(self):
        assert pi("aabb") == "abab"          # indices 1,3,2,4
        assert pi_by_halving("aabb") == "abab"

    def test_length_eight_order(self):
        assert pi_order(8) == [0, 2, 4, 6, 1, 5, 3, 7]   # 1,3,5,7,2,6,4,8 one-based

    def test_identity_on_non_power_of_two(self):
        assert pi("abc") == "abc"
        assert pi("abcba") == "abcba"

    def test_halving_oracle_undefined_off_powers(self):
        with pytest.raises(ValueError):
            pi_by_halving("abc")
        with pytest.raises(ValueError):
            pi_by_halving("")

    def test_halving_passes_explicitly(self):
        assert pi_by_halving("ab") == "ab"   # one pass emits x1, remainder x2

    @pytest.mark.parametrize("k", range(0, 13))
    def test_bijection_and_oracle_agreement(self, k):
        n = 1 << k
        order = pi_order(n)
        assert sorted(order) == list(range(n))
        word = SplitMix64(k + 99).letters(n)
        assert pi(word) == pi_by_halving(word)


class TestParseLk:
    def test_example_two_streams(self):
        inst = parse_lk(2, "01#1$00$11$")
        assert inst.f == (2, 1) and inst.m == 2
        assert inst.blocks == ("00", "11")

    def test_wrong_segment_count(self):
        with pytest.raises(ParseReject) as exc:
            parse_lk(2, "01$00$")
        assert "segment count" in exc.value.reason

    def test_single_stream(self):
        inst = parse_lk(1, "0$1$")
        assert inst.f == (1,) and inst.m == 1

    def test_empty_segment(self):
        with pytest.raises(ParseReject) as exc:
            parse_lk(2, "01#$00$")
        assert "empty segment" in exc.value.reason

    def test_block_length(self):
        with pytest.raises(ParseReject) as exc:
            parse_lk(2, "01#1$000$")
        assert "block length" in exc.value.reason

    def test_missing_terminator(self):
        for word in ("01#1", "01#1$00", "01#1$"):
            with pytest.raises(ParseReject):
                parse_lk(2, word)

    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2 ** 40 - 1))
    @settings(max_examples=60)
    def test_roundtrip(self, k, fmax, m, seed):
        rng = SplitMix64(seed)
        f = tuple(1 + rng.below(fmax) for _ in range(k))
        inst = gen_lk(k, f, m, seed)
        assert parse_lk(k, inst.render()) == inst


class TestReferenceFk:
    def test_examples(self):
        assert reference_fk(2, "01#1$00$11$") == "01$10$"
        assert reference_fk(1, "0$1$") == "0$"
        assert reference_fk(2, "0#1$01$") == "01$"

    def test_rejects_malformed(self):
        with pytest.raises(ParseReject):
            reference_fk(2, "01$00$")

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 40 - 1))
    @settings(max_examples=60)
    def test_output_length(self, k, m, seed):
        rng = SplitMix64(seed)
        f = tuple(1 + rng.below(5) for _ in range(k))
        inst = gen_lk(k, f, m, seed)
        out = reference_fk(k, inst.render())
        assert len(out) == m * (k + 1)
        assert out.count("$") == m


class TestGenerators:
    def test_seed_determinism(self):
        a = gen_lprime(5, 123).render()
        b = gen_lprime(5, 123).render()
        assert a == b
        assert gen_lk(3, (2, 2, 2), 4, 9).render() == gen_lk(3, (2, 2, 2), 4, 9).render()

    def test_splitmix_reference_values(self):
        # First outputs for seed 0, pinned so ports can cross-check.
        rng = SplitMix64(0)
        assert [rng.next() for _ in range(3)] == [
            16294208416658607535, 7960286522194355700, 487617019471545679]

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1, 12345])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 1000, 8193])
    def test_one_call_draws_match_per_draw_reference(self, n, seed):
        # The reference draws one below(2) at a time, from its own generator.
        for draw, alpha in ((SplitMix64.bits, "01"), (SplitMix64.letters, "ab")):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            assert draw(rng, n) == "".join(alpha[ref.below(2)] for _ in range(n))
            assert rng.state == ref.state

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1, 12345])
    def test_mixed_draws_stay_in_step(self, seed):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for n in (5, 1030, 0, 77):
            assert rng.bits(n) == "".join("01"[ref.below(2)] for _ in range(n))
            assert rng.next() == ref.next()
            assert rng.letters(n + 3) == "".join("ab"[ref.below(2)] for _ in range(n + 3))
            assert rng.below(7) == ref.below(7)
        assert rng.state == ref.state

    # Digests of generated words and batch files, so that a faster generator
    # must reproduce the suites byte for byte.
    def test_generated_words_are_pinned(self):
        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()
        assert digest(gen_lk(3, (5, 5, 5), 100, 9).render()) == (
            "482c75c66cc4fe1f53526b29c3299f7badbe0c44d867dfc7232181dc02804367")
        assert digest(gen_lprime(10, 3).render()) == (
            "a247405048c703c63a16d5b2b20e2d3bf637302924d4c55c306e5349426f1ddd")

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 6), f=st.lists(st.integers(1, 6), min_size=6, max_size=6),
           m=st.integers(1, 40), seed=st.integers(0, 2 ** 64 - 1))
    def test_rows_and_render_match_per_row_formulas(self, k, f, m, seed):
        # The rows are the draw cut every k bits, and a word is its prefixes
        # joined by '#', then '$' and every row followed by '$'; so are a
        # parsed word's, and an instance's with no rows.
        def render(inst):
            return "#".join(inst.prefixes) + "$" + "".join(b + "$" for b in inst.blocks)

        inst, rng = gen_lk(k, f[:k], m, seed), SplitMix64(seed)
        for fi in f[:k]:
            rng.bits(fi)
        rows = rng.bits(k * m)
        assert inst.blocks == tuple(rows[i:i + k] for i in range(0, k * m, k))
        assert inst.render() == render(inst)
        parsed = parse_lk(k, inst.render())
        assert parsed == inst and parsed.render() == render(parsed)
        assert FkInstance(inst.prefixes, ()).render() == render(FkInstance(inst.prefixes, ()))

    @pytest.mark.parametrize("family, sha256", [
        ("lprime", "693a03b8b877341ef9c7b456685b60b1030e937fc600d605e7dd2c07f1eb7752"),
        ("fk", "3c8df788a89f43ddb9ec091a3602d6c67c55edf4600bd51dc1a817194955d3ec"),
        ("anbn", "947ffc485a2198eb29883394cb647b1a71b369cf232152bcf258c5e272c126e5")])
    def test_gen_batch_files_are_pinned(self, family, sha256, tmp_path):
        out = tmp_path / "cases.tsv"
        assert main(["gen", "--family", family, "--count", "200", "--seed", "7",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_gen_lprime_shape(self):
        inst = gen_lprime(0, 7)
        assert len(inst.w) == 1 and inst.v == ""
        assert inst.render()[1] == "c"

    def test_lprime_negative_clauses(self):
        inst = gen_lprime(3, 5)
        for clause in LPRIME_CLAUSES:
            word = mutate_negative(inst, clause, 17)
            assert not in_lprime(word), clause

    def test_v_mismatch_impossible_at_k0(self):
        with pytest.raises(ValueError):
            mutate_negative(gen_lprime(0, 1), "v-mismatch", 2)

    def test_fk_negative_clauses(self):
        inst = gen_lk(2, (2, 3), 3, 21)
        for clause in FK_CLAUSES:
            word = mutate_negative(inst, clause, 4)
            with pytest.raises(ParseReject):
                parse_lk(2, word)

    def test_unknown_clause(self):
        with pytest.raises(ValueError):
            mutate_negative(gen_lprime(1, 1), "nope", 1)


class TestAnbnPredicate:
    def test_basics(self):
        assert is_anbn("")
        assert is_anbn("ab")
        assert is_anbn("aabb")
        assert not is_anbn("aab")
        assert not is_anbn("ba")
        assert not is_anbn("abab")


class TestBatchFiles:
    def test_roundtrip(self, tmp_path):
        cases = [BatchCase("aca", "accept", "member:k=0"),
                 BatchCase("01#1$00$11$", "output=01$10$", "member:k=2"),
                 BatchCase("acb", "reject", "tag-mismatch")]
        path = tmp_path / "batch.tsv"
        write_batch(path, cases)
        assert read_batch(path) == cases

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only-one-field\n")
        with pytest.raises(ValueError):
            read_batch(path)
