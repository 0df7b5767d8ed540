"""Reference implementations of the languages and functions in scope.

Everything here is brute-force and independent of the machine constructions:
membership by direct decomposition, the interleaving function by parsing and
re-reading the parsed instance, and the riffle permutation by literally
simulating the halving process on a list.  Machines are tested against these
oracles, never the other way around.

Generators are seed-deterministic.  The generator algorithm is pinned so any
reimplementation reproduces identical suites: splitmix64 (state advances by
0x9E3779B97F4A7C15; output is the finalizer z ^= z>>30, z *= 0xBF58476D1CE4E5B9,
z ^= z>>27, z *= 0x94D049BB133111EB, z ^= z>>31, all mod 2**64), with
``below(n)`` defined as ``next() % n``.  ``bits(n)`` and ``letters(n)`` draw
n values of ``below(2)`` in one call: the same stream, and the same state
after, as n calls of ``below(2)``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .machines import pi

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# SplitMix64._draw works on blocks of _LANES 128-bit lanes: 1 in every lane,
# the low 64 bits of every lane, and (i + 1) * _GAMMA in lane i.
_LANES = 1024
_ONES = int.from_bytes((1).to_bytes(16, "little") * _LANES, "little")
_LOW = _MASK * _ONES
_STRIDES = _GAMMA * int.from_bytes(
    b"".join(i.to_bytes(16, "little") for i in range(1, _LANES + 1)), "little")


class SplitMix64:
    """Tiny explicit PRNG so generated suites agree across platforms."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def below(self, n: int) -> int:
        return self.next() % n

    def _draw(self, n: int, symbols: bytes) -> str:
        """n values of ``below(2)``, each as ``symbols[value]``.  ``next``
        runs on up to ``_LANES`` states at once, state i in the low half of
        the i-th 128-bit lane of one integer.  Each lane is cut back to its
        low 64 bits after each multiply (reducing mod 2**64) and after each
        right shift (which moves the next lane's low bits into this lane's
        high half), so that the next product fits in its lane."""
        drawn = []
        for start in range(0, n, _LANES):
            r = min(_LANES, n - start)
            ones, low, strides = _ONES, _LOW, _STRIDES
            if r < _LANES:   # a last, partial block: the first r lanes
                cut = (1 << 128 * r) - 1
                ones, low, strides = ones & cut, low & cut, strides & cut
            z = (self.state * ones + strides) & low
            self.state = (self.state + r * _GAMMA) & _MASK
            z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
            z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB
            z ^= z >> 31                           # a lane's bit 0 is its next() % 2
            drawn.append(z.to_bytes(16 * r, "little")[::16])
        # Byte b of the table is symbols[b % 2].
        return b"".join(drawn).translate(symbols * 128).decode("ascii")

    def bits(self, n: int) -> str:
        return self._draw(n, b"01")

    def letters(self, n: int) -> str:
        return self._draw(n, b"ab")


# --------------------------------------------------------------------------
# Language membership

_SHAPE = re.compile(r"([ab]*)([01]*)c([01]*)([ab]*)")


def in_lprime(word: str) -> bool:
    """Membership in the riffle-copy language: w v c v pi(w) with the length
    coupling |w| = 2**|v| (v may be empty; w is then a single letter)."""
    m = _SHAPE.fullmatch(word)
    if not m:
        return False
    w, v, v2, w2 = m.groups()
    if v != v2 or len(w) != len(w2):
        return False
    k = len(v)
    if k > 40 or len(w) != 1 << k:
        return False
    return pi(w) == w2


def is_anbn(word: str) -> bool:
    n2 = len(word)
    if n2 % 2:
        return False
    h = n2 // 2
    return word == "a" * h + "b" * h


# --------------------------------------------------------------------------
# The interleaving function and its input grammar


class ParseReject(ValueError):
    """Structured rejection: the word is not a well-formed instance."""

    def __init__(self, reason: str, position: int):
        super().__init__(f"{reason} (at position {position})")
        self.reason = reason
        self.position = position


class FkInstance(NamedTuple):
    """A well-formed input for the k-stream interleaver.

    ``prefixes[i]`` is the i-th buffered stream prefix (length >= 1) and
    ``blocks[j]`` is the j-th round's row of k bits, one per stream.
    """
    prefixes: tuple[str, ...]
    blocks: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.prefixes)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def f(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.prefixes)

    def render(self) -> str:
        return "#".join(self.prefixes) + "$" + "$".join((*self.blocks, ""))


def parse_lk(k: int, word: str) -> FkInstance:
    """Parse a word against the interleaver input grammar for k streams:
    k bit segments joined by '#', then '$', then rows of exactly k bits each
    followed by '$'.  Raises :class:`ParseReject` with a position otherwise."""
    if k < 1:
        raise ValueError("k must be >= 1")
    dollar = word.find("$")
    if dollar < 0:
        raise ParseReject("missing terminator $", len(word))
    head = word[:dollar]
    segments = head.split("#")
    if len(segments) != k:
        raise ParseReject(f"wrong segment count: {len(segments)} of {k}", dollar)
    pos = 0
    for seg in segments:
        if not seg:
            raise ParseReject("empty segment", pos)
        for ch in seg:
            if ch not in "01":
                raise ParseReject(f"bad symbol {ch!r} in segment", pos)
            pos += 1
        pos += 1  # separator
    rest = word[dollar + 1:]
    if not rest.endswith("$"):
        raise ParseReject("missing terminator $", len(word))
    blocks = rest[:-1].split("$")
    pos = dollar + 1
    for block in blocks:
        if len(block) != k:
            raise ParseReject(f"block length {len(block)} != {k}", pos)
        for ch in block:
            if ch not in "01":
                raise ParseReject(f"bad symbol {ch!r} in block", pos)
        pos += k + 1
    return FkInstance(tuple(segments), tuple(blocks))


def reference_fk(k: int, word: str) -> str:
    """The interleaving function, evaluated directly from the parsed instance.

    Stream i's full sequence is its prefix followed by its column of the
    blocks; the output's j-th row is the j-th element of every stream in
    stream order, rows joined by '$' and terminated by '$'.  Raises
    :class:`ParseReject` on malformed input.
    """
    inst = parse_lk(k, word)
    f = inst.f
    out = []
    for j in range(inst.m):
        for i in range(k):
            if j < f[i]:
                out.append(inst.prefixes[i][j])
            else:
                out.append(inst.blocks[j - f[i]][i])
        out.append("$")
    return "".join(out)


# --------------------------------------------------------------------------
# The riffle permutation, by simulation


def pi_by_halving(word: str) -> str:
    """Independent oracle for the riffle permutation: repeatedly emit the
    odd-position elements and retain the even-position ones, until a single
    element remains, then emit it.  Only defined on power-of-two lengths."""
    n = len(word)
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    seq = list(word)
    out = []
    while len(seq) > 1:
        out.extend(seq[0::2])
        seq = seq[1::2]
    out.extend(seq)
    return "".join(out)


# --------------------------------------------------------------------------
# Instance generation


class LprimeInstance(NamedTuple):
    w: str
    v: str

    @property
    def k(self) -> int:
        return len(self.v)

    def render(self) -> str:
        return self.w + self.v + "c" + self.v + pi(self.w)

    @property
    def prefix_length(self) -> int:
        """Length of the stored prefix w v c v."""
        return len(self.w) + 2 * len(self.v) + 1


def gen_lk(k: int, f: tuple[int, ...] | list[int], m: int, seed: int) -> FkInstance:
    if k < 1 or len(f) != k or any(fi < 1 for fi in f) or m < 1:
        raise ValueError("need k >= 1, one length >= 1 per stream and m >= 1")
    rng = SplitMix64(seed)
    prefixes = tuple(rng.bits(fi) for fi in f)
    rows = rng.bits(k * m)   # cut into rows of k: zip over k references to one iterator
    return FkInstance(prefixes, tuple(rows if k == 1 else map("".join, zip(*[iter(rows)] * k))))


def gen_lprime(k: int, seed: int) -> LprimeInstance:
    if k < 0:
        raise ValueError("k must be >= 0")
    rng = SplitMix64(seed)
    return LprimeInstance(w=rng.letters(1 << k), v=rng.bits(k))


LPRIME_CLAUSES = ("v-mismatch", "w-not-pi", "bad-length", "bad-format")
FK_CLAUSES = ("segment-count", "empty-segment", "block-length", "missing-terminator")


def _flip_bit(s: str, i: int) -> str:
    return s[:i] + ("0" if s[i] == "1" else "1") + s[i + 1:]


def _flip_letter(s: str, i: int) -> str:
    return s[:i] + ("a" if s[i] == "b" else "b") + s[i + 1:]


def mutate_negative(instance, clause: str, seed: int) -> str:
    """Render a guaranteed non-member that violates exactly the named clause.

    The result is checked against the membership oracle before being returned;
    an impossible request (v-mismatch with an empty v) raises ValueError.
    """
    rng = SplitMix64(seed)
    if isinstance(instance, LprimeInstance):
        w, v = instance.w, instance.v
        if clause == "v-mismatch":
            if not v:
                raise ValueError("v-mismatch impossible: v is empty")
            word = w + v + "c" + _flip_bit(v, rng.below(len(v))) + pi(w)
        elif clause == "w-not-pi":
            p = pi(w)
            word = w + v + "c" + v + _flip_letter(p, rng.below(len(p)))
        elif clause == "bad-length":
            word = "ab"[rng.below(2)] + w + v + "c" + v + pi(w)
        elif clause == "bad-format":
            word = w + v + v + pi(w)
        else:
            raise ValueError(f"unknown clause {clause!r}")
        assert not in_lprime(word)
        return word
    if isinstance(instance, FkInstance):
        word = instance.render()
        k = instance.k
        if clause == "segment-count":
            word = rng.bits(max(1, instance.f[0])) + "#" + word
        elif clause == "empty-segment":
            i = rng.below(k)
            prefixes = instance.prefixes[:i] + ("",) + instance.prefixes[i + 1:]
            word = FkInstance(prefixes, instance.blocks).render()
        elif clause == "block-length":
            j = rng.below(instance.m)
            blocks = (instance.blocks[:j] + (instance.blocks[j] + "01"[rng.below(2)],)
                      + instance.blocks[j + 1:])
            word = FkInstance(instance.prefixes, blocks).render()
        elif clause == "missing-terminator":
            word = word[:-1]
        else:
            raise ValueError(f"unknown clause {clause!r}")
        try:
            parse_lk(k, word)
        except ParseReject:
            return word
        raise AssertionError("mutation failed to break the instance")
    raise TypeError(f"cannot mutate {type(instance).__name__}")


def gen_lprime_cases(count: int = 100, seed: int = 1, k_max: int = 8) -> list[BatchCase]:
    """Alternating members and single-clause non-members, tags 0..k_max."""
    rng = SplitMix64(seed)
    cases = []
    for i in range(count):
        k = rng.below(k_max + 1)
        inst = gen_lprime(k, rng.next())
        if i % 2 == 0:
            cases.append(BatchCase(inst.render(), "accept", f"member:k={k}"))
        else:
            clauses = [c for c in LPRIME_CLAUSES if not (c == "v-mismatch" and k == 0)]
            clause = clauses[rng.below(len(clauses))]
            cases.append(BatchCase(mutate_negative(inst, clause, rng.next()),
                                   "reject", f"{clause}:k={k}"))
    return cases


def gen_fk_cases(count: int = 100, seed: int = 1, k_max: int = 3) -> list[BatchCase]:
    """Alternating interleaver inputs (with their outputs) and malformed
    words, 1..k_max streams."""
    rng = SplitMix64(seed)
    cases = []
    for i in range(count):
        k = 1 + rng.below(max(1, k_max))
        f = tuple(1 + rng.below(5) for _ in range(k))
        inst = gen_lk(k, f, 1 + rng.below(8), rng.next())
        word = inst.render()
        if i % 2 == 0:
            cases.append(BatchCase(word, "output=" + reference_fk(k, word),
                                   f"member:k={k}"))
        else:
            clause = FK_CLAUSES[rng.below(len(FK_CLAUSES))]
            cases.append(BatchCase(mutate_negative(inst, clause, rng.next()),
                                   "reject", f"{clause}:k={k}"))
    return cases


def gen_anbn_cases(count: int = 100, seed: int = 1) -> list[BatchCase]:
    """Alternating a^t b^t members and words with one to three extra b's."""
    rng = SplitMix64(seed)
    cases = []
    for i in range(count):
        t = rng.below(40)
        if i % 2 == 0:
            cases.append(BatchCase("a" * t + "b" * t, "accept", f"member:n={t}"))
        else:
            word = "a" * t + "b" * (t + 1 + rng.below(3))
            cases.append(BatchCase(word, "reject", "unbalanced"))
    return cases


# --------------------------------------------------------------------------
# Instance batch files: one case per line, word TAB expected TAB tag


class BatchCase(NamedTuple):
    word: str
    expected: str   # "accept", "reject" or "output=<word>"
    tag: str


def write_batch(path, cases: list[BatchCase]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in cases:
            fh.write(f"{c.word}\t{c.expected}\t{c.tag}\n")


def read_batch(path) -> list[BatchCase]:
    cases = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            cases.append(BatchCase(*parts))
    return cases
