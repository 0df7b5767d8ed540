"""Builders for the concrete machines this lab studies, as plain
:class:`~qmlab.machine.MachineSpec` values.

All builders produce validated, deterministic machines:

* ``build_mk(k)``      -- k-queue stream interleaver, real-time (one input
                          symbol per step, steps == input length).
* ``build_tk(k)``      -- the same input/output function on one k-track tape
                          plus one pushdown, in linear time.
* ``build_lprime_acceptor()`` -- single-queue acceptor for the riffle-copy
                          language, real-time on the stored prefix and linear
                          overall; its cleanup cycles follow the closed-form
                          schedule checked by :func:`predicted_cycle_length`
                          and :func:`predicted_tail_steps`.
* ``build_anbn(variant)`` -- post-mode acceptors for a^n b^n: a quadratic
                          rotate-and-trim machine and a linear halving one.

Builtin registry names: ``mk:<k>``, ``tk:<k>``, ``lprime``, ``anbn:linear``,
``anbn:quadratic``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .machine import (
    BLANK,
    EMPTY,
    NO_SYMBOL,
    WILDCARD,
    Acceptance,
    Kind,
    MachineSpec,
    Mode,
    QueueOp,
    Rule,
    StorageSpec,
    TapeOp,
    NO_OP,
    TAPE_STAY,
)

# --------------------------------------------------------------------------
# The riffle permutation


def _riffle_strides(n: int) -> list[int]:
    """The strides 1, 2, 4, ..., n of the riffle permutation on length n, in
    output order: the group of stride s holds the 1-based indices s, 3s, 5s, ..."""
    return [1 << e for e in range(n.bit_length())]


def pi_order(n: int) -> list[int]:
    """Source index (0-based) of each output position under the riffle
    permutation, for a power-of-two length n: positions are grouped by how
    many times their 1-based index halves evenly, odd indices first, the
    last index alone at the end."""
    if n <= 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    return [i for s in _riffle_strides(n) for i in range(s - 1, n, 2 * s)]


def pi(word: str) -> str:
    """The riffle permutation on power-of-two lengths (exactly the emission
    order of the halving scan, see ``pi_by_halving``); the identity on every
    other length."""
    n = len(word)
    if n == 0 or n & (n - 1):
        return word
    return "".join(word[s - 1::2 * s] for s in _riffle_strides(n))


# --------------------------------------------------------------------------
# Step-count predictions for the riffle-copy acceptor


def predicted_cycle_length(k: int, i: int) -> int:
    """Queue length at the start of cleanup cycle i (1-based), for a member
    whose bit tag has length k: 2**(k-i+1) + 2*(k-i+1) + 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 1 <= i <= k + 1:
        raise ValueError(f"cycle index {i} outside 1..{k + 1}")
    r = k - i + 1
    return 2 ** r + 2 * r + 1


def predicted_tail_steps(k: int) -> int:
    """Closed form for the steps taken after the stored prefix has been read:
    2 + 2**(k+1) - 1 + k*k + 2*k + 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 2 + 2 ** (k + 1) - 1 + k * k + 2 * k + 1


# --------------------------------------------------------------------------
# mk: the k-queue interleaver


def build_mk(k: int) -> MachineSpec:
    """Real-time k-queue interleaver.

    Phase 1 routes the '#'-separated bit segments into queues 1..k.  After
    the first '$' (not emitted), each incoming bit is appended to its queue
    while the queue's front is popped and emitted in the same step, so queue
    lengths stay constant; every further '$' is emitted directly.  Halting in
    ``round_1`` with the input consumed accepts; malformed input strands the
    machine mid-table and rejects.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    qids = [f"q{i}" for i in range(1, k + 1)]
    storages = tuple(StorageSpec(q, Kind.QUEUE, frozenset("01")) for q in qids)
    no_ops = (NO_OP,) * k

    def ops(i: int, op: QueueOp) -> tuple[QueueOp, ...]:
        return no_ops[:i] + (op,) + no_ops[i + 1:]

    any_obs = (WILDCARD,) * k
    rules: list[Rule] = []
    for i in range(k):
        fill, nxt = f"fill_{i + 1}", f"fill_{i + 2}"
        for b in "01":
            rules.append(Rule(fill, b, any_obs, fill, consume=True,
                              ops=ops(i, QueueOp(push=b))))
        if i < k - 1:
            rules.append(Rule(fill, "#", any_obs, nxt, consume=True, ops=no_ops))
        else:
            rules.append(Rule(fill, "$", any_obs, "round_1", consume=True, ops=no_ops))
    for i in range(k):
        state = f"round_{i + 1}"
        nxt = f"round_{i + 2}" if i < k - 1 else "round_end"
        for b in "01":
            for front in "01":
                obs = any_obs[:i] + (front,) + any_obs[i + 1:]
                rules.append(Rule(state, b, obs, nxt, consume=True,
                                  ops=ops(i, QueueOp(pop=True, push=b)), emit=front))
    rules.append(Rule("round_end", "$", any_obs, "round_1", consume=True,
                      ops=no_ops, emit="$"))

    states = tuple(f"fill_{i}" for i in range(1, k + 1)) + \
        tuple(f"round_{i}" for i in range(1, k + 1)) + ("round_end",)
    return MachineSpec(
        name=f"mk:{k}", states=states, start="fill_1",
        input_alphabet=frozenset("01#$"), output_alphabet=frozenset("01$"),
        storages=storages, rules=tuple(rules),
        acceptance=Acceptance.FINAL_STATES, finals=frozenset({"round_1"}),
        mode=Mode.ONLINE)


# --------------------------------------------------------------------------
# tk: one k-track tape plus one pushdown, same function as mk


def _vectors(per_track: list[str]) -> itertools.product:
    return ("".join(t) for t in itertools.product(*per_track))


def build_tk(k: int) -> MachineSpec:
    """Interleaver on one k-track tape and one pushdown, in linear time.

    Cell 0 stays blank as a left boundary.  Each stream is copied onto its
    own track starting at cell 1 and the head rewinds between segments.
    During rounds the head sits on one cell per round, serving all tracks:
    it emits track i's stored bit and overwrites it with the incoming bit,
    then the '$' step moves right.  A track whose stored run ends at the new
    head cell shows blank there; it is repaired by walking left over its
    live bits (pushing them and marking the cells dead), returning to the
    gap, and replaying the pushdown rightwards, which lands the bits in
    arrival order at the head cell.  Repair cost is proportional to the run
    length once per run, so the whole computation stays linear.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    storages = (StorageSpec("t", Kind.TAPE, frozenset("01D"), tracks=k),
                StorageSpec("p", Kind.PUSHDOWN, frozenset("01")))
    LIVE, GONE = "01", "D"
    ANY = LIVE + GONE + BLANK

    rules: list[Rule] = []

    def add(state, inp, tape_pat, pd_pat, nxt, consume=False,
            tape_op=TAPE_STAY, pd_op=NO_OP, emit=None):
        rules.append(Rule(state, inp, (tape_pat, pd_pat), nxt, consume=consume,
                          ops=(tape_op, pd_op), emit=emit))

    def put(vec: str, i: int, ch: str) -> str:
        return vec[:i] + ch + vec[i + 1:]

    move = {"L": TapeOp(move="L"), "R": TapeOp(move="R"), "S": TAPE_STAY}

    # One spacer step so the content starts at cell 1.
    add("prep", WILDCARD, WILDCARD, WILDCARD, "copy_first_1", tape_op=move["R"])

    for i in range(k):
        first, rest, rew = f"copy_first_{i + 1}", f"copy_{i + 1}", f"rewind_{i + 1}"
        # First bit of segment i+1, at cell 1: earlier tracks hold their first
        # bits, later tracks are blank.  An empty segment halts here.
        for vec in _vectors([list(LIVE)] * i + [[BLANK]] * (k - i)):
            for b in "01":
                add(first, b, vec, WILDCARD, rest, consume=True,
                    tape_op=TapeOp(write=put(vec, i, b), move="R"))
        # Remaining bits: earlier tracks may have ended already.
        for vec in _vectors([list(LIVE) + [BLANK]] * i + [[BLANK]] * (k - i)):
            for b in "01":
                add(rest, b, vec, WILDCARD, rest, consume=True,
                    tape_op=TapeOp(write=put(vec, i, b), move="R"))
        sep = "#" if i < k - 1 else "$"
        add(rest, sep, WILDCARD, WILDCARD, rew, consume=True, tape_op=move["L"])
        # Rewind to cell 1 (the first blank on track i+1 is cell 0).
        after = f"copy_first_{i + 2}" if i < k - 1 else "check"
        for vec in _vectors([list(LIVE) + [BLANK]] * i + [list(LIVE)] + [[BLANK]] * (k - i - 1)):
            add(rew, WILDCARD, vec, WILDCARD, rew, tape_op=move["L"])
        for vec in _vectors([list(LIVE) + [BLANK]] * i + [[BLANK]] * (k - i)):
            add(rew, WILDCARD, vec, WILDCARD, after, tape_op=move["R"])

    # Between rounds: repair any track that ran out at the head cell, lowest
    # track first; once every track shows a live bit, serve the next round.
    for vec in _vectors([list(LIVE) + [BLANK]] * k):
        if BLANK in vec:
            add("check", WILDCARD, vec, WILDCARD, f"gather_{vec.index(BLANK) + 1}",
                tape_op=move["L"])
        else:
            add("check", WILDCARD, vec, WILDCARD, "serve_1")

    for i in range(k):
        serve = f"serve_{i + 1}"
        nxt = f"serve_{i + 2}" if i < k - 1 else "block_end"
        for vec in _vectors([list(LIVE)] * k):
            for b in "01":
                add(serve, b, vec, WILDCARD, nxt, consume=True, emit=vec[i],
                    tape_op=TapeOp(write=put(vec, i, b), move="S"))
    add("block_end", "$", WILDCARD, WILDCARD, "check", consume=True,
        emit="$", tape_op=move["R"])

    # Repair of track i+1: gather live bits leftwards onto the pushdown,
    # marking them dead; skip back right over the dead run; replay the
    # pushdown into the blank cells; settle back onto the first replayed cell.
    for i in range(k):
        gather, seek = f"gather_{i + 1}", f"seek_gap_{i + 1}"
        refill, settle = f"refill_{i + 1}", f"settle_{i + 1}"
        others = [list(ANY)] * i, [list(ANY)] * (k - i - 1)

        def tvecs(mine: str):
            return _vectors(others[0] + [list(mine)] + others[1])

        for vec in tvecs(LIVE):
            add(gather, WILDCARD, vec, WILDCARD, gather,
                tape_op=TapeOp(write=put(vec, i, GONE), move="L"),
                pd_op=QueueOp(push=vec[i]))
        for vec in tvecs(GONE + BLANK):
            add(gather, WILDCARD, vec, WILDCARD, seek, tape_op=move["R"])
        for vec in tvecs(GONE):
            add(seek, WILDCARD, vec, WILDCARD, seek, tape_op=move["R"])
        for vec in tvecs(BLANK):
            add(seek, WILDCARD, vec, WILDCARD, refill)
        for vec in tvecs(BLANK):
            for b in "01":
                add(refill, WILDCARD, vec, b, refill,
                    tape_op=TapeOp(write=put(vec, i, b), move="R"),
                    pd_op=QueueOp(pop=True))
        add(refill, WILDCARD, WILDCARD, EMPTY, settle, tape_op=move["L"])
        for vec in tvecs(LIVE):
            add(settle, WILDCARD, vec, WILDCARD, settle, tape_op=move["L"])
        for vec in tvecs(GONE):
            add(settle, WILDCARD, vec, WILDCARD, "check", tape_op=move["R"])

    states = ["prep"]
    for i in range(1, k + 1):
        states += [f"copy_first_{i}", f"copy_{i}", f"rewind_{i}"]
    states.append("check")
    states += [f"serve_{i}" for i in range(1, k + 1)]
    states.append("block_end")
    for i in range(1, k + 1):
        states += [f"gather_{i}", f"seek_gap_{i}", f"refill_{i}", f"settle_{i}"]
    return MachineSpec(
        name=f"tk:{k}", states=tuple(states), start="prep",
        input_alphabet=frozenset("01#$"), output_alphabet=frozenset("01$"),
        storages=storages, rules=tuple(rules),
        acceptance=Acceptance.FINAL_STATES, finals=frozenset({"serve_1"}),
        mode=Mode.ONLINE)


# --------------------------------------------------------------------------
# lprime: the riffle-copy acceptor


def build_lprime_acceptor() -> MachineSpec:
    """Single-queue acceptor for the riffle-copy language, accepting by empty
    storage with the whole input consumed.

    The prefix of letters, bits, the marker c and bits again is stored on the
    queue one push per step (real-time).  The first letter after the prefix
    switches the machine into comparison mode (one bookkeeping step), and the
    remaining input drives cleanup cycles over the queue:

    * ``compare``  on letter input, pop the front letter and match it;
    * ``rotate``   re-queue the following letter (the survivor of the pair),
                   or, when the front is the marker, drop it and drain;
    * ``seek_c_*`` after the letter region is spent, carry the front bit in
                   the state and cycle the rest of the first bit run behind
                   the re-queued marker;
    * ``match_v_*`` the first bit after the marker must equal the carried bit;
    * ``cycle_tail`` re-queue the remaining bits, then act as ``compare`` on
                   the next letter.

    Every cycle pops each queue cell exactly once, so a cycle costs exactly
    the queue length at its start; with the mode-switch step and one final
    accept-commit step the tail matches :func:`predicted_tail_steps` exactly.
    """
    AB, BITS = "ab", "01"
    rules: list[Rule] = []

    def add(state, inp, front, nxt, consume=False, op=NO_OP, emit=None):
        rules.append(Rule(state, inp, (front,), nxt, consume=consume,
                          ops=(op,), emit=emit))

    for ch in AB:
        add("store_w", ch, WILDCARD, "store_w", consume=True, op=QueueOp(push=ch))
    for b in BITS:
        add("store_w", b, WILDCARD, "store_v1", consume=True, op=QueueOp(push=b))
        add("store_v1", b, WILDCARD, "store_v1", consume=True, op=QueueOp(push=b))
        add("store_v2", b, WILDCARD, "store_v2", consume=True, op=QueueOp(push=b))
    add("store_w", "c", WILDCARD, "store_v2", consume=True, op=QueueOp(push="c"))
    add("store_v1", "c", WILDCARD, "store_v2", consume=True, op=QueueOp(push="c"))
    for ch in AB:   # mode switch: first letter past the prefix, nothing moved
        add("store_v2", ch, WILDCARD, "compare")

    for ch in AB:
        add("compare", ch, ch, "rotate", consume=True, op=QueueOp(pop=True))
        add("rotate", WILDCARD, ch, "compare", op=QueueOp(pop=True, push=ch))
        add("cycle_tail", ch, ch, "rotate", consume=True, op=QueueOp(pop=True))
    add("rotate", WILDCARD, "c", "drain", op=QueueOp(pop=True))
    for b in BITS:
        add("compare", WILDCARD, b, f"seek_c_{b}", op=QueueOp(pop=True))
        add(f"match_v_{b}", WILDCARD, b, "cycle_tail", op=QueueOp(pop=True))
        add("cycle_tail", WILDCARD, b, "cycle_tail", op=QueueOp(pop=True, push=b))
        for b2 in BITS:
            add(f"seek_c_{b}", WILDCARD, b2, f"seek_c_{b}",
                op=QueueOp(pop=True, push=b2))
        add(f"seek_c_{b}", WILDCARD, "c", f"match_v_{b}",
            op=QueueOp(pop=True, push="c"))
    add("drain", NO_SYMBOL, EMPTY, "done")   # accept-commit step

    states = ("store_w", "store_v1", "store_v2", "compare", "rotate",
              "seek_c_0", "seek_c_1", "match_v_0", "match_v_1",
              "cycle_tail", "drain", "done")
    return MachineSpec(
        name="lprime", states=states, start="store_w",
        input_alphabet=frozenset("ab01c"), output_alphabet=frozenset(),
        storages=(StorageSpec("q", Kind.QUEUE, frozenset("ab01c")),),
        rules=tuple(rules),
        acceptance=Acceptance.EMPTY_STORAGES, mode=Mode.ONLINE,
        epsilon_accept=False)


# --------------------------------------------------------------------------
# Post-mode acceptors for a^n b^n


def _anbn_quadratic_rules() -> list[Rule]:
    # Per pass: drop the leading a while planting a rear marker, rotate the
    # rest carrying one symbol in the state, and delete the carried symbol at
    # the marker only if it is the trailing b.
    rules: list[Rule] = []

    def add(state, front, nxt, op=NO_OP):
        rules.append(Rule(state, NO_SYMBOL, (front,), nxt, ops=(op,)))

    add("start", "a", "rot_new", QueueOp(pop=True, push="#"))
    add("rot_new", "a", "carry_a", QueueOp(pop=True))
    add("rot_new", "b", "carry_b", QueueOp(pop=True))
    for carried in "ab":
        st = f"carry_{carried}"
        add(st, "a", "carry_a", QueueOp(pop=True, push=carried))
        add(st, "b", "carry_b", QueueOp(pop=True, push=carried))
    add("carry_b", "#", "start", QueueOp(pop=True))
    return rules


def _anbn_linear_rules() -> list[Rule]:
    # Halving passes behind a cycling rear marker: drop every other a and
    # every other b, re-queueing the survivors; the pass's a-parity and
    # b-parity must agree (they are the matching binary digits of the two
    # counts), and a fully empty pass accepts by dropping the marker.
    rules: list[Rule] = []

    def add(state, front, nxt, op=NO_OP):
        rules.append(Rule(state, NO_SYMBOL, (front,), nxt, ops=(op,)))

    add("start", "a", "pass_new", QueueOp(push="#"))
    add("pass_new", "#", "done", QueueOp(pop=True))
    add("pass_new", "a", "a_odd", QueueOp(pop=True))
    add("pass_new", "b", "b_odd_a_even", QueueOp(pop=True))
    add("a_odd", "a", "a_even", QueueOp(pop=True, push="a"))
    add("a_odd", "b", "b_odd_a_odd", QueueOp(pop=True))
    add("a_even", "a", "a_odd", QueueOp(pop=True))
    add("a_even", "b", "b_odd_a_even", QueueOp(pop=True))
    add("a_even", "#", "pass_new", QueueOp(pop=True, push="#"))
    add("b_odd_a_even", "b", "b_even_a_even", QueueOp(pop=True, push="b"))
    add("b_even_a_even", "b", "b_odd_a_even", QueueOp(pop=True))
    add("b_even_a_even", "#", "pass_new", QueueOp(pop=True, push="#"))
    add("b_odd_a_odd", "b", "b_even_a_odd", QueueOp(pop=True, push="b"))
    add("b_odd_a_odd", "#", "pass_new", QueueOp(pop=True, push="#"))
    add("b_even_a_odd", "b", "b_odd_a_odd", QueueOp(pop=True))
    return rules


def build_anbn(variant: str) -> MachineSpec:
    """Post-mode single-queue acceptor for { a^n b^n : n >= 0 }.

    ``quadratic`` strips one leading a and one trailing b per full queue
    rotation; ``linear`` halves both letter counts per pass while checking
    that their parities agree, so the pass lengths form a geometric series.
    """
    if variant == "quadratic":
        rules = _anbn_quadratic_rules()
        states = ("start", "rot_new", "carry_a", "carry_b")
    elif variant == "linear":
        rules = _anbn_linear_rules()
        states = ("start", "pass_new", "a_odd", "a_even", "b_odd_a_even",
                  "b_even_a_even", "b_odd_a_odd", "b_even_a_odd", "done")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return MachineSpec(
        name=f"anbn:{variant}", states=states, start="start",
        input_alphabet=frozenset("ab"), output_alphabet=frozenset(),
        storages=(StorageSpec("q", Kind.QUEUE, frozenset("ab#")),),
        rules=tuple(rules),
        acceptance=Acceptance.EMPTY_STORAGES, mode=Mode.POST,
        epsilon_accept=True)


# --------------------------------------------------------------------------
# Builtin registry


BUILTIN_PATTERNS = ("mk:<k>", "tk:<k>", "lprime", "anbn:linear", "anbn:quadratic")
# Largest k that builtin() accepts.  tk:k has ~4.6x more rules per k (71,041
# at k=6, 325,106 at k=7) and mk:k grows quadratically, so a typo like
# tk:99999 would otherwise hang while building.  build_mk and build_tk take
# any k.
MAX_MK = 64
MAX_TK = 6


@lru_cache(maxsize=64)
def builtin(name: str) -> MachineSpec:
    """Resolve a builtin machine name such as ``mk:2`` or ``lprime``.  Specs
    are immutable, so repeated lookups share one spec."""
    if name == "lprime":
        return build_lprime_acceptor()
    try:   # a builder's ValueError means a bad parameter in the name
        if name.startswith("anbn:"):
            return build_anbn(name.split(":", 1)[1])
        for prefix, build, k_max in (("mk:", build_mk, MAX_MK), ("tk:", build_tk, MAX_TK)):
            if name.startswith(prefix):
                k = int(name[len(prefix):])
                if k > k_max:
                    raise KeyError(f"{prefix}<k> takes k <= {k_max}, not {k}")
                return build(k)
    except ValueError:
        raise KeyError(f"bad machine parameter in {name!r}") from None
    raise KeyError(f"unknown builtin machine {name!r}; "
                   f"known: {', '.join(BUILTIN_PATTERNS)}")
