"""Line-oriented textual format for machine descriptions.

Header lines::

    name: lprime
    states: store_w store_v1 ...
    start: store_w
    input_alphabet: 01abc
    output_alphabet:
    storage: q queue 01abc
    storage: t tape 01D tracks=3
    acceptance: empty_all_storages | final_states(<state> ...) | output_bit
    mode: online | post
    epsilon_accept: true | false

Transition lines::

    <state> | <input: sym|-|*> | <obs per storage, comma-separated: sym|empty|*>
        -> <state'> | <consume: y|n> | <per-storage action, comma-separated> | <emit: sym|->

(on one line).  Queue and pushdown actions: ``pop``, ``push=<sym>``,
``pop+push=<sym>`` or ``-``.  Tape actions: ``write=<syms>/move=<L|S|R>``,
``move=<L|S|R>`` or ``-`` (stay).  A tape observation is one symbol per
track, blanks written ``_``.  The input token ``-`` matches "no symbol":
end of input in online mode, every step in post mode.  Lines beginning with
``#`` are comments; blank lines are ignored.
"""

from __future__ import annotations

from .machine import (
    Acceptance,
    Kind,
    MachineSpec,
    Mode,
    QueueOp,
    Rule,
    StorageSpec,
    TapeOp,
    NO_OP,
)


class SpecFormatError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(f"line {lineno}: {message}" if lineno else message)
        self.lineno = lineno


def _dump_queue_op(op: QueueOp) -> str:
    if op.pop and op.push is not None:
        return f"pop+push={op.push}"
    if op.pop:
        return "pop"
    if op.push is not None:
        return f"push={op.push}"
    return "-"


def _dump_tape_op(op: TapeOp) -> str:
    if op.write is not None:
        return f"write={op.write}/move={op.move}"
    if op.move != "S":
        return f"move={op.move}"
    return "-"


def dumps(spec: MachineSpec) -> str:
    lines = [
        f"name: {spec.name}",
        f"states: {' '.join(spec.states)}",
        f"start: {spec.start}",
        f"input_alphabet: {''.join(sorted(spec.input_alphabet))}".rstrip(),
        f"output_alphabet: {''.join(sorted(spec.output_alphabet))}".rstrip(),
    ]
    for st in spec.storages:
        extra = f" tracks={st.tracks}" if st.kind is Kind.TAPE else ""
        lines.append(f"storage: {st.ident} {st.kind.value} "
                     f"{''.join(sorted(st.alphabet))}{extra}")
    if spec.acceptance is Acceptance.FINAL_STATES:
        lines.append(f"acceptance: final_states({' '.join(sorted(spec.finals))})")
    else:
        lines.append(f"acceptance: {spec.acceptance.value}")
    lines.append(f"mode: {spec.mode.value}")
    lines.append(f"epsilon_accept: {'true' if spec.epsilon_accept else 'false'}")
    for rule in spec.rules:
        obs = ",".join(rule.storage_pats)
        acts = ",".join(
            _dump_tape_op(op) if isinstance(op, TapeOp) else _dump_queue_op(op)
            for op in rule.ops)
        lines.append(f"{rule.state} | {rule.input_pat} | {obs} -> "
                     f"{rule.next_state} | {'y' if rule.consume else 'n'} | "
                     f"{acts} | {rule.emit if rule.emit is not None else '-'}")
    return "\n".join(lines) + "\n"


def dump(spec: MachineSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(spec))


def _parse_queue_op(token: str, lineno: int) -> QueueOp:
    if token == "-":
        return NO_OP
    if token == "pop":
        return QueueOp(pop=True)
    if token.startswith("pop+push="):
        return QueueOp(pop=True, push=token[len("pop+push="):])
    if token.startswith("push="):
        return QueueOp(push=token[len("push="):])
    raise SpecFormatError(f"bad queue action {token!r}", lineno)


def _parse_tape_op(token: str, lineno: int) -> TapeOp:
    if token == "-":
        return TapeOp()
    write = None
    move = "S"
    for part in token.split("/"):
        if part.startswith("write="):
            write = part[len("write="):]
        elif part.startswith("move="):
            move = part[len("move="):]
        else:
            raise SpecFormatError(f"bad tape action {token!r}", lineno)
    if move not in ("L", "S", "R"):
        raise SpecFormatError(f"bad tape move {move!r}", lineno)
    return TapeOp(write=write, move=move)


def loads(text: str) -> MachineSpec:
    name = "machine"
    states: tuple[str, ...] = ()
    start = ""
    input_alphabet = frozenset()
    output_alphabet = frozenset()
    storages: list[StorageSpec] = []
    acceptance = Acceptance.EMPTY_STORAGES
    finals: frozenset[str] = frozenset()
    mode = Mode.ONLINE
    epsilon_accept = False
    rules: list[Rule] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" in line:
            try:
                lhs, rhs = line.split("->")
                state, inp, obs = (p.strip() for p in lhs.split("|"))
                nxt, consume, acts, emit = (p.strip() for p in rhs.split("|"))
            except ValueError:
                raise SpecFormatError("malformed transition line", lineno) from None
            pats = tuple(p.strip() for p in obs.split(",")) if obs else ()
            if len(pats) != len(storages):
                raise SpecFormatError(
                    f"{len(pats)} observations for {len(storages)} storages", lineno)
            tokens = [a.strip() for a in acts.split(",")] if acts else []
            if len(tokens) != len(storages):
                raise SpecFormatError(
                    f"{len(tokens)} actions for {len(storages)} storages", lineno)
            ops = []
            for st, token in zip(storages, tokens):
                if st.kind is Kind.TAPE:
                    ops.append(_parse_tape_op(token, lineno))
                else:
                    ops.append(_parse_queue_op(token, lineno))
            if consume not in ("y", "n"):
                raise SpecFormatError(f"bad consume flag {consume!r}", lineno)
            rules.append(Rule(state, inp, pats, nxt, consume=consume == "y",
                              ops=tuple(ops),
                              emit=None if emit == "-" else emit))
            continue
        if ":" not in line:
            raise SpecFormatError(f"unrecognized line {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "name":
            name = value
        elif key == "states":
            states = tuple(value.split())
        elif key == "start":
            start = value
        elif key == "input_alphabet":
            input_alphabet = frozenset(value)
        elif key == "output_alphabet":
            output_alphabet = frozenset(value)
        elif key == "storage":
            parts = value.split()
            if len(parts) < 3:
                raise SpecFormatError("storage needs: <id> <kind> <alphabet>", lineno)
            ident, kind_s, alpha = parts[0], parts[1], parts[2]
            tracks = 1
            for extra in parts[3:]:
                if extra.startswith("tracks="):
                    try:
                        tracks = int(extra[len("tracks="):])
                    except ValueError:
                        raise SpecFormatError(f"bad tracks value {extra!r}", lineno) from None
                else:
                    raise SpecFormatError(f"bad storage option {extra!r}", lineno)
            try:
                kind = Kind(kind_s)
            except ValueError:
                raise SpecFormatError(f"unknown storage kind {kind_s!r}", lineno) from None
            try:
                storages.append(StorageSpec(ident, kind, frozenset(alpha), tracks=tracks))
            except ValueError as exc:
                raise SpecFormatError(str(exc), lineno) from None
        elif key == "acceptance":
            if value.startswith("final_states(") and value.endswith(")"):
                acceptance = Acceptance.FINAL_STATES
                finals = frozenset(value[len("final_states("):-1].split())
            else:
                try:
                    acceptance = Acceptance(value)
                except ValueError:
                    raise SpecFormatError(f"unknown acceptance {value!r}", lineno) from None
        elif key == "mode":
            try:
                mode = Mode(value)
            except ValueError:
                raise SpecFormatError(f"unknown mode {value!r}", lineno) from None
        elif key == "epsilon_accept":
            if value not in ("true", "false"):
                raise SpecFormatError(f"bad epsilon_accept {value!r}", lineno)
            epsilon_accept = value == "true"
        else:
            raise SpecFormatError(f"unknown header {key!r}", lineno)

    if not states or not start:
        raise SpecFormatError("missing states/start headers")
    return MachineSpec(name=name, states=states, start=start,
                       input_alphabet=input_alphabet,
                       output_alphabet=output_alphabet,
                       storages=tuple(storages), rules=tuple(rules),
                       acceptance=acceptance, finals=finals, mode=mode,
                       epsilon_accept=epsilon_accept)


def load(path) -> MachineSpec:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
