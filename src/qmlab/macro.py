"""Macro steps: whole rounds of a serving cycle at once.

A serving cycle (see :func:`qmlab.machine._cycles`) is a cycle of states
whose steps keep every storage's length and each touch at most one storage:
a queue whose front they pop and push to, or the cell under a tape's head,
rewritten in place and left by the round's last step, a right move.  A
round's outcome then depends only on its outside reads: its input window,
then each queue's fronts or the cell.  The cycle's macro table maps these
reads to what the round emits and leaves; an entry is composed once from the
round's actions in the executor's cache, and a run then takes many rounds
per table lookup (Marxen and Buntrock, "Attacking the Busy Beaver 5",
Bulletin of the EATCS 40, 1990).  The run loop loads this module with its
first bulk call, so a process that never takes one neither compiles nor
holds it.
"""

from __future__ import annotations

from collections import deque
from itertools import islice, repeat, starmap, takewhile
from operator import truth
from sys import maxsize

from .machine import _HALVE, NO_SYMBOL, _Cycle


def compose(ex, cycle: _Cycle, key: tuple, views: tuple):
    """What the round that reads ``key`` emits and leaves, from its steps'
    actions in ``ex``'s cache (compiled if missing) with ``views`` of the
    other storages; ``None`` unless each step goes on in the cycle, keeps
    every length and pops and pushes its queue, or rewrites the tape's cell
    and (the last step only) moves right."""
    cache, emits, got, reads = ex._cache, [], 0, iter(key[cycle.width:])
    held, views = {j: deque(islice(reads, n)) for j, n in cycle.reads}, list(views)
    for state, j, after, codes in cycle.steps:
        for q, seen in held.items():   # a queue's front, or the cell
            views[q] = seen[0]
        k = (state, key[got], *views)
        action = cache[k] if k in cache else ex._compile(k)
        if (action is None or action[0] != after or any(action[-1][1:])
                or action[1] and key[got] == NO_SYMBOL):
            return None
        if j is not None:
            code, arg = action[3 + 2 * j:5 + 2 * j]
            if code not in codes:
                return None
            if code == _HALVE:   # the front out and in again
                held[j].rotate(-1)
            elif arg is not None:   # the front out and a push in, or a write over the cell
                held[j].popleft()
                held[j].append(arg)
        emits.append(action[2] or "")
        got += action[1]
    return ("".join(emits), *map("".join, held.values()))


def serve(ex, cycle: _Cycle, stores: tuple, views: tuple, padded: str, pos: int,
          steps: int, limit: int, output: list, emit):
    """Whole rounds at once after the step that ends one (``steps`` before it;
    its ``emit`` first), while there is room for a round and its reads (its
    input window from ``pos``, then per storage of ``cycle.reads`` its fronts
    or the cell; strided slices of windows of rounds, fourfold to 256) key a
    member of ``cycle``; a window's new keys are composed as met, up to its
    first non-member.  Returns ``steps`` plus its steps, ``pos``, ``None`` and the views."""
    if emit is not None:
        output.append(emit)
    p, c, w, tape, views = len(cycle.states), sum(cycle.flags), cycle.width, cycle.tape, [*views]
    rounds = min((limit - steps - 1) // p, (len(padded) - pos - w) // c + 1 if c else maxsize)
    if tape is not None:
        cells, head, blank = stores[tape].cells, stores[tape].head, stores[tape].blank
    m = 16
    while (m := min(m, rounds, *(len(stores[j]) // n for j, n in cycle.reads
                                 if tape is None))) > 0:
        keys = [padded[pos + x:pos + x + m * c:c] for x in range(w)] if c else [padded[pos] * m]
        for j, n in cycle.reads:
            got = (cells[head:head + m] + [blank] * (head + m - len(cells)) if tape is not None
                   else list(islice(stores[j], m * n)))
            keys += [got[x::n] for x in range(n)] if n > 1 else [got]
        done = list(map(cycle.get, zip(*keys)))   # zip reuses its tuple: get keeps none
        if (took := [*done, None].index(None)) < m:   # then the new rounds, composed as met
            done[took:] = takewhile(truth, (cycle[key] if key in cycle else cycle.setdefault(
                key, compose(ex, cycle, key, views)) for key in islice(zip(*keys), took, None)))
            took = len(done)   # up to the first that is no member
        if not took:
            break
        emits, *leaves = zip(*done[:took])   # per round: its emits, then what it leaves
        output.extend("".join(emits))
        for (j, n), left in zip(cycle.reads, leaves):
            if tape is None:
                deque(starmap(stores[j].popleft, repeat((), took * n)), 0)   # drops the fronts
                stores[j].extend("".join(left))
                views[j] = stores[j][0]
            else:
                cells[head:head + took] = left
                head += took
                cells.extend(repeat(blank, head + 1 - len(cells)))
                stores[j].head, views[j] = head, cells[head]
        steps, pos, rounds = steps + took * p, pos + took * c, rounds - took
        if took < m:
            break
        m = min(4 * m, 256)
    return steps, pos, None, *views
