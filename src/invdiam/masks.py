"""The walk over one label word's candidate-set combinations, for the
reducibility scan.

Each candidate set comes with its hit mask: bit j is set iff the set
meets witness pattern j at its boundary vertex, so a combination has a
witness iff the AND of its sets' hit masks is nonzero.  This module knows
masks and counts only; `reducibility` supplies the witness patterns (per
boundary vertex, an 8-bit mask of the vectors it may take), the candidate
sets, their designated-value options and the linking rule.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from math import prod
from operator import or_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_Table = Sequence[Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]]]

# MEMBERS[mask]: the values whose bits are set in an 8-bit mask, ascending.
MEMBERS = tuple(tuple(x for x in range(8) if mask >> x & 1) for mask in range(256))


def hit_masks(patterns: Sequence[Tuple[int, ...]], table: _Table) -> List[List[int]]:
    """Per level of `table`, its candidate sets' hit masks.  For each level
    i and value v the mask of the patterns j with v in patterns[j][i] is
    built once; a set's hit mask is the OR of its members' masks."""
    hits = []
    for i, level in enumerate(table):
        by_value = [0] * 8
        bit = 1
        for pattern in patterns:
            for v in MEMBERS[pattern[i]]:
                by_value[v] |= bit
            bit <<= 1
        hits.append([reduce(or_, map(by_value.__getitem__, cset)) for cset, _ in level])
    return hits


def walk(
    table: _Table,
    hits: Sequence[Sequence[int]],
    witnessed: int,
    count: Optional[Callable[[tuple, tuple], int]] = None,
) -> Tuple[int, Optional[tuple]]:
    """Walk the candidate-set combinations of `table` (per boundary vertex,
    its (candidate set, designated-value options) entries, with their hit
    masks in `hits`) in lexicographic order, starting from the AND
    `witnessed` of no hit masks.  Returns the families of the combinations
    up to and including the first stuck one, and that one's (sets,
    options), or None.

    A subtree whose completions all keep the AND nonzero is counted
    without being entered.  Without `count` a combination has
    prod(len(options)) families (every options tuple must be nonempty).
    With it, count(options, later) gives the families of the subtree
    below the prefix `options`: `later` holds, per remaining level, the
    sorted (value, multiplicity) pairs of the designated values its
    entries offer, so a leaf is count(options, ())."""
    return _Walk(table, hits, count).walk(0, witnessed, 1, (), ())


class _Walk:
    def __init__(self, table: _Table, hits: Sequence[Sequence[int]], count) -> None:
        self.table = table
        self.hits = hits
        self.count = count
        self.live: Dict[Tuple[int, int], bool] = {}
        # later[l]: per level from l on, how many of its entries offer each value.
        self.later: list = [()]
        for level in reversed(table):
            offered = Counter(v for _, options in level for v in options)
            self.later.insert(0, (tuple(sorted(offered.items())),) + self.later[0])
        # tails[l]: the families below level l per family of the prefix.
        self.tails = [prod(sum(m for _, m in pairs) for pairs in later) for later in self.later]

    def all_live(self, level: int, running: int) -> bool:
        """True iff every completion from this level keeps the AND nonzero."""
        key = (level, running)
        live = self.live.get(key)
        if live is None:
            last = level + 1 == len(self.hits)
            live = self.live[key] = all(
                running & hit and (last or self.all_live(level + 1, running & hit))
                for hit in self.hits[level]
            )
        return live

    def walk(self, level, running, weight, csets, options):
        if level == len(self.table) or self.all_live(level, running):
            if self.count is None:
                families = weight * self.tails[level]
            else:
                families = self.count(options, self.later[level])
            return families, ((csets, options) if families and not running else None)
        total = 0
        for (cset, opts), hit in zip(self.table[level], self.hits[level]):
            families, stuck = self.walk(
                level + 1, running & hit, weight * len(opts), csets + (cset,), options + (opts,)
            )
            total += families
            if stuck is not None:
                return total, stuck
        return total, None
