"""The walk over one label word's candidate-set combinations, for the
reducibility scan.

Each candidate set comes with its hit mask: bit j is set iff the set
meets witness pattern j at its boundary vertex, so a combination has a
witness iff the AND of its sets' hit masks is nonzero.  The walk knows
masks and counts only; `reducibility` supplies the candidate sets, their
designated-value options, the hit masks and the linking rule.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

_Table = Sequence[Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]]]


def walk(
    table: _Table,
    hits: Sequence[Sequence[int]],
    witnessed: int,
    count: Optional[Callable[[tuple], int]] = None,
) -> Tuple[int, Optional[tuple]]:
    """Walk the candidate-set combinations of `table` (per boundary vertex,
    its (candidate set, designated-value options) entries, with their hit
    masks in `hits`) in lexicographic order, starting from the AND
    `witnessed` of no hit masks.  Returns the families of the combinations
    up to and including the first stuck one, and that one's (sets,
    options), or None.

    Without `count` a combination has prod(len(options)) families (every
    options tuple must be nonempty), and a subtree whose completions all
    keep the AND nonzero is counted without being entered.  With it, every
    combination is visited and count(options) gives its families."""
    return _Walk(table, hits, count).walk(0, witnessed, 1, (), ())


class _Walk:
    def __init__(self, table: _Table, hits: Sequence[Sequence[int]], count) -> None:
        self.table = table
        self.hits = hits
        self.count = count
        self.live: Dict[Tuple[int, int], bool] = {}
        # tails[l]: the families below level l per family of the prefix.
        self.tails = [1]
        for level in reversed(table):
            self.tails.insert(0, self.tails[0] * sum(len(options) for _, options in level))

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
        if level == len(self.table):
            if self.count is not None:
                weight = self.count(options)
            return weight, ((csets, options) if weight and not running else None)
        if self.count is None and self.all_live(level, running):
            return weight * self.tails[level], None
        total = 0
        for (cset, opts), hit in zip(self.table[level], self.hits[level]):
            families, stuck = self.walk(
                level + 1, running & hit, weight * len(opts), csets + (cset,), options + (opts,)
            )
            total += families
            if stuck is not None:
                return total, stuck
        return total, None
