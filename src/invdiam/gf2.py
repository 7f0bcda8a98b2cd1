"""Fixed-width bit-vector linear algebra over F2.

Vectors are machine words: coordinate i lives in bit i (little-endian),
so the text form "110" means coordinates (1,1,0) and word value 0b011.
Everything is immutable and pure; elimination always works on copies.

Many words are evaluated at once in slots: `pack_slots` puts word i of a
tuple into slot i of one int, each slot `slot_width(dim)` bytes wide, so a
single AND or XOR of packed ints acts on every slot.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Callable, List, Sequence, Tuple

MAX_DIM = 32


def word_to_text(word: int, dim: int) -> str:
    """The text form of a word in F2^dim: "0"/"1" characters, coordinate 0
    first."""
    return format(word, f"0{dim}b")[::-1] if dim else ""


def text_to_word(text: str) -> int:
    """Parse the text form, coordinate 0 first; the empty string is 0.

    Characters are checked first because int() also accepts "_", signs
    and surrounding whitespace."""
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"invalid vector string {text!r}")
    return int(text[::-1], 2) if text else 0


def dot_bits(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def echelon_bits(rows: Sequence[int], dim: int) -> List[int]:
    """An echelon basis of the span of the rows, ignoring coordinates at or
    above dim.

    Each row is reduced against the echelon rows kept so far and, if
    anything is left, kept with its lowest set bit as pivot.  A kept row is
    already reduced against every earlier pivot, so reducing against the
    rows in insertion order never sets an earlier pivot again."""
    mask = (1 << dim) - 1
    echelon: List[int] = []
    for row in rows:
        row &= mask
        for r in echelon:
            if row & r & -r:
                row ^= r
        if row:
            echelon.append(row)
    return echelon


def rank_bits(rows: Sequence[int], dim: int) -> int:
    return len(echelon_bits(rows, dim))


def solve_bits(
    rows: Sequence[int], rhs: Sequence[int], dim: int
) -> "tuple[int, list[int]] | None":
    """Solve the system over F2; return (particular, nullspace basis) or None.

    Rows are constraint vectors, rhs their target bits.  The augmented
    column is carried in bit `dim` during elimination.
    """
    aug = [rows[i] | (rhs[i] << dim) for i in range(len(rows))]
    coeff_mask = (1 << dim) - 1
    pivots: list[tuple[int, int]] = []  # (column, reduced augmented row)
    for a in aug:
        for col, row in pivots:
            if (a >> col) & 1:
                a ^= row
        coeff = a & coeff_mask
        if coeff == 0:
            if a >> dim:
                return None
            continue
        col = (coeff & -coeff).bit_length() - 1
        # Keep previously inserted rows fully reduced against the new pivot.
        pivots = [(c, r ^ a if (r >> col) & 1 else r) for c, r in pivots]
        pivots.append((col, a))
    particular = 0
    for col, row in pivots:
        if row >> dim:
            particular |= 1 << col
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for col in range(dim):
        if col in pivot_cols:
            continue
        vec = 1 << col
        for pc, row in pivots:
            if (row >> col) & 1:
                vec |= 1 << pc
        basis.append(vec)
    return particular, basis


def affine_solutions_bits(particular: int, basis: Sequence[int]) -> List[int]:
    """Expand an affine set to a sorted list of words."""
    sols = [particular]
    for b in basis:
        sols += [s ^ b for s in sols]
    sols.sort()
    return sols


# The text digit of each byte's parity, so bytes.translate reads parities.
_PARITY_TEXT = bytes(48 | (b.bit_count() & 1) for b in range(256))


def gatherer(indices: Sequence[int]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """A function taking a sequence to the tuple of its items at `indices`.

    An itemgetter for two or more indices (with one it returns the item
    itself, not a 1-tuple, and with none it cannot be built)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    indices = tuple(indices)
    return lambda seq: tuple(seq[i] for i in indices)


def slot_width(dim: int) -> int:
    """Bytes per slot for words of F2^dim, dim <= MAX_DIM: 1, 2 or 4."""
    return 1 if dim <= 8 else 2 if dim <= 16 else 4


def pack_slots(words: Sequence[int], width: int) -> int:
    """The int holding words[i] in slot i (bytes i*width .. (i+1)*width - 1,
    little-endian); each word must fit the width."""
    if width == 1:
        return int.from_bytes(bytes(words), "little")
    code = "H" if width == 2 else "I"
    return int.from_bytes(struct.pack(f"<{len(words)}{code}", *words), "little")


def slot_ones(count: int, width: int) -> int:
    """The packed int with the value 1 in each of `count` slots."""
    return int.from_bytes(b"\x01".ljust(width, b"\0") * count, "little")


def slot_flags(x: int, count: int, width: int) -> bytes:
    """The low byte of each of the `count` slots of x."""
    return x.to_bytes(count * width, "little")[::width]


def slot_parity_word(x: int, count: int, width: int) -> int:
    """The word whose bit i is the parity of slot i of x, for `count` slots.

    XOR-folding a slot's upper bytes onto its low byte keeps its parity
    there (bytes shifted in from the next slot land above it), and a table
    maps each low byte to the digit of its parity: a 0/1 text, slot 0 first,
    read as one binary number."""
    if width > 2:
        x ^= x >> 16
    if width > 1:
        x ^= x >> 8
    text = slot_flags(x, count, width).translate(_PARITY_TEXT)
    return int(text[::-1] or b"0", 2)


__all__ = [
    "MAX_DIM",
    "word_to_text",
    "text_to_word",
    "dot_bits",
    "echelon_bits",
    "rank_bits",
    "solve_bits",
    "affine_solutions_bits",
    "gatherer",
    "slot_width",
    "pack_slots",
    "slot_ones",
    "slot_flags",
    "slot_parity_word",
]
