"""Three-mask color algebra.

A color state is a 3-bit set of still-allowed masks, one bit per mask:
red = bit 4, green = bit 2, blue = bit 1. "110" therefore reads "red or
green allowed, blue not". State 000 is the dead state: nothing may be
assigned from it.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Mapping


class Color(IntEnum):
    """One exposure mask, valued by its bit position in a color state."""

    RED = 4
    GREEN = 2
    BLUE = 1


# Deterministic preference order: highest bit first.
COLOR_ORDER: tuple[Color, Color, Color] = (Color.RED, Color.GREEN, Color.BLUE)

COLOR_LETTERS = {Color.RED: "R", Color.GREEN: "G", Color.BLUE: "B"}

ALL_COLORS = 0b111
NO_COLORS = 0b000


class DeadStateError(ValueError):
    """A final color was requested from the empty state."""


def intersect(a: int, b: int) -> int:
    """Masks allowed by both states."""
    return a & b


def contains(state: int, color: Color) -> bool:
    return bool(state & color)


def cardinality(state: int) -> int:
    """Number of masks still allowed (0..3)."""
    return (state & ALL_COLORS).bit_count()


def colors_in(state: int) -> list[Color]:
    """Member masks in fixed RED, GREEN, BLUE order."""
    return [c for c in COLOR_ORDER if state & c]


def pick_final(state: int, costs: Mapping[Color, float] | None = None) -> Color:
    """Choose the one mask a state converges to.

    Takes the lowest-cost candidate when per-color costs are supplied,
    breaking ties (and the no-cost case) by the fixed RED > GREEN > BLUE
    bit order.
    """
    if state == NO_COLORS:
        raise DeadStateError("cannot pick a final color from state 000")
    candidates = colors_in(state)
    if costs is None:
        return candidates[0]
    best = candidates[0]
    best_cost = costs[best]
    for c in candidates[1:]:
        if costs[c] < best_cost:
            best, best_cost = c, costs[c]
    return best


def to_string(state: int) -> str:
    """Encode as the 3-character binary form used in reports ("110")."""
    return f"{state & ALL_COLORS:03b}"


def from_string(text: str) -> int:
    if len(text) != 3 or any(ch not in "01" for ch in text):
        raise ValueError(f"not a 3-bit color state: {text!r}")
    return int(text, 2)
