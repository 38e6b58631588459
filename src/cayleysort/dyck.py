"""Labeled Dyck paths recording restricted-stack runs.

Each push becomes an up-step and each pop a down-step, both labeled with the
letter moved, so the up labels read back the input and the down labels the
output.  Heights track stack occupancy, returns to the x-axis mark moments
the stack empties, and each valley (a down-step immediately followed by an
up-step) marks an input letter that triggered the restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from .core import Word
from .stack import PUSH, _as_letters, _run_word, _sigma_letters

# Not called here (`encode` runs the engine directly); kept because
# perfbench/tracer.py wraps dyck.run_stack by name.
from .stack import run_stack  # noqa: F401

U = "U"
D = "D"


@dataclass(frozen=True)
class LabeledDyckPath:
    """Balanced U/D steps, each carrying an integer label.

    Valid paths never dip below the axis, end at height zero, and give any
    up-step the same label as its matching down-step (the first down-step
    that returns below the up-step's height).  The constructor checks this
    in the one scan that records the matching `matched_pairs` returns.
    """

    steps: tuple[tuple[str, int], ...]
    _pairs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple((d, v) for d, v in self.steps))
        pending: list[tuple[int, int]] = []
        pairs: list[tuple[int, int]] = []
        for i, (direction, label) in enumerate(self.steps):
            if direction == U:
                pending.append((i, label))
            elif direction == D:
                if not pending:
                    raise ValueError("path dips below the axis")
                up, up_label = pending.pop()
                if up_label != label:
                    raise ValueError("matched steps carry different labels")
                pairs.append((up, i))
            else:
                raise ValueError(f"step direction {direction!r} is not U or D")
        if pending:
            raise ValueError("path does not return to the axis")
        object.__setattr__(self, "_pairs", tuple(pairs))

    def step_string(self) -> str:
        return "".join(d for d, _ in self.steps)

    def to_text(self) -> str:
        return "\n".join(
            (
                self.step_string(),
                " ".join(map(str, up_labels(self))),
                " ".join(map(str, down_labels(self))),
            )
        )

    def to_dict(self) -> dict:
        return {
            "steps": self.step_string(),
            "up_labels": list(up_labels(self)),
            "down_labels": list(down_labels(self)),
        }

    def __str__(self) -> str:
        return self.step_string()


def encode(p: Iterable[int], sigma: Iterable[int]) -> LabeledDyckPath:
    """The labeled path of the sigma-stack run on p.

    Up labels spell p, down labels spell s_sigma(p); the paired labels agree
    because the stack is last-in first-out.
    """
    sigmas = (_sigma_letters(sigma),)
    events: list[tuple[str, int]] = []
    _run_word(_as_letters(p), sigmas, False, events)
    return LabeledDyckPath(tuple((U if kind == PUSH else D, v) for kind, v in events))


def up_labels(path: LabeledDyckPath) -> Word:
    return tuple(v for d, v in path.steps if d == U)


def down_labels(path: LabeledDyckPath) -> Word:
    return tuple(v for d, v in path.steps if d == D)


def heights(path: LabeledDyckPath) -> list[int]:
    """Height after each step (stack occupancy after each machine event)."""
    out = []
    h = 0
    for d, _ in path.steps:
        h += 1 if d == U else -1
        out.append(h)
    return out


def matched_pairs(path: LabeledDyckPath) -> list[tuple[int, int]]:
    """(up index, down index) for each matched step pair, in order of the
    down step, as the constructor's validating scan recorded them."""
    return list(path._pairs)


def valleys(path: LabeledDyckPath) -> list[tuple[int, int, int]]:
    """All DU factors as (index of the down-step, down label, up label).

    Each valley witnesses one input letter whose push was blocked: the
    down label plays the second letter of the forbidden pattern and the up
    label the first, so an 11-restricted stack has equal-labeled valleys.
    """
    steps = path.steps
    return [
        (i, steps[i][1], steps[i + 1][1])
        for i in range(len(steps) - 1)
        if steps[i][0] == D and steps[i + 1][0] == U
    ]


def reverse_path(path: LabeledDyckPath | str) -> str:
    """Step string of the reversed path (read right to left, U and D swapped).

    Labels are dropped: reversal is a statement about shapes.  For any sigma
    with equal first letters, the path of p is the reverse of the path of
    reverse(s_sigma(p)).  A step string is checked as a path with placeholder
    labels, so anything but a Dyck word of U and D raises ValueError.
    """
    if isinstance(path, str):
        path = LabeledDyckPath(tuple((d, 0) for d in path))
    return "".join(U if d == D else D for d in reversed(path.step_string()))


def returns_decomposition(path: LabeledDyckPath) -> list[LabeledDyckPath]:
    """Split at each return to the axis into labeled sub-paths.

    Each piece is itself a valid path; pieces correspond to the maximal
    segments between moments the stack empties.  A piece ends at the down
    step that the constructor's matching pairs with its first up step.
    """
    pieces: list[LabeledDyckPath] = []
    start = 0
    for up, down in path._pairs:
        if up == start:
            pieces.append(LabeledDyckPath(path.steps[start : down + 1]))
            start = down + 1
    return pieces
