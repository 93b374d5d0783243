"""Ground-set labels and their fixed global order.

A label is either one of the seven named points (``alpha``, ``beta``,
``gamma``, ``omega``, ``nu``, ``a``, ``delta``), an indexed point ``b<i>`` /
``c<i>`` / ``d<i>`` with i >= 1, or a plain integer.  The global order is:
named labels first (in the order above), then ``b1, c1, d1, b2, c2, d2, ...``,
then integers in numeric order.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

Label = Union[str, int]

NAMED = ("alpha", "beta", "gamma", "omega", "nu", "a", "delta")
_NAMED_INDEX = {name: i for i, name in enumerate(NAMED)}
_INDEXED = re.compile(r"([bcd])([1-9][0-9]*)")  # whole string: use fullmatch
_LETTER_RANK = {"b": 0, "c": 1, "d": 2}

# Labels that keep height 1 through the degenerations.
PERSISTENT = frozenset({"alpha", "beta", "gamma", "delta", "omega", "nu", "a", "b1"})

_GREEK = {"alpha": "α", "beta": "β", "gamma": "γ",
          "omega": "ω", "nu": "ν", "delta": "δ"}


def label_key(label: Label) -> tuple:
    """Sort key realizing the global label order; ValueError for a non-label."""
    if isinstance(label, str):
        if label in _NAMED_INDEX:
            return (0, _NAMED_INDEX[label], 0)
        m = _INDEXED.fullmatch(label)
        if m:
            return (1, int(m.group(2)), _LETTER_RANK[m.group(1)])
        raise ValueError(f"not a label: {label!r}")
    if isinstance(label, int) and not isinstance(label, bool):
        return (2, label, 0)
    raise ValueError(f"not a label: {label!r}")


def label_keys(labels: Iterable) -> list[tuple]:
    """The sort keys of the labels, in the given order.  ValueError names the
    first label that is invalid or repeats an earlier one."""
    keys, seen = [], set()
    for label in labels:
        try:
            key = label_key(label)
        except ValueError:
            raise ValueError(f"invalid label {label!r}") from None
        if key in seen:  # label_key is one-to-one
            raise ValueError(f"duplicate label {label!r}")
        seen.add(key)
        keys.append(key)
    return keys


def sort_labels(labels) -> tuple[Label, ...]:
    return tuple(sorted(labels, key=label_key))


def indexed(letter: str, i: int) -> str:
    """The label ``b<i>`` / ``c<i>`` / ``d<i>``.  Raises ValueError for an
    index that is not an int of at least 1 (a bool is not)."""
    if letter not in _LETTER_RANK or type(i) is not int or i < 1:
        raise ValueError(f"bad indexed label {letter}{i}")
    return f"{letter}{i}"


def display(label: Label) -> str:
    """Human-facing form of a label (Greek glyphs for the named points)."""
    if isinstance(label, str) and label in _GREEK:
        return _GREEK[label]
    return str(label)
