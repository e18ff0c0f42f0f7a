"""Word segmentation, the keyword ground-truth rule, the classifier
architecture names and the config field type check shared across the
pipeline.

Stdlib only: the command-line parser takes the architecture names from here,
so a process that never classifies loads no model code.
"""

from __future__ import annotations

import dataclasses
import enum
import re
from collections.abc import Iterable

_WORD_RUN = re.compile(r"[a-z0-9]+")

UNKNOWN_WORD = "unk"  # reserved for the unknown token: no vocabulary, keyword or filler word

ARCHITECTURES = ("cnn", "attention", "hybrid")  # trained classifiers
ARCHITECTURE_CHOICES = ("oracle", *ARCHITECTURES)  # oracle: the keyword rule itself


class Label(enum.Enum):
    SENSITIVE = "sensitive"
    BENIGN = "benign"


def split_words(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric run."""
    return _WORD_RUN.findall(text.lower())


def keyword_set(keywords: Iterable[str]) -> frozenset[str]:
    """The lowercase keywords the ground-truth rule matches words against;
    build it once where many texts are labeled."""
    return frozenset(k.lower() for k in keywords)


def keyword_label(text: str, keywords: Iterable[str]) -> Label:
    """Ground-truth rule: sensitive iff any word of `text` is a keyword."""
    if keyword_set(keywords).isdisjoint(split_words(text)):
        return Label.BENIGN
    return Label.SENSITIVE


# A field annotated with the key takes an instance of one of the value's types;
# the config modules postpone annotations, so `Field.type` is the text.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def check_field_types(config: object) -> None:
    """Refuse, with ValueError, a config dataclass field annotated `int`,
    `float` or `str` that holds another type.  A bool is no number here, and
    a float field takes an int too.  Call it before any range check, which
    would fail on a wrong type with a less telling error."""
    for f in dataclasses.fields(config):
        allowed = _FIELD_TYPES.get(f.type)
        value = getattr(config, f.name)
        if allowed and (isinstance(value, bool) or not isinstance(value, allowed)):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
