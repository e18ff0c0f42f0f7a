"""Word segmentation, the keyword ground-truth rule and the classifier
architecture names shared across the pipeline.

Stdlib only: the command-line parser takes the architecture names from here,
so a process that never classifies loads no model code.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterable

_WORD_RUN = re.compile(r"[a-z0-9]+")

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
