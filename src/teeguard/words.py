"""Word segmentation, the keyword ground-truth rule, the classifier
architecture names and the check of each config field against its
annotation, shared across the pipeline.  A field's type is read from its
annotation alone; range checks stay in each `__post_init__`.

Stdlib only: the command-line parser takes the architecture names from here,
so a process that never classifies loads no model code.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import re
import types
import typing
from collections.abc import Callable, Iterable

_WORD_RUN = re.compile(r"[a-z0-9]+")
_type_hints = functools.cache(typing.get_type_hints)  # resolved once per config class

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


@functools.cache
def _type_test(hint: object) -> Callable[[object], bool]:
    """Whether a value fits the resolved annotation `hint` (a list fits a tuple,
    an int a float, a bool no number); TypeError for one it cannot check."""
    tests = [_type_test(arg) for arg in typing.get_args(hint) if arg is not Ellipsis]
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return lambda value: any(test(value) for test in tests)
    if typing.get_origin(hint) is tuple and Ellipsis in typing.get_args(hint):
        return lambda value: isinstance(value, (tuple, list)) and all(map(tests[0], value))
    if typing.get_origin(hint) is tuple:
        return lambda value: (isinstance(value, (tuple, list)) and len(value) == len(tests)
                              and all(test(item) for test, item in zip(tests, value)))
    if hint in (int, float, str, type(None)):
        allowed = (int, float) if hint is float else hint
        return lambda value: isinstance(value, allowed) and not isinstance(value, bool)
    if isinstance(hint, type) and (issubclass(hint, enum.Enum) or dataclasses.is_dataclass(hint)):
        return lambda value: isinstance(value, hint)
    raise TypeError(f"no type check for the annotation {hint!r}")


def check_field_types(config: object) -> None:
    """Refuse, with ValueError, a config dataclass field whose value does not
    fit its annotation.  Run it before any range check on the fields."""
    hints = _type_hints(type(config))
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _type_test(hints[f.name])(value):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
