"""Tokenization primitives shared by all text analysis in the library.

MASS analyzes English-language post/comment text with bag-of-words
methods (naive Bayes classification, lexicon sentiment, length-based
quality).  One tokenizer feeding every consumer keeps those components
consistent: "post length" in the quality score is the token count from
the same function the classifier uses.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

__all__ = [
    "tokenize",
    "word_count",
    "sentences",
    "ngrams",
    "shingles",
]

_WORD_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")
_SENTENCE_RE = re.compile(r"[.!?]+(?:\s+|$)")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens of ``text``.

    Splits on anything that is not alphanumeric, keeps simple
    apostrophe contractions ("don't" -> ``don't``).

    >>> tokenize("I don't AGREE, sorry!")
    ['i', "don't", 'agree', 'sorry']
    """
    return _WORD_RE.findall(text.lower())


def word_count(text: str) -> int:
    """Number of word tokens in ``text`` — the Length() of Eq. 2."""
    return len(tokenize(text))


def sentences(text: str) -> list[str]:
    """Split ``text`` into sentences on terminal punctuation."""
    parts = [part.strip() for part in _SENTENCE_RE.split(text)]
    return [part for part in parts if part]


def ngrams(tokens: Iterable[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield contiguous ``n``-grams from a token sequence.

    >>> list(ngrams(["a", "b", "c"], 2))
    [('a', 'b'), ('b', 'c')]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    window: list[str] = []
    for token in tokens:
        window.append(token)
        if len(window) == n:
            yield tuple(window)
            window.pop(0)


def shingles(text: str, k: int = 4) -> set[tuple[str, ...]]:
    """The set of ``k``-token shingles of a text.

    Used by the optional shingle-overlap copy detector (an extension of
    the paper's indicator-word novelty heuristic).
    """
    return set(ngrams(tokenize(text), k))
