"""Bag-of-words and TF-IDF vectorization.

Used by the interest miner (keyword mode) and available as a general
substrate.  Vectors are plain ``dict[str, float]`` keyed by word — at
blogosphere scale (tens of thousands of short documents) sparse dicts
are simpler and fast enough, and they keep the public API free of
array-shape bookkeeping.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence

from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenize import tokenize

__all__ = [
    "bag_of_words",
    "term_frequencies",
    "cosine_similarity",
    "dot_product",
    "normalize",
    "TfidfVectorizer",
]


def bag_of_words(text: str, use_stopwords: bool = True) -> Counter[str]:
    """Raw token counts of ``text``."""
    tokens = tokenize(text)
    if use_stopwords:
        tokens = remove_stopwords(tokens)
    return Counter(tokens)


def term_frequencies(text: str, use_stopwords: bool = True) -> dict[str, float]:
    """Relative token frequencies of ``text`` (sum to 1 if non-empty)."""
    counts = bag_of_words(text, use_stopwords=use_stopwords)
    total = sum(counts.values())
    if total == 0:
        return {}
    return {word: count / total for word, count in counts.items()}


def dot_product(left: Mapping[str, float], right: Mapping[str, float]) -> float:
    """Sparse dot product of two word vectors."""
    if len(left) > len(right):
        left, right = right, left
    return sum(value * right.get(word, 0.0) for word, value in left.items())


def normalize(vector: Mapping[str, float]) -> dict[str, float]:
    """L2-normalize a sparse vector; the zero vector stays zero."""
    norm = math.sqrt(sum(value * value for value in vector.values()))
    if norm == 0.0:
        return dict(vector)
    return {word: value / norm for word, value in vector.items()}


def cosine_similarity(left: Mapping[str, float], right: Mapping[str, float]) -> float:
    """Cosine of the angle between two sparse vectors (0 for zero vectors).

    Norms come from :func:`math.hypot`, which scales before squaring: a
    plain ``sqrt(sum(v * v))`` loses most of a tiny value's bits to a
    subnormal square and can push the cosine above 1.
    """
    left_norm = math.hypot(*left.values())
    right_norm = math.hypot(*right.values())
    denominator = left_norm * right_norm
    if denominator == 0.0:
        return 0.0
    return dot_product(left, right) / denominator


class TfidfVectorizer:
    """TF-IDF weighting fitted on a document collection.

    IDF uses the smoothed form ``log((1 + N) / (1 + df)) + 1`` so terms
    present in every document keep a small positive weight and unseen
    terms are well-defined at transform time (df = 0).
    """

    def __init__(self, use_stopwords: bool = True) -> None:
        self._use_stopwords = use_stopwords
        self._idf: dict[str, float] = {}
        self._num_documents = 0

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._num_documents > 0

    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        """Learn IDF weights from ``documents``."""
        if not documents:
            raise ValueError("cannot fit TfidfVectorizer on zero documents")
        document_frequency: Counter[str] = Counter()
        for document in documents:
            document_frequency.update(
                set(bag_of_words(document, self._use_stopwords))
            )
        self._num_documents = len(documents)
        self._idf = {
            word: math.log((1 + self._num_documents) / (1 + df)) + 1.0
            for word, df in document_frequency.items()
        }
        return self

    def idf(self, word: str) -> float:
        """IDF weight of ``word`` (maximal for unseen words)."""
        if not self.fitted:
            raise ValueError("TfidfVectorizer is not fitted")
        default = math.log(1 + self._num_documents) + 1.0
        return self._idf.get(word, default)

    def transform(self, text: str) -> dict[str, float]:
        """L2-normalized TF-IDF vector of ``text``."""
        if not self.fitted:
            raise ValueError("TfidfVectorizer is not fitted")
        tf = term_frequencies(text, self._use_stopwords)
        weighted = {word: freq * self.idf(word) for word, freq in tf.items()}
        return normalize(weighted)

    def fit_transform(self, documents: Sequence[str]) -> list[dict[str, float]]:
        """Fit on ``documents`` and return their vectors."""
        self.fit(documents)
        return [self.transform(document) for document in documents]


def top_terms(vector: Mapping[str, float], k: int = 10) -> list[tuple[str, float]]:
    """The ``k`` highest-weight terms of a vector, ties alphabetical."""
    return sorted(vector.items(), key=lambda item: (-item[1], item[0]))[:k]


__all__.append("top_terms")
