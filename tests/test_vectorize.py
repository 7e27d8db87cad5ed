"""Unit and property tests for vectorization utilities."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.nlp import (
    TfidfVectorizer,
    bag_of_words,
    cosine_similarity,
    dot_product,
    normalize,
    term_frequencies,
    top_terms,
)

word = st.sampled_from(["apple", "banana", "cherry", "date", "elder"])
sparse_vec = st.dictionaries(word, st.floats(-5, 5, allow_nan=False), max_size=5)


class TestBagOfWords:
    def test_counts(self):
        assert bag_of_words("cat cat dog") == {"cat": 2, "dog": 1}

    def test_stopwords_removed_by_default(self):
        assert "the" not in bag_of_words("the cat")

    def test_stopwords_kept_when_disabled(self):
        assert bag_of_words("the cat", use_stopwords=False)["the"] == 1


class TestTermFrequencies:
    def test_normalized(self):
        tf = term_frequencies("cat cat dog")
        assert math.isclose(tf["cat"], 2 / 3)
        assert math.isclose(sum(tf.values()), 1.0)

    def test_empty(self):
        assert term_frequencies("") == {}


class TestSparseOps:
    def test_dot_product(self):
        assert dot_product({"a": 2.0}, {"a": 3.0, "b": 1.0}) == 6.0

    def test_dot_disjoint(self):
        assert dot_product({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_normalize_unit_norm(self):
        vec = normalize({"a": 3.0, "b": 4.0})
        assert math.isclose(vec["a"] ** 2 + vec["b"] ** 2, 1.0)

    def test_normalize_zero_vector(self):
        assert normalize({"a": 0.0}) == {"a": 0.0}

    def test_cosine_identical(self):
        assert math.isclose(cosine_similarity({"a": 2.0}, {"a": 5.0}), 1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_cosine_zero_vector(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0

    @given(sparse_vec, sparse_vec)
    def test_dot_symmetric(self, left, right):
        assert math.isclose(
            dot_product(left, right), dot_product(right, left), abs_tol=1e-9
        )

    @given(sparse_vec, sparse_vec)
    # A value whose square is subnormal: sqrt(sum of squares) read 1.0044.
    @example({"apple": 1.0}, {"apple": 1.138349379185075e-161})
    def test_cosine_bounded(self, left, right):
        value = cosine_similarity(left, right)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestTfidf:
    DOCS = ["cat dog", "cat fish", "cat bird bird"]

    def test_requires_fit(self):
        with pytest.raises(ValueError, match="not fitted"):
            TfidfVectorizer().transform("cat")
        with pytest.raises(ValueError, match="not fitted"):
            TfidfVectorizer().idf("cat")

    def test_fit_empty_rejected(self):
        with pytest.raises(ValueError, match="zero documents"):
            TfidfVectorizer().fit([])

    def test_common_term_low_idf(self):
        vectorizer = TfidfVectorizer().fit(self.DOCS)
        assert vectorizer.idf("cat") < vectorizer.idf("fish")

    def test_unseen_term_max_idf(self):
        vectorizer = TfidfVectorizer().fit(self.DOCS)
        assert vectorizer.idf("zebra") >= vectorizer.idf("fish")

    def test_transform_unit_norm(self):
        vectorizer = TfidfVectorizer().fit(self.DOCS)
        vec = vectorizer.transform("cat bird")
        norm = math.sqrt(sum(v * v for v in vec.values()))
        assert math.isclose(norm, 1.0)

    def test_fit_transform_shape(self):
        vectors = TfidfVectorizer().fit_transform(self.DOCS)
        assert len(vectors) == 3
        assert all(isinstance(v, dict) for v in vectors)


class TestTopTerms:
    def test_orders_by_weight_then_name(self):
        vec = {"b": 2.0, "a": 2.0, "c": 1.0}
        assert top_terms(vec, 2) == [("a", 2.0), ("b", 2.0)]
