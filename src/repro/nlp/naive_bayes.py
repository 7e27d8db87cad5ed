"""Multinomial naive Bayes text classifier, from scratch.

This is the Post Analyzer's engine: "MASS automatically analyzes the
posts and generates a iv(b_i, d_k, C_t) using naive Bayesian method".
``predict_proba`` returns the posterior P(C_t | d_k) over the
predefined domains — exactly the ``iv`` membership vector of Eq. 5.

Implementation notes
--------------------
- Multinomial event model with Laplace (add-``smoothing``) smoothing.
- All arithmetic in log space; posteriors normalized with log-sum-exp.
- Tokens never seen in training are skipped at prediction time (they
  carry no class signal and would only flatten posteriors).
- ``predict_proba_rows`` scores many posts at once from their feature
  ids (``feature_ids``) laid out as a CSR.  Its numpy kernel adds the
  log-probability rows position by position, which is the summation
  order of ``predict_proba``, and normalizes each row with the same
  Python code (``np.exp`` and numpy's sums would move the last bit), so
  every row equals ``predict_proba`` of the same text bit for bit; the
  pure-Python kernel runs the same loops without numpy.
- ``NaiveBayesClassifier.from_seed_vocabulary`` trains on per-domain
  seed word lists as pseudo-documents, supporting the paper's
  "predefined by the business applications" domain mode when no
  labelled posts exist.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence

try:  # The numpy batch kernel is optional; the python kernel is complete.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via kernel forcing
    _np = None

from repro.errors import ClassifierError
from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenize import tokenize

__all__ = ["NaiveBayesClassifier"]


class NaiveBayesClassifier:
    """Multinomial naive Bayes over bag-of-words features.

    Parameters
    ----------
    smoothing:
        Laplace smoothing constant added to every word count (> 0).
    use_stopwords:
        Drop stopwords from features (default True).

    Examples
    --------
    >>> clf = NaiveBayesClassifier().fit(
    ...     ["the marathon race", "the stock market"], ["Sports", "Economics"])
    >>> clf.predict("a new marathon record")
    'Sports'
    """

    def __init__(self, smoothing: float = 1.0, use_stopwords: bool = True) -> None:
        if smoothing <= 0:
            raise ClassifierError(f"smoothing must be > 0, got {smoothing}")
        self._smoothing = smoothing
        self._use_stopwords = use_stopwords
        self._class_log_prior: dict[str, float] = {}
        self._word_log_prob: dict[str, dict[str, float]] = {}
        self._vocabulary: set[str] = set()
        self._trained = False
        # Batch-scoring tables, derived from the fitted model on first
        # use: feature id per vocabulary word, and per class (in
        # ``_class_log_prior`` order) the log-probability of each id.
        self._feature_index: dict[str, int] | None = None
        self._columns: list[list[float]] = []
        self._matrix = None

    # ------------------------------------------------------------------
    def _features(self, text: str) -> list[str]:
        tokens = tokenize(text)
        if self._use_stopwords:
            tokens = remove_stopwords(tokens)
        return tokens

    @property
    def classes(self) -> list[str]:
        """Trained class labels in sorted order."""
        self._require_trained()
        return sorted(self._class_log_prior)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct feature words seen in training."""
        self._require_trained()
        return len(self._vocabulary)

    def _require_trained(self) -> None:
        if not self._trained:
            raise ClassifierError("classifier is not trained; call fit() first")

    # ------------------------------------------------------------------
    def fit(
        self, texts: Sequence[str], labels: Sequence[str]
    ) -> "NaiveBayesClassifier":
        """Train on parallel sequences of texts and class labels."""
        if len(texts) != len(labels):
            raise ClassifierError(
                f"got {len(texts)} texts but {len(labels)} labels"
            )
        if not texts:
            raise ClassifierError("cannot train on an empty corpus")

        class_doc_counts: Counter[str] = Counter(labels)
        if len(class_doc_counts) < 2:
            raise ClassifierError(
                f"need at least 2 classes, got {sorted(class_doc_counts)}"
            )

        word_counts: dict[str, Counter[str]] = defaultdict(Counter)
        for text, label in zip(texts, labels):
            word_counts[label].update(self._features(text))

        vocabulary: set[str] = set()
        for counter in word_counts.values():
            vocabulary.update(counter)
        if not vocabulary:
            raise ClassifierError("training corpus has no usable tokens")

        total_docs = len(texts)
        self._class_log_prior = {
            label: math.log(count / total_docs)
            for label, count in class_doc_counts.items()
        }
        self._word_log_prob = {}
        vocab_size = len(vocabulary)
        for label in class_doc_counts:
            counter = word_counts[label]
            total = sum(counter.values()) + self._smoothing * vocab_size
            self._word_log_prob[label] = {
                word: math.log((counter.get(word, 0) + self._smoothing) / total)
                for word in vocabulary
            }
        self._vocabulary = vocabulary
        self._trained = True
        self._feature_index = None
        self._matrix = None
        return self

    @classmethod
    def from_seed_vocabulary(
        cls,
        seed_words: Mapping[str, Iterable[str]],
        smoothing: float = 1.0,
    ) -> "NaiveBayesClassifier":
        """Train from per-class seed word lists (one pseudo-doc per class).

        Every class gets a uniform prior; the likelihoods come from the
        seed vocabulary, so classification reduces to smoothed seed-word
        overlap.  This is how MASS bootstraps "predefined" domains.
        """
        texts = []
        labels = []
        for label in sorted(seed_words):
            words = list(seed_words[label])
            if not words:
                raise ClassifierError(f"seed vocabulary for {label!r} is empty")
            texts.append(" ".join(words))
            labels.append(label)
        classifier = cls(smoothing=smoothing, use_stopwords=False)
        classifier.fit(texts, labels)
        return classifier

    # ------------------------------------------------------------------
    def log_posteriors(self, text: str) -> dict[str, float]:
        """Unnormalized log posterior per class for ``text``."""
        self._require_trained()
        features = [t for t in self._features(text) if t in self._vocabulary]
        scores: dict[str, float] = {}
        for label, log_prior in self._class_log_prior.items():
            word_probs = self._word_log_prob[label]
            # An explicit left-to-right sum: the order every kernel of
            # ``predict_proba_rows`` reproduces (``sum()`` compensates
            # float rounding from Python 3.12 on).
            acc = 0.0
            for token in features:
                acc += word_probs[token]
            scores[label] = log_prior + acc
        return scores

    def predict_proba(self, text: str) -> dict[str, float]:
        """Posterior P(class | text), normalized to sum to 1.

        A text with no in-vocabulary tokens falls back to the class
        priors — the least-wrong answer for contentless input.
        """
        scores = self.log_posteriors(text)
        return _normalize(list(scores), list(scores.values()))

    # ------------------------------------------------------------------
    def feature_ids(self, tokens: Iterable[str]) -> list[int]:
        """Ids of the in-vocabulary features among ``tokens``, in order.

        ``tokens`` come from :func:`repro.nlp.tokenize.tokenize`; the
        ids index the rows ``predict_proba_rows`` scores.  Stopwords
        never enter the vocabulary of a classifier that drops them, so
        the vocabulary filter alone reproduces the features of
        :meth:`predict_proba`.
        """
        index = self._index()
        return [index[token] for token in tokens if token in index]

    def predict_proba_rows(
        self, term_ids: Sequence[int], row_starts: Sequence[int]
    ) -> list[dict[str, float]]:
        """:meth:`predict_proba` of many texts from their feature ids.

        Row ``r`` holds the ids ``term_ids[row_starts[r]:row_starts[r +
        1]]`` (``row_starts`` may start past 0, so a slice of a larger
        CSR scores a run of its rows).  Each returned dict equals
        ``predict_proba`` of the row's text bit for bit.  The sums run
        on the sparse solver's kernel
        (:func:`repro.core.sparse_solver.default_kernel`): numpy when it
        imports, else pure Python.
        """
        # Imported here: repro.core imports this module.
        from repro.core.sparse_solver import default_kernel

        self._index()
        if len(row_starts) < 2:
            return []
        if default_kernel() == "numpy" and _np is not None:
            sums = (
                row.tolist()
                for row in self._row_sums_numpy(term_ids, row_starts)
            )
        else:
            sums = self._row_sums_python(term_ids, row_starts)
        labels = list(self._class_log_prior)
        priors = list(self._class_log_prior.values())
        return [
            _normalize(labels, [prior + acc for prior, acc in zip(priors, row)])
            for row in sums
        ]

    def _index(self) -> dict[str, int]:
        self._require_trained()
        if self._feature_index is None:
            words = sorted(self._vocabulary)
            self._columns = [
                [self._word_log_prob[label][word] for word in words]
                for label in self._class_log_prior
            ]
            self._matrix = None
            # Published last: a reader that sees the index sees its
            # columns.
            self._feature_index = {word: i for i, word in enumerate(words)}
        return self._feature_index

    def _row_sums_python(
        self, term_ids: Sequence[int], row_starts: Sequence[int]
    ) -> Iterator[list[float]]:
        """Per row, the sum of its terms' log-probabilities per class."""
        for row in range(len(row_starts) - 1):
            ids = term_ids[row_starts[row]:row_starts[row + 1]]
            sums = []
            for column in self._columns:
                acc = 0.0
                for term in ids:
                    acc += column[term]
                sums.append(acc)
            yield sums

    def _row_sums_numpy(
        self, term_ids: Sequence[int], row_starts: Sequence[int]
    ):
        """:meth:`_row_sums_python` as one (rows × classes) array."""
        if self._matrix is None:
            # (vocabulary × classes): one gathered row per feature id.
            self._matrix = _np.ascontiguousarray(
                _np.array(self._columns, dtype=_np.float64).T
            )
        starts = _np.asarray(row_starts, dtype=_np.int64)
        base = int(starts[0])
        ids = _np.asarray(term_ids[base:int(starts[-1])])
        lengths = starts[1:] - starts[:-1]
        # Longest rows first: after position j only the first
        # ``active`` rows still have terms, so each step is one slice.
        order = _np.argsort(-lengths, kind="stable")
        offsets = starts[:-1][order] - base
        descending = -lengths[order]
        sums = _np.zeros((len(order), self._matrix.shape[1]))
        for position in range(int(-descending[0])):
            active = int(_np.searchsorted(descending, -position, "left"))
            # Position-major adds keep each row's left-to-right order
            # (``np.add.reduceat`` would not).  The gather is one
            # position wide: gathering every term at once would hold a
            # class-wide row per term of the corpus (36 MB at 3,000
            # bloggers).
            sums[:active] += self._matrix[ids[offsets[:active] + position]]
        unsorted = _np.empty_like(sums)
        unsorted[order] = sums
        return unsorted

    def predict(self, text: str) -> str:
        """Most probable class for ``text`` (ties break alphabetically)."""
        probabilities = self.predict_proba(text)
        return max(sorted(probabilities), key=lambda label: probabilities[label])

    def score(self, texts: Sequence[str], labels: Sequence[str]) -> float:
        """Accuracy on a labelled evaluation set."""
        if len(texts) != len(labels):
            raise ClassifierError(
                f"got {len(texts)} texts but {len(labels)} labels"
            )
        if not texts:
            raise ClassifierError("cannot score an empty evaluation set")
        hits = sum(
            1 for text, label in zip(texts, labels) if self.predict(text) == label
        )
        return hits / len(texts)


def _normalize(labels: list[str], scores: list[float]) -> dict[str, float]:
    """Log-sum-exp normalization of one text's class scores, in order."""
    peak = max(scores)
    exp_scores = [math.exp(score - peak) for score in scores]
    total = 0.0
    for value in exp_scores:
        total += value
    return {label: value / total for label, value in zip(labels, exp_scores)}
