"""Domain-specific influence (Eq. 5) — the "multi-facet" in MASS.

    Inf(b_i, C_t) = Σ_k Inf(b_i, d_k) · iv(b_i, d_k, C_t)

where ``iv`` is the probability of post d_k belonging to domain C_t,
produced by the Post Analyzer's naive-Bayes classifier.  A blogger's
vector of per-domain scores, Inf(b_i, IV), is what both application
scenarios consume.

Scenario 1 ranks bloggers by the dot product ``Inf(b, IV)·iv(al)``.
One kernel computes it over a row-major n×D matrix of those vectors,
for :meth:`DomainInfluence.weighted_scores` and for the serving
snapshot alike: :func:`weighted_sums` scores every row and
:func:`weighted_top` selects the best rows.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence

try:  # The numpy kernel is optional; the python kernel is complete.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via kernel forcing
    _np = None

from repro.core.solver import InfluenceScores
from repro.core.sparse_solver import default_kernel
from repro.core.topk import RankedScores
from repro.data.corpus import BlogCorpus
from repro.errors import ParameterError
from repro.nlp.naive_bayes import NaiveBayesClassifier

__all__ = ["DomainInfluence", "PostMemberships", "weighted_sums",
           "weighted_top"]


def weighted_sums(
    matrix: array, width: int, terms: Sequence[tuple[int, float]]
) -> list[float]:
    """Eq. 5 for every row of the row-major n×D ``matrix``, in row order.

    ``terms`` are validated ``(column, weight)`` pairs.  Each row's score
    starts at ``+0.0`` and adds ``value · weight`` for each term, left to
    right, in ``terms`` order: the same bits on the numpy kernel and the
    pure-Python one, and on every Python version (``sum()`` is
    compensated from Python 3.12, so the kernel never calls it).
    """
    np = _np if default_kernel() == "numpy" else None
    scores = _accumulate(matrix, width, terms, np)
    return scores if np is None else scores.tolist()


def weighted_top(
    matrix: array, width: int, terms: Sequence[tuple[int, float]],
    limit: int,
) -> list[tuple[int, float]]:
    """The first ``limit`` ``(row, score)`` pairs in ``(-score, row)`` order.

    Scores are :func:`weighted_sums`'.  When the rows are in sorted-id
    order this is :func:`repro.core.topk.top_k`'s ``(-score, id)``
    order, ties across the ``limit`` boundary included.  On numpy a
    partition finds the ``limit``-th key, every row at or above it is
    kept in row order, and a stable argsort orders them.
    """
    np = _np if default_kernel() == "numpy" else None
    scores = _accumulate(matrix, width, terms, np)
    count = min(limit, len(scores))
    if count <= 0:
        return []
    if np is None:
        best = heapq.nsmallest(
            count, range(len(scores)), key=lambda row: (-scores[row], row)
        )
        return [(row, scores[row]) for row in best]
    keys = -scores
    rows = np.flatnonzero(keys <= np.partition(keys, count - 1)[count - 1])
    rows = rows[np.argsort(keys[rows], kind="stable")[:count]]
    return list(zip(rows.tolist(), scores[rows].tolist()))


def _accumulate(matrix: array, width: int, terms, np):
    """Each row's left-to-right Eq. 5 sum (a numpy array or a list)."""
    if np is None:
        scores = [0.0] * (len(matrix) // width)
        for column, weight in terms:
            scores = [
                total + value * weight
                for total, value in zip(scores, matrix[column::width])
            ]
        return scores
    values = np.frombuffer(matrix, np.float64).reshape(-1, width)
    scores = np.zeros(len(values))
    for column, weight in terms:
        scores = scores + values[:, column] * weight
    return scores


class PostMemberships(Mapping[str, dict[str, float]]):
    """Post memberships ``iv`` as one dense row of floats per post.

    Row ``r`` of ``values`` holds the post's membership in each of
    ``domains``, in that order (0.0 for a domain its mapping lacked).
    Rows are appended as posts arrive and never move, so the incremental
    analyzer keeps one table for life and adds only each delta's posts;
    :class:`DomainInfluence` then sums the rows in one batch instead of
    reading a dict per post and domain.  As a mapping it yields each
    post's membership dict, as the dict of dicts it replaces did.
    """

    def __init__(self, domains: Sequence[str]) -> None:
        self.domains = list(domains)
        self._rows: dict[str, int] = {}
        self.values = array("d")

    @classmethod
    def from_rows(
        cls, domains: Sequence[str], post_ids: Sequence[str], values: array
    ) -> "PostMemberships":
        """The table whose row ``r`` is post ``post_ids[r]``.

        ``values`` is the row-major ``array("d")`` of every row in
        ``domains`` order; it is adopted, not copied.  A length that is
        not ``len(post_ids) * len(domains)``, or a repeated post id,
        raises :class:`ValueError`.
        """
        table = cls(domains)
        if len(values) != len(post_ids) * len(table.domains):
            raise ValueError(
                f"{len(values)} values do not fill {len(post_ids)} rows of "
                f"{len(table.domains)} domains"
            )
        table._rows = dict(zip(post_ids, range(len(post_ids))))
        if len(table._rows) != len(post_ids):
            raise ValueError("post ids repeat")
        table.values = values
        return table

    def update(self, memberships: Mapping[str, Mapping[str, float]]) -> None:
        """Add (or overwrite) the rows of ``memberships``."""
        domains = self.domains
        width = len(domains)
        zeros = [0.0] * width
        rows = self._rows
        for post_id, membership in memberships.items():
            # Converted before anything is stored: a bad value raises
            # with the table unchanged.
            row = array("d", map(membership.get, domains, zeros))
            existing = rows.get(post_id)
            if existing is None:
                rows[post_id] = len(rows)
                self.values.extend(row)
            else:
                self.values[existing * width:(existing + 1) * width] = row

    def rows_of(self, post_ids: Sequence[str]) -> list[int]:
        """The row of each post, in order."""
        rows = self._rows
        return [rows[post_id] for post_id in post_ids]

    def matrix(self, post_ids: Sequence[str]) -> array:
        """The rows of ``post_ids``, in order, as one row-major array."""
        width = len(self.domains)
        values = self.values
        out = array("d")
        for row in self.rows_of(post_ids):
            out.extend(values[row * width:(row + 1) * width])
        return out

    def __getitem__(self, post_id: str) -> dict[str, float]:
        row = self._rows[post_id]
        width = len(self.domains)
        return dict(zip(self.domains, self.values[row * width:(row + 1) * width]))

    def __contains__(self, post_id: object) -> bool:
        return post_id in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def keys(self):
        return self._rows.keys()


class DomainInfluence:
    """Per-blogger, per-domain influence scores.

    Build from precomputed post memberships — the normal path passes
    the text table's batched naive-Bayes memberships
    (:meth:`repro.core.texts.PostTextTable.memberships`), and any other
    "interests mining method", which the paper explicitly allows, plugs
    in the same way — or with :meth:`from_classifier`, which scores
    each post's text one at a time.

    The memberships are held as a :class:`PostMemberships` table over
    ``domains`` (a domain a post's mapping lacks reads 0.0).  With
    ``share_memberships=True`` a table over the same domains is adopted
    by reference instead of copied — the incremental analyzer owns one
    table for its whole life and extends it in place per delta, so the
    per-apply O(corpus) copy disappears.

    Each blogger's score in a domain adds ``influence · iv`` over their
    posts in ``scores.post_influence`` order.  The sums run on the
    sparse solver's kernel (:func:`repro.core.sparse_solver.default_kernel`):
    one ``bincount`` per domain with numpy, which accumulates each
    blogger's posts in that same order, or pure-Python loops; both give
    the same bits.
    """

    def __init__(
        self,
        corpus: BlogCorpus,
        scores: InfluenceScores,
        post_memberships: Mapping[str, Mapping[str, float]],
        domains: Sequence[str],
        share_memberships: bool = False,
    ) -> None:
        if not domains:
            raise ParameterError("need at least one domain")
        self._domains = list(domains)
        self._corpus = corpus
        self._scores = scores
        if (
            share_memberships
            and isinstance(post_memberships, PostMemberships)
            and post_memberships.domains == self._domains
        ):
            self._post_memberships = post_memberships
        else:
            self._post_memberships = PostMemberships(self._domains)
            self._post_memberships.update(post_memberships)

        missing = set(corpus.posts).difference(self._post_memberships.keys())
        if missing:
            raise ParameterError(
                f"post memberships missing for {len(missing)} posts, "
                f"e.g. {sorted(missing)[:3]}"
            )

        self._rankings: dict[str, RankedScores] = {}
        self._blogger_ids = corpus.blogger_ids()
        self._row = {
            blogger_id: row for row, blogger_id in enumerate(self._blogger_ids)
        }
        self._column = {domain: j for j, domain in enumerate(self._domains)}
        self._vectors = self._sum_vectors()

    def _sum_vectors(self) -> list[list[float]]:
        """Each blogger's scores, one row in domain order."""
        post_influence = self._scores.post_influence
        post_ids = list(post_influence)
        num_bloggers = len(self._blogger_ids)
        width = len(self._domains)
        if not post_ids:
            return [[0.0] * width for _ in range(num_bloggers)]
        author_of = self._corpus.post_author_id
        row = self._row
        authors = [row[author_of(post_id)] for post_id in post_ids]
        memberships = self._post_memberships
        rows = memberships.rows_of(post_ids)
        np = _np if default_kernel() == "numpy" else None
        if np is None:
            values = memberships.values
            vectors = [[0.0] * width for _ in range(num_bloggers)]
            for influence, author, first in zip(
                post_influence.values(), authors,
                (member_row * width for member_row in rows),
            ):
                vector = vectors[author]
                for offset in range(width):
                    vector[offset] += influence * values[first + offset]
            return vectors
        weights = np.fromiter(
            post_influence.values(), np.float64, len(post_ids)
        )
        matrix = np.frombuffer(memberships.values, np.float64).reshape(
            -1, width
        )[rows]
        authors = np.fromiter(authors, np.intp, len(post_ids))
        # Row-major lists, so each blogger's floats sit together as the
        # per-post loop left them (the snapshot copies them row by row).
        return np.column_stack([
            np.bincount(
                authors, weights * matrix[:, column], minlength=num_bloggers
            )
            for column in range(width)
        ]).tolist()

    @classmethod
    def from_classifier(
        cls,
        corpus: BlogCorpus,
        scores: InfluenceScores,
        classifier: NaiveBayesClassifier,
    ) -> "DomainInfluence":
        """Classify every post with ``classifier`` and build the vectors."""
        memberships = {
            post_id: classifier.predict_proba(corpus.post(post_id).text)
            for post_id in sorted(corpus.posts)
        }
        return cls(corpus, scores, memberships, classifier.classes)

    # ------------------------------------------------------------------
    @property
    def domains(self) -> list[str]:
        """The domain set (copy)."""
        return list(self._domains)

    @property
    def memberships(self) -> PostMemberships:
        """The post membership table the sums read (not a copy)."""
        return self._post_memberships

    def post_membership(self, post_id: str) -> dict[str, float]:
        """iv(·, d_k, ·): the domain distribution of one post."""
        return self._post_memberships[post_id]

    def vector(self, blogger_id: str) -> dict[str, float]:
        """Inf(b, IV): the blogger's per-domain influence scores."""
        return dict(zip(self._domains, self._vectors[self._row[blogger_id]]))

    def rows(self, blogger_ids: Iterable[str]) -> array:
        """The scores of ``blogger_ids`` as one row-major ``array("d")``.

        Row ``i`` holds the ``i``-th blogger's scores in :attr:`domains`
        order, the same floats :meth:`vector` returns, so a caller that
        needs the whole n×D table (the serving snapshot) reads it in
        one call.  An unknown blogger raises :class:`KeyError`.
        """
        vectors = self._vectors
        row = self._row
        table = array("d")
        for blogger_id in blogger_ids:
            table.extend(vectors[row[blogger_id]])
        return table

    def score(self, blogger_id: str, domain: str) -> float:
        """Inf(b, C_t) for one blogger and domain."""
        vector = self._vectors[self._row[blogger_id]]
        if domain not in self._column:
            raise ParameterError(
                f"unknown domain {domain!r}; known: {self._domains}"
            )
        return vector[self._column[domain]]

    def domain_scores(self, domain: str) -> dict[str, float]:
        """All bloggers' scores in one domain."""
        if domain not in self._domains:
            raise ParameterError(
                f"unknown domain {domain!r}; known: {self._domains}"
            )
        j = self._column[domain]
        return {
            blogger_id: vector[j]
            for blogger_id, vector in zip(self._blogger_ids, self._vectors)
        }

    def ranked(self, domain: str) -> RankedScores:
        """The domain's :class:`RankedScores` (sorted once, on first use)."""
        ranked = self._rankings.get(domain)
        if ranked is None:
            ranked = RankedScores(self.domain_scores(domain))
            self._rankings[domain] = ranked
        return ranked

    def ranking(self, domain: str, k: int | None = None) -> list[tuple[str, float]]:
        """Top-k bloggers in a domain (all of them when ``k`` is None)."""
        if domain not in self._domains:
            raise ParameterError(
                f"unknown domain {domain!r}; known: {self._domains}"
            )
        ranked = self.ranked(domain)
        if k is None:
            return ranked.ranking()
        return ranked.top(k)

    def weighted_scores(
        self, interest: Mapping[str, float]
    ) -> dict[str, float]:
        """Inf(b, IV) · iv — the dot product behind Scenario 1.

        ``interest`` maps domains to weights; unknown domains in the
        interest vector are rejected rather than silently ignored.  The
        terms are added in sorted-domain order (:func:`weighted_sums`),
        whatever the order of ``interest``.
        """
        unknown = set(interest) - set(self._domains)
        if unknown:
            raise ParameterError(
                f"interest vector has unknown domains: {sorted(unknown)}"
            )
        terms = [
            (self._column[domain], float(interest[domain]))
            for domain in sorted(interest)
        ]
        scores = weighted_sums(
            self.rows(self._blogger_ids), len(self._domains), terms
        )
        return dict(zip(self._blogger_ids, scores))

