"""Corpus → flat-array compilation for the sparse influence backend.

The reference solver iterates Eqs. 1–4 over dict-of-dicts structures;
per sweep that is one hash lookup per comment term.  This module
compiles a corpus **once** into flat index arrays so the sweeps in
:mod:`repro.core.sparse_solver` are pure array arithmetic:

- blogger ids are interned to dense integer rows (``blogger_ids`` /
  ``index``);
- the comment matrix ``A_ij = α(1−β) · Σ_{j's comments on i's posts}
  SF / TC(j)`` is stored CSR-style (``row_ptr`` / ``col_idx`` /
  ``weights`` hold the raw ``Σ SF/TC`` sums; the scalar coupling
  ``α(1−β)`` is applied during the sweep);
- the constant term ``c``, the ``GL`` authority vector and the per-post
  ``Q`` values are dense ``array('d')`` vectors;
- a second, post-level CSR (``post_row_ptr`` / ``post_col_idx`` /
  ``post_weights``) drives the scatter stage that evaluates
  CommentScore and Inf(b_i, d_k) at the fixed point.

Term order inside every row matches the reference solver's
accumulation order (posts in sorted id order, comments in sorted id
order within a post), so the two backends differ only by float
summation noise — the equivalence suite holds them to 1e-9.

:class:`AssemblyCache` carries compiled arrays across the incremental
analyzer's warm-started re-solves: after a corpus delta only *dirty*
rows (authors of newly commented posts, rows touched by a commenter
whose TC changed, and brand-new bloggers) and dirty posts are
re-assembled and spliced into the previous compilation; each clean run
between two of them is copied as one slice.  Finding them reads the
corpus's commenter index, so the splice costs O(delta) plus a few
slice copies; only the dense vectors (quality, ``c``, ``GL``) are
rebuilt over the whole corpus.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.comments import CommentModel
from repro.core.parameters import MassParameters
from repro.data.corpus import BlogCorpus
from repro.obs import get_logger

__all__ = ["CompiledSystem", "AssemblyCache", "compile_system"]

_LOG = get_logger("assemble")


@dataclass(slots=True)
class CompiledSystem:
    """One corpus compiled to the flat arrays the sparse kernels sweep.

    Attributes
    ----------
    blogger_ids / index:
        Row order (corpus order, deltas appended) and its inverse.
    constant / gl:
        Dense ``c_i`` and ``GL(b_i)`` vectors in row order.
    alpha / beta / coupling / use_citation:
        The parameter snapshot baked into ``constant`` (coupling is
        ``α(1−β)``, applied by the kernel, not stored in the weights).
    row_ptr / col_idx / weights:
        Blogger-level CSR of the raw citation sums ``Σ SF/TC``; one
        entry per counted comment, in reference accumulation order.
    post_ids / post_author / post_quality / post_sf_sum:
        Post order (sorted ids), each post's author row, QualityScore,
        and plain ``Σ SF`` (the citation-ablation CommentScore).
    post_row_ptr / post_col_idx / post_weights:
        Post-level CSR of comment terms, for the scatter stage.
    """

    blogger_ids: list[str]
    index: dict[str, int]
    constant: array
    gl: array
    alpha: float
    beta: float
    coupling: float
    use_citation: bool
    row_ptr: array
    col_idx: array
    weights: array
    post_ids: list[str]
    post_author: array
    post_quality: array
    post_sf_sum: array
    post_row_ptr: array
    post_col_idx: array
    post_weights: array

    @property
    def num_bloggers(self) -> int:
        """Number of rows in the compiled system."""
        return len(self.blogger_ids)

    @property
    def nnz(self) -> int:
        """Stored entries of the comment matrix (0 under citation-off)."""
        return len(self.weights)

    def row_terms(self, blogger_id: str) -> list[tuple[str, float]]:
        """One row's ``(commenter_id, SF/TC)`` pairs (diagnostics)."""
        row = self.index[blogger_id]
        return [
            (self.blogger_ids[self.col_idx[k]], self.weights[k])
            for k in range(self.row_ptr[row], self.row_ptr[row + 1])
        ]


def _post_terms(
    comment_model: CommentModel,
    post_id: str,
    index: dict[str, int],
    use_citation: bool,
) -> tuple[list[int], list[float], float]:
    """One post's (commenter rows, SF/TC weights, Σ SF·decay) triple.

    Decayed quantities throughout: with the temporal facet inert every
    ``decay`` is exactly ``1.0``, so the triple is bit-identical to an
    undecayed assembly.
    """
    cols: list[int] = []
    weights: list[float] = []
    sf_sum = 0.0
    for term in comment_model.terms_for(post_id):
        sf_sum += term.decayed_sf
        if use_citation:
            cols.append(index[term.commenter_id])
            weights.append(term.citation_weight)
    return cols, weights, sf_sum


def _build_constant(
    params: MassParameters,
    blogger_ids: list[str],
    gl: dict[str, float],
    post_author: array,
    post_quality: array,
    post_sf_sum: array,
) -> tuple[array, array]:
    """The dense ``c`` and ``GL`` vectors for a row order."""
    n = len(blogger_ids)
    gl_vec = array("d", (gl.get(b, 0.0) for b in blogger_ids))
    quality_sum = array("d", bytes(8 * n))
    for k in range(len(post_author)):
        quality_sum[post_author[k]] += post_quality[k]
    ab = params.alpha * params.beta
    one_minus_alpha = 1.0 - params.alpha
    constant = array(
        "d",
        (
            ab * quality_sum[i] + one_minus_alpha * gl_vec[i]
            for i in range(n)
        ),
    )
    if not params.use_citation:
        # Citation off: CommentScore is influence-free and folds into
        # the constant term, exactly as the reference solver does.
        fold = params.alpha * (1.0 - params.beta)
        for k in range(len(post_author)):
            constant[post_author[k]] += fold * post_sf_sum[k]
    return constant, gl_vec


def compile_system(
    corpus: BlogCorpus,
    params: MassParameters,
    comment_model: CommentModel,
    quality: dict[str, float],
    gl: dict[str, float],
) -> CompiledSystem:
    """Cold-compile a corpus into a :class:`CompiledSystem`.

    ``quality`` and ``gl`` are the per-post QualityScore and per-blogger
    GL maps the solver already computed; assembly only flattens and
    weights, it never re-runs the analyzers.
    """
    blogger_ids = corpus.blogger_ids()
    index = {blogger_id: row for row, blogger_id in enumerate(blogger_ids)}
    use_citation = params.use_citation

    author_of = corpus.post_author_id
    post_ids = sorted(corpus.posts)
    post_author = array(
        "q", (index[author_of(post_id)] for post_id in post_ids)
    )
    post_quality = array("d", (quality[post_id] for post_id in post_ids))

    post_row_ptr = array("q", [0])
    post_col_idx = array("q")
    post_weights = array("d")
    post_sf_sum = array("d")
    for post_id in post_ids:
        cols, weights, sf_sum = _post_terms(
            comment_model, post_id, index, use_citation
        )
        post_col_idx.extend(cols)
        post_weights.extend(weights)
        post_sf_sum.append(sf_sum)
        post_row_ptr.append(len(post_col_idx))

    row_ptr, col_idx, weights = _rows_from_posts(
        len(blogger_ids), post_author, post_row_ptr, post_col_idx,
        post_weights,
    )
    constant, gl_vec = _build_constant(
        params, blogger_ids, gl, post_author, post_quality, post_sf_sum,
    )
    return CompiledSystem(
        blogger_ids=blogger_ids,
        index=index,
        constant=constant,
        gl=gl_vec,
        alpha=params.alpha,
        beta=params.beta,
        coupling=params.alpha * (1.0 - params.beta),
        use_citation=use_citation,
        row_ptr=row_ptr,
        col_idx=col_idx,
        weights=weights,
        post_ids=post_ids,
        post_author=post_author,
        post_quality=post_quality,
        post_sf_sum=post_sf_sum,
        post_row_ptr=post_row_ptr,
        post_col_idx=post_col_idx,
        post_weights=post_weights,
    )


def _rows_from_posts(
    num_bloggers: int,
    post_author: array,
    post_row_ptr: array,
    post_col_idx: array,
    post_weights: array,
) -> tuple[array, array, array]:
    """Aggregate the post-level CSR into the blogger-level CSR.

    Posts are visited in sorted-id order and appended to their author's
    row, reproducing the reference solver's term order exactly.
    """
    per_row_cols: list[list[int]] = [[] for _ in range(num_bloggers)]
    per_row_weights: list[list[float]] = [[] for _ in range(num_bloggers)]
    for k in range(len(post_author)):
        row = post_author[k]
        start, end = post_row_ptr[k], post_row_ptr[k + 1]
        per_row_cols[row].extend(post_col_idx[start:end])
        per_row_weights[row].extend(post_weights[start:end])
    row_ptr = array("q", [0])
    col_idx = array("q")
    weights = array("d")
    for row in range(num_bloggers):
        col_idx.extend(per_row_cols[row])
        weights.extend(per_row_weights[row])
        row_ptr.append(len(col_idx))
    return row_ptr, col_idx, weights


class AssemblyCache:
    """Compiled arrays carried across warm-started re-solves.

    The incremental analyzer owns one cache for its whole life.  Corpus
    deltas are recorded with :meth:`note_delta`; the next
    :meth:`compile` call then re-assembles only the dirty rows —
    everything else is copied slice-wise from the previous compilation.
    A row is dirty when the delta can change it:

    - the blogger authored a post that received new comments (new
      terms appear in the row);
    - any commenter appearing in the row wrote new comments anywhere
      (their ``TC`` grew, so every stored ``SF/TC`` weight of theirs
      changed);
    - the blogger is new (the row does not exist yet).

    New bloggers are appended after the existing row order so clean
    rows keep their column indices verbatim.  ``GL``, QualityScore and
    the constant vector are always rebuilt — they are dense O(n)
    passes, and global (PageRank, corpus-max length normalization)
    effects make per-entry invalidation unsound for them.

    The cache also owns the :class:`~repro.core.comments.CommentModel`
    sentiment cache (``sentiment_cache``), so re-analyses only classify
    comments the previous pass has not seen, and the cached GL vector
    (valid while the blogger/link population is untouched).  Per-post
    text results live in a :class:`~repro.core.texts.PostTextTable`.
    After each compile it records how it ran (``last_mode``) and how
    many rows it re-assembled (``last_dirty_rows``).
    """

    def __init__(self) -> None:
        self.sentiment_cache: dict[str, object] = {}
        self._compiled: CompiledSystem | None = None
        self._params: MassParameters | None = None
        self._reference_day: int | None = None
        self._num_comments = 0
        self._pending_bloggers: list[str] = []
        self._pending_posts: list[str] = []
        self._pending_comments: list[tuple[str, str]] = []
        self._stale = False
        self.last_mode: str = ""
        self.last_dirty_rows = 0
        # --- GL cache (valid while bloggers/links are untouched) ------
        self.gl_scores: dict[str, float] | None = None
        self.gl_dirty = True
        self._gl_params: MassParameters | None = None
        self._gl_entities: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    def note_delta(
        self,
        bloggers: Iterable[str] = (),
        posts: Iterable[str] = (),
        comments: Iterable[tuple[str, str]] = (),
        links: Iterable[object] = (),
    ) -> None:
        """Record a corpus delta (ids only) ahead of the next compile.

        ``comments`` yields ``(post_id, commenter_id)`` pairs.  Links
        never dirty compiled rows — they only feed GL — but any link
        (or blogger) in the delta invalidates the cached GL vector.
        """
        bloggers = list(bloggers)
        self._pending_bloggers.extend(bloggers)
        self._pending_posts.extend(posts)
        self._pending_comments.extend(comments)
        if bloggers or any(True for _ in links):
            self.gl_dirty = True

    def invalidate(self) -> None:
        """Force the next :meth:`compile` to be a cold compile."""
        self._stale = True
        self.gl_dirty = True

    # ------------------------------------------------------------------
    def cached_gl(
        self, corpus: BlogCorpus, params: MassParameters
    ) -> dict[str, float] | None:
        """The previous solve's GL vector, when provably still valid.

        GL depends only on the link graph, the blogger population and
        the parameters; a delta of posts/comments cannot move it.
        """
        if (
            self.gl_scores is None
            or self.gl_dirty
            or params != self._gl_params
            or self._gl_entities != self._entity_counts(corpus)
        ):
            return None
        return self.gl_scores

    def store_gl(
        self,
        gl: dict[str, float],
        corpus: BlogCorpus,
        params: MassParameters,
    ) -> None:
        """Register a freshly computed GL vector for later reuse."""
        self.gl_scores = gl
        self._gl_params = params
        self._gl_entities = self._entity_counts(corpus)
        self.gl_dirty = False

    @staticmethod
    def _entity_counts(corpus: BlogCorpus) -> tuple[int, int]:
        stats = corpus.stats()
        return stats.num_bloggers, stats.num_links

    # ------------------------------------------------------------------
    def compile(
        self,
        corpus: BlogCorpus,
        params: MassParameters,
        comment_model: CommentModel,
        quality: dict[str, float],
        gl: dict[str, float],
    ) -> CompiledSystem:
        """Compile ``corpus``, reusing clean rows when possible.

        Falls back to a cold compile whenever reuse would be unsound:
        no previous compilation, changed parameters, an explicit
        :meth:`invalidate`, a corpus whose shape does not match the
        recorded deltas, or — with the temporal facet active — a moved
        decay reference day (a delta that advances the corpus horizon
        re-ages *every* stored weight, so clean rows no longer exist).
        """
        old = self._compiled
        reference_day = comment_model.reference_day
        reusable = (
            old is not None
            and not self._stale
            and params == self._params
            and reference_day == self._reference_day
            and len(corpus.bloggers)
            == old.num_bloggers + len(set(self._pending_bloggers))
            and len(corpus.posts)
            == len(old.post_ids) + len(set(self._pending_posts))
            and len(corpus.comments)
            == self._num_comments + len(self._pending_comments)
        )
        if reusable:
            compiled = self._refresh(corpus, params, comment_model,
                                     quality, gl)
            self.last_mode = "refresh"
        else:
            compiled = compile_system(corpus, params, comment_model,
                                      quality, gl)
            self.last_mode = "cold"
            self.last_dirty_rows = compiled.num_bloggers
        self._compiled = compiled
        self._params = params
        self._reference_day = reference_day
        self._num_comments = len(corpus.comments)
        self._pending_bloggers.clear()
        self._pending_posts.clear()
        self._pending_comments.clear()
        self._stale = False
        return compiled

    # ------------------------------------------------------------------
    def _dirty_sets(
        self, corpus: BlogCorpus, index: dict[str, int], use_citation: bool,
    ) -> tuple[set[int], set[str]]:
        """(dirty blogger rows, dirty post ids) implied by the deltas.

        Read from the corpus's commenter index, so the cost follows the
        delta, not the corpus: every weight of a commenter whose TC
        changed sits on a post they commented on, in that post's
        author's row.
        """
        dirty_rows: set[int] = {
            index[blogger_id]
            for blogger_id in set(self._pending_bloggers)
        }
        dirty_posts: set[str] = set(self._pending_posts)
        tc_changed: set[str] = set()
        author_of = corpus.post_author_id
        for post_id, commenter_id in self._pending_comments:
            dirty_posts.add(post_id)
            dirty_rows.add(index[author_of(post_id)])
            tc_changed.add(commenter_id)
        if use_citation:
            for commenter_id in tc_changed:
                for comment in corpus.comments_by(commenter_id):
                    post_id = comment.post_id
                    if post_id not in dirty_posts:
                        dirty_posts.add(post_id)
                        dirty_rows.add(index[author_of(post_id)])
        return dirty_rows, dirty_posts

    def _refresh(
        self,
        corpus: BlogCorpus,
        params: MassParameters,
        comment_model: CommentModel,
        quality: dict[str, float],
        gl: dict[str, float],
    ) -> CompiledSystem:
        old = self._compiled
        assert old is not None
        new_bloggers = sorted(
            set(corpus.bloggers) - set(old.index)
        )
        blogger_ids = old.blogger_ids + new_bloggers
        index = dict(old.index)
        for blogger_id in new_bloggers:
            index[blogger_id] = len(index)
        use_citation = params.use_citation

        dirty_rows, dirty_posts = self._dirty_sets(corpus, index, use_citation)

        # Post-level arrays: the new and dirty posts are spliced into the
        # previous sorted order; each clean run between two of them is
        # copied whole.
        old_post_ids = old.post_ids
        post = _Splice(old.post_row_ptr, old.post_col_idx, old.post_weights)
        post_ids: list[str] = []
        post_author = array("q")
        post_sf_sum = array("d")
        author_of = corpus.post_author_id

        def copy_posts(stop: int) -> None:
            first = post.cursor
            post_ids.extend(old_post_ids[first:stop])
            post_author.extend(old.post_author[first:stop])
            post_sf_sum.extend(old.post_sf_sum[first:stop])
            post.copy(stop)

        # A new post sorts at its insertion point; at equal points it
        # precedes the old post there, whose id is larger.
        for position, post_id in sorted(
            (bisect_left(old_post_ids, post_id), post_id)
            for post_id in dirty_posts
        ):
            copy_posts(position)
            cols, weights, sf_sum = _post_terms(
                comment_model, post_id, index, use_citation
            )
            post_ids.append(post_id)
            post_author.append(index[author_of(post_id)])
            post_sf_sum.append(sf_sum)
            is_old = (position < len(old_post_ids)
                      and old_post_ids[position] == post_id)
            post.put(cols, weights, skip=is_old)
        copy_posts(len(old_post_ids))
        post_quality = array("d", [quality[post_id] for post_id in post_ids])

        # Blogger rows: clean runs copy their old slices (old column
        # indices survive the append-only row order); dirty rows and
        # new bloggers are re-assembled.
        rows = _Splice(old.row_ptr, old.col_idx, old.weights)
        recompute = sorted(row for row in dirty_rows if row < old.num_bloggers)
        recompute.extend(range(old.num_bloggers, len(blogger_ids)))
        for row in recompute:
            rows.copy(min(row, old.num_bloggers))
            cols, row_weights = [], []
            if use_citation:
                for row_post in sorted(
                    corpus.posts_by(blogger_ids[row]), key=lambda p: p.post_id
                ):
                    post_cols, post_weights, _ = _post_terms(
                        comment_model, row_post.post_id, index, use_citation
                    )
                    cols.extend(post_cols)
                    row_weights.extend(post_weights)
            rows.put(cols, row_weights, skip=row < old.num_bloggers)
        rows.copy(old.num_bloggers)

        constant, gl_vec = _build_constant(
            params, blogger_ids, gl, post_author, post_quality, post_sf_sum,
        )
        self.last_dirty_rows = len(recompute)
        _LOG.debug(
            "dirty-row refresh: %d/%d rows re-assembled, %d dirty posts",
            len(recompute), len(blogger_ids), len(dirty_posts),
        )
        return CompiledSystem(
            blogger_ids=blogger_ids,
            index=index,
            constant=constant,
            gl=gl_vec,
            alpha=params.alpha,
            beta=params.beta,
            coupling=params.alpha * (1.0 - params.beta),
            use_citation=use_citation,
            row_ptr=rows.row_ptr,
            col_idx=rows.col_idx,
            weights=rows.weights,
            post_ids=post_ids,
            post_author=post_author,
            post_quality=post_quality,
            post_sf_sum=post_sf_sum,
            post_row_ptr=post.row_ptr,
            post_col_idx=post.col_idx,
            post_weights=post.weights,
        )


class _Splice:
    """A CSR rebuilt from an old one by copying runs and putting rows.

    ``copy(stop)`` appends the old rows from the cursor up to ``stop``
    as one slice (their pointers shifted by however far the new entries
    have moved); ``put`` appends one new row and, with ``skip``, steps
    the cursor past the old row it replaces.
    """

    def __init__(self, row_ptr: array, col_idx: array, weights: array) -> None:
        self._old = (row_ptr, col_idx, weights)
        self.cursor = 0
        self.row_ptr = array("q", [0])
        self.col_idx = array("q")
        self.weights = array("d")

    def copy(self, stop: int) -> None:
        first = self.cursor
        if stop <= first:
            return
        old_row_ptr, old_col_idx, old_weights = self._old
        start, end = old_row_ptr[first], old_row_ptr[stop]
        shift = len(self.col_idx) - start
        self.col_idx.extend(old_col_idx[start:end])
        self.weights.extend(old_weights[start:end])
        pointers = old_row_ptr[first + 1:stop + 1]
        if shift:
            pointers = array("q", [pointer + shift for pointer in pointers])
        self.row_ptr.extend(pointers)
        self.cursor = stop

    def put(self, cols: list[int], weights: list[float], skip: bool) -> None:
        self.col_idx.extend(cols)
        self.weights.extend(weights)
        self.row_ptr.append(len(self.col_idx))
        if skip:
            self.cursor += 1
