"""Graph views of a blog corpus.

Two graphs matter to MASS:

- the **link graph** (blogger → blogger endorsement links) behind the
  General Links authority score of Eq. 1 — as a :class:`Digraph`
  (:func:`link_graph`) or as the CSR :class:`LinkMatrix` the GL
  iterations sweep (:func:`link_matrix`);
- the **post-reply graph** of Figs. 1 and 4: an edge from commenter to
  post author, weighted by "the total number comments of one blogger on
  the other blogger's posts".

Both are derived, never stored — the corpus stays the single source of
truth.
"""

from __future__ import annotations

from repro.data.corpus import BlogCorpus
from repro.graph.csr import LinkMatrix
from repro.graph.digraph import Digraph
from repro.store.columnar import ColumnarCorpus

__all__ = [
    "link_graph",
    "link_matrix",
    "post_reply_graph",
    "combined_graph",
    "ego_network",
]


def link_graph(corpus: BlogCorpus) -> Digraph:
    """Blogger endorsement graph from explicit :class:`Link` entities.

    Every blogger appears as a node even if isolated, so authority
    scores are defined for the whole population.
    """
    graph = Digraph()
    for blogger_id in corpus.blogger_ids():
        graph.add_node(blogger_id)
    for link in corpus.links:
        graph.add_edge(link.source_id, link.target_id, link.weight)
    return graph


def link_matrix(corpus: BlogCorpus) -> LinkMatrix:
    """:func:`link_graph` as a :class:`LinkMatrix`, with no graph built.

    Reads ``corpus.links`` once, or a :class:`ColumnarCorpus`'s link
    columns, whose rows are already rows of the sorted blogger ids;
    equal to ``LinkMatrix.from_digraph(link_graph(corpus))``.
    """
    if isinstance(corpus, ColumnarCorpus):
        return LinkMatrix.from_rows(
            corpus.blogger_ids(), *corpus.link_columns()
        )
    return LinkMatrix.from_edges(
        corpus.blogger_ids(),
        [(link.source_id, link.target_id, link.weight)
         for link in corpus.links],
    )


def post_reply_graph(
    corpus: BlogCorpus, include_self_comments: bool = False
) -> Digraph:
    """Commenter → post-author graph, weight = total comment count.

    This is the network the demo visualizes (Fig. 4).  Self-comments
    (a blogger replying on their own post) are excluded by default:
    they carry no peer influence.
    """
    graph = Digraph()
    for blogger_id in corpus.blogger_ids():
        graph.add_node(blogger_id)
    for comment in sorted(corpus.comments.values(), key=lambda c: c.comment_id):
        author_id = corpus.post(comment.post_id).author_id
        if comment.commenter_id == author_id and not include_self_comments:
            continue
        graph.add_edge(comment.commenter_id, author_id, 1.0)
    return graph


def combined_graph(corpus: BlogCorpus, link_weight: float = 1.0,
                   reply_weight: float = 1.0) -> Digraph:
    """Union of link and post-reply graphs with per-source scaling.

    Used for neighbourhood extraction where any relationship counts.
    """
    graph = Digraph()
    for blogger_id in corpus.blogger_ids():
        graph.add_node(blogger_id)
    if link_weight > 0:
        for link in corpus.links:
            graph.add_edge(link.source_id, link.target_id,
                           link.weight * link_weight)
    if reply_weight > 0:
        replies = post_reply_graph(corpus)
        for source, target, weight in replies.edges():
            graph.add_edge(source, target, weight * reply_weight)
    return graph


def ego_network(corpus: BlogCorpus, blogger_id: str, radius: int = 1) -> Digraph:
    """The post-reply network within ``radius`` hops of one blogger.

    This is the view shown when a user "double click[s]" a recommended
    blogger in the demo UI; it is also the corpus restriction used by
    "find influential bloggers in her/his friend network".

    Raises :class:`~repro.errors.CorpusError` for unknown blogger ids.
    """
    if blogger_id not in corpus:
        from repro.errors import CorpusError

        raise CorpusError(f"unknown blogger {blogger_id!r}")
    full = post_reply_graph(corpus)
    members = full.neighborhood(blogger_id, radius)
    return full.subgraph(members)
