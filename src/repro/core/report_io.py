"""Persistence for analysis results.

The paper's Data Storage holds crawled XML; a production MASS would
also cache the Analyzer Module's output so the UI does not re-solve the
influence system on every launch.  A report is everything derived from
a corpus — parameters, solver diagnostics, per-blogger scores,
per-post scores, and the post→domain memberships — and this module
owns its layout in two codecs:

- :func:`save_report` / :func:`load_report`: one XML file, the
  user-facing report (``MassSystem.save_analysis``).  Floats are
  serialized with ``repr``.
- :func:`save_report_columns` / :func:`load_report_columns`: a ``.mcol``
  container (:mod:`repro.store.format`) of ``f64`` columns, the report
  half of a durable checkpoint.  Rows are in ascending blogger and post
  id, the row order of the ``corpus.mcol`` beside it, so ids are not
  stored; the manifest holds a CRC32 of each id sequence instead, and a
  report paired with another corpus is refused.

Both load the same report bit for bit, with every score dict keyed in
ascending id order, and both go through one parameter codec (name and
``repr`` pairs).
"""

from __future__ import annotations

import dataclasses
import xml.etree.ElementTree as ET
import zlib
from array import array
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.core.domains import DomainInfluence, PostMemberships
from repro.core.parameters import RETIRED_FIELDS, MassParameters
from repro.core.report import InfluenceReport
from repro.core.solver import InfluenceScores
from repro.data.corpus import BlogCorpus
from repro.errors import ParameterError, StoreFormatError, XmlFormatError
from repro.store.format import StoreReader, StoreWriter

__all__ = [
    "save_report",
    "load_report",
    "save_report_columns",
    "load_report_columns",
    "REPORT_FORMAT_VERSION",
]

REPORT_FORMAT_VERSION = "1.0"

_PARAM_FIELDS = [field.name for field in dataclasses.fields(MassParameters)]


def _param_values(params: MassParameters) -> list[tuple[str, str]]:
    """Every parameter as a ``(name, repr)`` pair, in field order."""
    return [(name, repr(getattr(params, name))) for name in _PARAM_FIELDS]


def _params_from_values(
    values: Iterable[tuple[str | None, str | None]],
) -> MassParameters:
    """Parse :func:`_param_values` pairs back into parameters."""
    parsed: dict[str, object] = {}
    for name, raw in values:
        if not isinstance(name, str) or not isinstance(raw, str):
            raise XmlFormatError("malformed <param> element")
        if name in RETIRED_FIELDS:
            # Saved while the shard-parallel backend existed; the
            # fingerprint still counts these knobs at their fixed values.
            continue
        if name not in _PARAM_FIELDS:
            raise XmlFormatError(f"unknown parameter {name!r}")
        if raw in ("True", "False"):
            parsed[name] = raw == "True"
        elif raw.startswith("'") and raw.endswith("'"):
            parsed[name] = raw[1:-1]
        else:
            try:
                parsed[name] = int(raw)
            except ValueError:
                try:
                    parsed[name] = float(raw)
                except ValueError:
                    raise XmlFormatError(
                        f"cannot parse parameter {name}={raw!r}"
                    ) from None
    try:
        return MassParameters(**parsed)  # type: ignore[arg-type]
    except (ParameterError, TypeError) as exc:
        # A wrong type (say a quoted string for a float) fails the
        # range checks with TypeError rather than ParameterError.
        raise XmlFormatError(f"invalid <parameters>: {exc}") from exc


def _params_to_element(params: MassParameters) -> ET.Element:
    element = ET.Element("parameters")
    for name, raw in _param_values(params):
        ET.SubElement(element, "param", {"name": name, "value": raw})
    return element


def _params_from_element(element: ET.Element) -> MassParameters:
    return _params_from_values(
        (param.get("name"), param.get("value"))
        for param in element.findall("param")
    )


def save_report(report: InfluenceReport, path: str | Path) -> Path:
    """Write an analysis report as one XML file; returns the path."""
    root = ET.Element("analysis", {"version": REPORT_FORMAT_VERSION})
    root.append(_params_to_element(report.params))

    scores = report.scores
    solver_el = ET.SubElement(
        root,
        "solver",
        {
            "iterations": str(scores.iterations),
            "converged": str(scores.converged),
            "residual": repr(scores.residual),
            "backend": scores.backend,
        },
    )
    bloggers_el = ET.SubElement(solver_el, "bloggers")
    for blogger_id in sorted(scores.influence):
        ET.SubElement(
            bloggers_el,
            "blogger",
            {
                "id": blogger_id,
                "influence": repr(scores.influence[blogger_id]),
                "ap": repr(scores.ap[blogger_id]),
                "gl": repr(scores.gl[blogger_id]),
            },
        )
    posts_el = ET.SubElement(solver_el, "posts")
    domain_influence = report.domain_influence
    for post_id in sorted(scores.post_influence):
        post_el = ET.SubElement(
            posts_el,
            "post",
            {
                "id": post_id,
                "influence": repr(scores.post_influence[post_id]),
                "quality": repr(scores.quality[post_id]),
                "comment-score": repr(scores.comment_score[post_id]),
            },
        )
        for domain, weight in sorted(
            domain_influence.post_membership(post_id).items()
        ):
            ET.SubElement(
                post_el, "membership", {"domain": domain, "p": repr(weight)}
            )

    domains_el = ET.SubElement(root, "domains")
    for domain in report.domains:
        ET.SubElement(domains_el, "domain", {"name": domain})

    path = Path(path)
    ET.indent(root)
    path.write_text(ET.tostring(root, encoding="unicode"), encoding="utf-8")
    return path


def _float_attr(element: ET.Element, name: str) -> float:
    raw = element.get(name)
    if raw is None:
        raise XmlFormatError(
            f"<{element.tag}> is missing attribute {name!r}"
        )
    try:
        return float(raw)
    except ValueError:
        raise XmlFormatError(
            f"<{element.tag}> attribute {name!r} is not a number: {raw!r}"
        ) from None


def load_report(path: str | Path, corpus: BlogCorpus) -> InfluenceReport:
    """Reconstruct a report from :func:`save_report` output.

    ``corpus`` must be the corpus the report was computed from; id
    mismatches raise :class:`XmlFormatError` rather than producing a
    silently inconsistent report.
    """
    try:
        root = ET.fromstring(Path(path).read_text(encoding="utf-8"))
    except ET.ParseError as exc:
        raise XmlFormatError(f"invalid analysis XML: {exc}") from exc
    if root.tag != "analysis":
        raise XmlFormatError(f"expected <analysis>, got <{root.tag}>")

    params_el = root.find("parameters")
    if params_el is None:
        raise XmlFormatError("<analysis> has no <parameters>")
    params = _params_from_element(params_el)

    solver_el = root.find("solver")
    if solver_el is None:
        raise XmlFormatError("<analysis> has no <solver>")

    influence: dict[str, float] = {}
    ap: dict[str, float] = {}
    gl: dict[str, float] = {}
    bloggers_el = solver_el.find("bloggers")
    if bloggers_el is None:
        raise XmlFormatError("<solver> has no <bloggers>")
    for blogger_el in bloggers_el.findall("blogger"):
        blogger_id = blogger_el.get("id")
        if blogger_id is None:
            raise XmlFormatError("<blogger> element missing id")
        influence[blogger_id] = _float_attr(blogger_el, "influence")
        ap[blogger_id] = _float_attr(blogger_el, "ap")
        gl[blogger_id] = _float_attr(blogger_el, "gl")
    if set(influence) != set(corpus.bloggers):
        raise XmlFormatError(
            "analysis bloggers do not match the corpus "
            f"({len(influence)} stored vs {len(corpus.bloggers)} in corpus)"
        )

    post_influence: dict[str, float] = {}
    quality: dict[str, float] = {}
    comment_score: dict[str, float] = {}
    memberships: dict[str, dict[str, float]] = {}
    posts_el = solver_el.find("posts")
    if posts_el is None:
        raise XmlFormatError("<solver> has no <posts>")
    for post_el in posts_el.findall("post"):
        post_id = post_el.get("id")
        if post_id is None:
            raise XmlFormatError("<post> element missing id")
        post_influence[post_id] = _float_attr(post_el, "influence")
        quality[post_id] = _float_attr(post_el, "quality")
        comment_score[post_id] = _float_attr(post_el, "comment-score")
        memberships[post_id] = {
            membership.attrib["domain"]: _float_attr(membership, "p")
            for membership in post_el.findall("membership")
        }
    if set(post_influence) != set(corpus.posts):
        raise XmlFormatError("analysis posts do not match the corpus")

    domains_el = root.find("domains")
    if domains_el is None:
        raise XmlFormatError("<analysis> has no <domains>")
    domains = [d.attrib["name"] for d in domains_el.findall("domain")]
    if not domains:
        raise XmlFormatError("<domains> lists no domains")

    scores = InfluenceScores(
        influence=influence,
        post_influence=post_influence,
        ap=ap,
        gl=gl,
        quality=quality,
        comment_score=comment_score,
        iterations=int(solver_el.get("iterations", "0")),
        converged=solver_el.get("converged", "True") == "True",
        residual=float(solver_el.get("residual", "0.0")),
        backend=solver_el.get("backend", "reference"),
    )
    domain_influence = DomainInfluence(corpus, scores, memberships, domains)
    return InfluenceReport(corpus, params, scores, domain_influence)


# ----------------------------------------------------------------------
# The column codec
# ----------------------------------------------------------------------
#: Manifest ``kind`` of a report ``.mcol`` (a corpus ``.mcol`` has none).
_COLUMNS_KIND = "mass-report"

#: Section name → ``InfluenceScores`` field, one row per blogger.
_BLOGGER_COLUMNS = (
    ("blogger_influence", "influence"),
    ("blogger_ap", "ap"),
    ("blogger_gl", "gl"),
)
#: Section name → ``InfluenceScores`` field, one row per post.
_POST_COLUMNS = (
    ("post_influence", "post_influence"),
    ("post_quality", "quality"),
    ("post_comment_score", "comment_score"),
)
#: Posts × domains, row-major, in ``report.domains`` order.
_MEMBERSHIPS = "post_memberships"


def _ids_crc(ids: Sequence[str]) -> int:
    return zlib.crc32("\x00".join(ids).encode("utf-8"))


def save_report_columns(report: InfluenceReport, path: str | Path) -> Path:
    """Write a report as a ``.mcol`` file of ``f64`` columns; returns the path.

    The file is sealed (manifest, footer, fsync) and moved into place
    atomically by :class:`~repro.store.format.StoreWriter`.
    """
    scores = report.scores
    blogger_ids = sorted(scores.influence)
    post_ids = sorted(scores.post_influence)
    domain_influence = report.domain_influence
    domains = domain_influence.domains
    writer = StoreWriter(path)
    try:
        for ids, columns in (
            (blogger_ids, _BLOGGER_COLUMNS), (post_ids, _POST_COLUMNS)
        ):
            for section, field in columns:
                values = getattr(scores, field)
                writer.add_section(section, "f64", [
                    array("d", map(values.__getitem__, ids)).tobytes()
                ])
        writer.add_section(_MEMBERSHIPS, "f64", [
            domain_influence.memberships.matrix(post_ids).tobytes()
        ])
        return writer.finish(
            counts={
                "bloggers": len(blogger_ids),
                "posts": len(post_ids),
                "domains": len(domains),
            },
            flags={
                "kind": _COLUMNS_KIND,
                "domains": domains,
                "params": _param_values(report.params),
                # JSON writes a float with repr: the residual is exact.
                "solver": {
                    "iterations": int(scores.iterations),
                    "converged": bool(scores.converged),
                    "residual": float(scores.residual),
                    "backend": str(scores.backend),
                },
                "blogger_ids_crc32": _ids_crc(blogger_ids),
                "post_ids_crc32": _ids_crc(post_ids),
            },
        )
    except BaseException:
        writer.abort()
        raise


def _f64_column(reader: StoreReader, section: str, length: int) -> array:
    """One ``f64`` section copied out of the mapping with one ``frombytes``."""
    view = reader.f64(section)
    try:
        if len(view) != length:
            raise StoreFormatError(
                f"{reader.path.name}: section {section!r} holds "
                f"{len(view)} values, expected {length}"
            )
        column = array("d")
        column.frombytes(view.cast("B"))
        return column
    finally:
        view.release()


def _read_columns(
    reader: StoreReader, corpus: BlogCorpus
) -> InfluenceReport:
    name = reader.path.name
    flags, counts = reader.flags, reader.counts
    if flags.get("kind") != _COLUMNS_KIND:
        raise StoreFormatError(f"{name}: not a report column file")
    blogger_ids = sorted(corpus.bloggers)
    post_ids = sorted(corpus.posts)
    if (counts.get("bloggers"), counts.get("posts")) != (
        len(blogger_ids), len(post_ids)
    ):
        raise StoreFormatError(
            f"{name}: report holds {counts.get('bloggers')} bloggers and "
            f"{counts.get('posts')} posts, the corpus "
            f"{len(blogger_ids)} and {len(post_ids)}"
        )
    if (
        flags.get("blogger_ids_crc32") != _ids_crc(blogger_ids)
        or flags.get("post_ids_crc32") != _ids_crc(post_ids)
    ):
        raise StoreFormatError(
            f"{name}: report ids do not match the corpus's"
        )
    domains = flags.get("domains")
    solver = flags.get("solver")
    params = flags.get("params")
    if (
        not isinstance(domains, list) or not domains
        or not all(isinstance(domain, str) for domain in domains)
        or counts.get("domains") != len(domains)
        or not isinstance(solver, dict)
        or not isinstance(solver.get("iterations"), int)
        or not isinstance(solver.get("converged"), bool)
        or not isinstance(solver.get("residual"), float)
        or not isinstance(solver.get("backend"), str)
        or not isinstance(params, list)
        or not all(isinstance(pair, list) and len(pair) == 2
                   for pair in params)
    ):
        raise StoreFormatError(f"{name}: malformed report manifest")
    try:
        parameters = _params_from_values(params)
    except XmlFormatError as exc:
        raise StoreFormatError(f"{name}: {exc}") from exc

    fields: dict[str, dict[str, float]] = {}
    for ids, columns in (
        (blogger_ids, _BLOGGER_COLUMNS), (post_ids, _POST_COLUMNS)
    ):
        for section, field in columns:
            fields[field] = dict(
                zip(ids, _f64_column(reader, section, len(ids)))
            )
    table = PostMemberships.from_rows(
        domains, post_ids,
        _f64_column(reader, _MEMBERSHIPS, len(post_ids) * len(domains)),
    )
    scores = InfluenceScores(
        **fields,
        iterations=solver["iterations"],
        converged=solver["converged"],
        residual=solver["residual"],
        backend=solver["backend"],
    )
    domain_influence = DomainInfluence(
        corpus, scores, table, domains, share_memberships=True
    )
    return InfluenceReport(corpus, parameters, scores, domain_influence)


def load_report_columns(path: str | Path, corpus: BlogCorpus) -> InfluenceReport:
    """Reconstruct a report from :func:`save_report_columns` output.

    ``corpus`` must be the corpus the report was computed from.  A
    damaged or truncated file, a count mismatch or an id-sequence CRC
    mismatch raises :class:`~repro.errors.StoreFormatError`.  The
    membership table is built in one call
    (:meth:`~repro.core.domains.PostMemberships.from_rows`) and shared
    with the report's :class:`DomainInfluence`.
    """
    reader = StoreReader(path)
    try:
        return _read_columns(reader, corpus)
    finally:
        reader.close()
