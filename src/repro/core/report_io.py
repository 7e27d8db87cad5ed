"""Persistence for analysis results.

The paper's Data Storage holds crawled XML; a production MASS would
also cache the Analyzer Module's output so the UI does not re-solve the
influence system on every launch.  :func:`save_report` writes
everything the report derived from a corpus — parameters, per-blogger
scores, per-post scores, and the post→domain memberships — and
:func:`load_report` reconstructs an :class:`InfluenceReport` against
the same corpus without re-running any analysis.

Floats are serialized with ``repr`` so a round trip is bit-exact.
"""

from __future__ import annotations

import dataclasses
import xml.etree.ElementTree as ET
from pathlib import Path

from repro.core.domains import DomainInfluence
from repro.core.parameters import RETIRED_FIELDS, MassParameters
from repro.core.report import InfluenceReport
from repro.core.solver import InfluenceScores
from repro.data.corpus import BlogCorpus
from repro.errors import ParameterError, XmlFormatError

__all__ = ["save_report", "load_report", "REPORT_FORMAT_VERSION"]

REPORT_FORMAT_VERSION = "1.0"

_PARAM_FIELDS = [field.name for field in dataclasses.fields(MassParameters)]


def _params_to_element(params: MassParameters) -> ET.Element:
    element = ET.Element("parameters")
    for name in _PARAM_FIELDS:
        ET.SubElement(element, "param", {"name": name,
                                         "value": repr(getattr(params, name))})
    return element


def _params_from_element(element: ET.Element) -> MassParameters:
    values: dict[str, object] = {}
    for param in element.findall("param"):
        name = param.get("name")
        raw = param.get("value")
        if name is None or raw is None:
            raise XmlFormatError("malformed <param> element")
        if name in RETIRED_FIELDS:
            # Saved while the shard-parallel backend existed; the
            # fingerprint still counts these knobs at their fixed values.
            continue
        if name not in _PARAM_FIELDS:
            raise XmlFormatError(f"unknown parameter {name!r}")
        if raw in ("True", "False"):
            values[name] = raw == "True"
        elif raw.startswith("'") and raw.endswith("'"):
            values[name] = raw[1:-1]
        else:
            try:
                values[name] = int(raw)
            except ValueError:
                try:
                    values[name] = float(raw)
                except ValueError:
                    raise XmlFormatError(
                        f"cannot parse parameter {name}={raw!r}"
                    ) from None
    try:
        return MassParameters(**values)  # type: ignore[arg-type]
    except (ParameterError, TypeError) as exc:
        # A wrong type (say a quoted string for a float) fails the
        # range checks with TypeError rather than ParameterError.
        raise XmlFormatError(f"invalid <parameters>: {exc}") from exc


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
