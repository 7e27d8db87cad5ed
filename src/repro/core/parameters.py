"""Model parameters for MASS (the demo UI's "toolbar").

The paper exposes two headline knobs — α (AP vs GL weight, default 0.5)
and β (quality vs comment weight, default 0.6 "according to empirical
study") — plus the sentiment-factor values, the novelty value for
copied posts, and the choice of authority backend.  The demo lets users
"set personalized parameters for modeling general influence and domain
influence"; :class:`MassParameters` is that toolbar as a value object.

It also owns the convergence analysis.  Eq. 4 makes a post's score
depend on its commenters' *overall* influence, so Eqs. 1–4 form a
linear fixed point ``x = A x + c`` where

    A[i][j] = α · (1 − β) · Σ_{comments by j on i's posts} SF / TC(j).

Each commenter j writes exactly TC(j) comments in total, each with
SF ≤ sf_max, so every column of A sums to at most
α · (1 − β) · sf_max — the :meth:`contraction_bound`.  With the paper
defaults that is 0.5 · 0.4 · 1.0 = 0.2 < 1, so Jacobi iteration
converges geometrically from any start.  Disabling the TC
normalization (the citation ablation) also removes the influence term
from Eq. 3, so the system degenerates to a closed form and the bound
is moot; parameter combinations with a bound ≥ 1 are iterated to the
cap and reported as non-converged.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.errors import ParameterError

__all__ = ["MassParameters", "DEFAULT_DOMAINS"]

# The ten predefined interest domains of the paper's evaluation.
DEFAULT_DOMAINS: tuple[str, ...] = (
    "Travel",
    "Computer",
    "Communication",
    "Education",
    "Economics",
    "Military",
    "Sports",
    "Medicine",
    "Art",
    "Politics",
)

_LENGTH_NORMALIZATIONS = ("max", "log", "raw")
_TIME_DECAY_KINDS = ("none", "exp")
_GL_METHODS = ("pagerank", "hits", "inlinks")
_GL_NORMALIZATIONS = ("mean", "sum")
_SOLVER_BACKENDS = ("reference", "sparse", "auto")

#: Fields of the retired shard-parallel solver backend, at the only
#: values they can hold now that it is gone.  They were execution-only
#: knobs (the worker and row-shard counts) but sat in the canonical
#: dict, so :meth:`MassParameters.canonical_dict` keeps emitting them:
#: every fingerprint, snapshot epoch and checkpoint written while they
#: existed stays valid.  Saved reports still carry them as ``<param>``
#: elements, which :mod:`repro.core.report_io` skips on load.
RETIRED_FIELDS: dict[str, Any] = {"num_workers": 0, "shard_count": "auto"}


@dataclass(frozen=True, slots=True)
class MassParameters:
    """All tunables of the MASS influence model.

    Parameters
    ----------
    alpha:
        Weight of Accumulated Post influence vs General Links authority
        in Eq. 1.  Paper default 0.5.
    beta:
        Weight of QualityScore vs CommentScore in Eq. 2.  Paper default
        0.6.
    sf_positive / sf_neutral / sf_negative:
        Sentiment factors for the three comment attitudes (paper: 1.0,
        0.5, 0.1).
    novelty_copied:
        Novelty value assigned to reproduced posts; the paper prescribes
        "a value between 0 and 0.1".
    length_normalization:
        How post length enters QualityScore: ``"max"`` (length divided
        by the corpus maximum — bounded, the library default), ``"log"``
        (log(1 + words)), or ``"raw"`` (word count, paper-literal).
    gl_method:
        Authority backend: ``"pagerank"`` (default), ``"hits"``
        (authority scores), or ``"inlinks"`` (in-link count share).
    gl_normalization:
        ``"mean"`` rescales GL so the population mean is 1 (keeps GL on
        the same order as AP); ``"sum"`` leaves the probability
        distribution (paper-literal PageRank output).
    use_sentiment / use_citation / use_novelty:
        Facet toggles for ablations.  Sentiment off ⇒ SF ≡ sf_neutral;
        citation off ⇒ commenters count 1 each without TC normalization
        (reducing CommentScore to weighted comment counting, as in the
        WSDM'08 comparator); novelty off ⇒ Novelty ≡ 1.
    solver_backend:
        Which fixed-point implementation solves Eqs. 1–4:
        ``"reference"`` (dict-of-dicts Jacobi, the paper-shaped code),
        ``"sparse"`` (corpus compiled once into flat CSR index arrays,
        then array sweeps — see :mod:`repro.core.assemble` and
        :mod:`repro.core.sparse_solver`), or ``"auto"`` (the default:
        resolves to ``"sparse"``; the sparse kernels pick numpy when it
        is importable and fall back to pure-python ``array`` sweeps).
        Both backends agree to 1e-9 — the equivalence suite in
        ``tests/test_backend_equivalence.py`` enforces it.
    include_self_comments:
        Whether a blogger commenting on their own post contributes to
        that post's CommentScore (default False).
    time_decay_kind / time_decay_half_life_days:
        The temporal facet (MEIBI/MEIBIX: "time does matter").  With
        ``time_decay_kind="exp"`` every comment's sentiment factor and
        every post's quality score are multiplied by
        ``0.5 ** (age_days / half_life)``, where age is measured back
        from the corpus horizon (the newest ``created_day`` in play),
        so a stale citation counts for less than yesterday's.  The
        decay factor lies in ``(0, 1]``, so every decayed column sum is
        bounded by its undecayed value and :meth:`contraction_bound`
        remains a valid (if conservative) bound for the decayed matrix.
        ``"none"`` (the default) — or an infinite half-life — is inert:
        every factor is exactly ``1.0`` and the solve is bit-identical
        to the undecayed model (inert decay is also omitted from
        :meth:`canonical_dict`, keeping fingerprints, snapshot epochs,
        and checkpoint compatibility unchanged).
    tolerance / max_iterations:
        Fixed-point solver controls.
    """

    alpha: float = 0.5
    beta: float = 0.6
    sf_positive: float = 1.0
    sf_neutral: float = 0.5
    sf_negative: float = 0.1
    novelty_copied: float = 0.05
    length_normalization: str = "max"
    gl_method: str = "pagerank"
    gl_normalization: str = "mean"
    sentiment_mode: str = "discrete"
    use_sentiment: bool = True
    use_citation: bool = True
    use_novelty: bool = True
    solver_backend: str = "auto"
    include_self_comments: bool = False
    time_decay_kind: str = "none"
    time_decay_half_life_days: float = float("inf")
    tolerance: float = 1e-10
    max_iterations: int = 500
    pagerank_damping: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ParameterError(f"beta must be in [0, 1], got {self.beta}")
        for name in ("sf_positive", "sf_neutral", "sf_negative"):
            value = getattr(self, name)
            if not 0.0 <= value:
                raise ParameterError(f"{name} must be >= 0, got {value}")
        if not 0.0 < self.novelty_copied <= 0.1:
            raise ParameterError(
                "novelty_copied must be in (0, 0.1] per the paper, "
                f"got {self.novelty_copied}"
            )
        if self.length_normalization not in _LENGTH_NORMALIZATIONS:
            raise ParameterError(
                f"length_normalization must be one of {_LENGTH_NORMALIZATIONS}, "
                f"got {self.length_normalization!r}"
            )
        if self.gl_method not in _GL_METHODS:
            raise ParameterError(
                f"gl_method must be one of {_GL_METHODS}, got {self.gl_method!r}"
            )
        if self.gl_normalization not in _GL_NORMALIZATIONS:
            raise ParameterError(
                f"gl_normalization must be one of {_GL_NORMALIZATIONS}, "
                f"got {self.gl_normalization!r}"
            )
        if self.solver_backend not in _SOLVER_BACKENDS:
            raise ParameterError(
                f"solver_backend must be one of {_SOLVER_BACKENDS}, "
                f"got {self.solver_backend!r}"
            )
        if self.sentiment_mode not in ("discrete", "graded"):
            raise ParameterError(
                "sentiment_mode must be 'discrete' or 'graded', got "
                f"{self.sentiment_mode!r}"
            )
        if self.time_decay_kind not in _TIME_DECAY_KINDS:
            raise ParameterError(
                f"time_decay_kind must be one of {_TIME_DECAY_KINDS}, "
                f"got {self.time_decay_kind!r}"
            )
        half_life = self.time_decay_half_life_days
        if not (
            isinstance(half_life, (int, float))
            and not isinstance(half_life, bool)
            and not math.isnan(half_life)
            and half_life > 0
        ):
            raise ParameterError(
                "time_decay_half_life_days must be > 0 (inf disables "
                f"decay), got {half_life!r}"
            )
        if self.tolerance <= 0:
            raise ParameterError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ParameterError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not 0.0 <= self.pagerank_damping < 1.0:
            raise ParameterError(
                f"pagerank_damping must be in [0, 1), got {self.pagerank_damping}"
            )

    # ------------------------------------------------------------------
    @property
    def sf_max(self) -> float:
        """Largest sentiment factor in play."""
        if not self.use_sentiment:
            return self.sf_neutral
        return max(self.sf_positive, self.sf_neutral, self.sf_negative)

    def sentiment_factor(self, sentiment: "Any") -> float:
        """Map a :class:`repro.nlp.sentiment.Sentiment` to its SF value."""
        if not self.use_sentiment:
            return self.sf_neutral
        # Imported lazily to keep parameters import-light.
        from repro.nlp.sentiment import Sentiment

        if sentiment is Sentiment.POSITIVE:
            return self.sf_positive
        if sentiment is Sentiment.NEGATIVE:
            return self.sf_negative
        return self.sf_neutral

    def graded_sentiment_factor(self, breakdown: "Any") -> float:
        """Continuous SF from a sentiment hit breakdown (extension).

        Interpolates between sf_negative and sf_positive by the
        polarity balance ``(pos − neg) / (pos + neg)``; hit-free
        comments stay at sf_neutral.  With ``sentiment_mode="discrete"``
        (the paper's model) this method is not consulted.
        """
        if not self.use_sentiment:
            return self.sf_neutral
        hits = breakdown.positive_hits + breakdown.negative_hits
        if hits == 0:
            return self.sf_neutral
        balance = (breakdown.positive_hits - breakdown.negative_hits) / hits
        if balance >= 0:
            return (
                self.sf_neutral
                + balance * (self.sf_positive - self.sf_neutral)
            )
        return (
            self.sf_neutral
            + (-balance) * (self.sf_negative - self.sf_neutral)
        )

    @property
    def decay_active(self) -> bool:
        """Whether the temporal facet actually changes any weight.

        ``kind="none"`` is inert by definition; ``kind="exp"`` with an
        infinite half-life is inert too (``0.5 ** (age / inf) == 1.0``
        exactly), so both serve bit-identical undecayed solves.
        """
        return (
            self.time_decay_kind == "exp"
            and math.isfinite(self.time_decay_half_life_days)
        )

    def decay_factor(self, age_days: float) -> float:
        """The recency multiplier for a contribution ``age_days`` old.

        ``0.5 ** (age / half_life)`` — exactly ``1.0`` when the facet
        is inert or the age is non-positive (contributions at or beyond
        the corpus horizon never get *amplified*).
        """
        if not self.decay_active or age_days <= 0:
            return 1.0
        return 0.5 ** (age_days / self.time_decay_half_life_days)

    def resolved_solver_backend(self) -> str:
        """The concrete backend ``"auto"`` resolves to.

        ``"auto"`` picks the compiled sparse backend unconditionally:
        it is never slower than the reference sweep (assembly costs
        about one reference iteration) and the kernel itself selects
        numpy when available.  The reference backend remains the
        executable specification of Eqs. 1–4 and the anchor of the
        backend-equivalence suite.
        """
        if self.solver_backend == "auto":
            return "sparse"
        return self.solver_backend

    def contraction_bound(self) -> float:
        """Upper bound on the influence-system operator norm.

        Only valid when citation normalization is on (see module
        docstring); returns ``inf`` otherwise because without the TC
        divisor a prolific commenter's column sum is unbounded.

        The bound survives the temporal facet unchanged: decay
        multiplies each matrix entry by a factor in ``(0, 1]``, so
        every decayed column sum is at most its undecayed value and
        ``α · (1 − β) · sf_max`` still dominates the operator norm
        (see ``docs/temporal.md`` for the argument).
        """
        if not self.use_citation:
            return float("inf")
        return self.alpha * (1.0 - self.beta) * self.sf_max

    @property
    def is_contractive(self) -> bool:
        """Whether plain Jacobi iteration is guaranteed to converge."""
        return self.contraction_bound() < 1.0

    def with_overrides(self, **changes: Any) -> "MassParameters":
        """A copy with selected fields replaced (the toolbar edit)."""
        return replace(self, **changes)

    def canonical_dict(self) -> dict[str, Any]:
        """Every field as ``name → value``, in sorted field order.

        The canonical serialization behind :meth:`fingerprint`: two
        parameter sets produce the same dict iff they are equal, no
        matter what order their fields were supplied in.

        Inert time decay (``kind="none"`` or an infinite half-life) is
        *omitted* entirely: an inert-decay solve is bit-identical to
        the undecayed model, so it must also share its fingerprint —
        snapshot epochs stay stable and checkpoints written before the
        temporal facet existed remain loadable.  The retired
        :data:`RETIRED_FIELDS` are *included* at their fixed values for
        the same reason.
        """
        skip = (
            frozenset(("time_decay_kind", "time_decay_half_life_days"))
            if not self.decay_active else frozenset()
        )
        values = dict(RETIRED_FIELDS)
        values.update(
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name not in skip
        )
        return dict(sorted(values.items()))

    def fingerprint(self) -> str:
        """A stable content hash of the full parameter set.

        Equal parameter sets (however constructed) share a fingerprint;
        any changed field produces a different one.  Snapshot epochs and
        the query-cache key use this so a toolbar change can never be
        served from a stale cache entry.
        """
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
