"""Influence over time: sliding-window trajectories.

The paper crawls "40000 *recent* posts" — influence is implicitly a
moving quantity.  This module makes that explicit: slice the corpus
into (possibly overlapping) day windows, solve the influence system per
window, and expose per-blogger trajectories, including the "rising
blogger" query an advertiser actually wants (who is gaining influence
*now*, not who was influential last year).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assemble import AssemblyCache
from repro.core.parameters import MassParameters
from repro.core.solver import InfluenceSolver
from repro.core.texts import PostTextTable
from repro.core.topk import top_k
from repro.data.corpus import BlogCorpus
from repro.errors import ParameterError

__all__ = ["InfluenceTrajectory", "trajectory"]


@dataclass(frozen=True, slots=True)
class _Window:
    start_day: int
    end_day: int
    influence: dict[str, float]


class InfluenceTrajectory:
    """Per-blogger influence series across time windows."""

    def __init__(self, windows: list[_Window]) -> None:
        if not windows:
            raise ParameterError("trajectory needs at least one window")
        self._windows = windows

    @property
    def num_windows(self) -> int:
        """How many windows were analyzed."""
        return len(self._windows)

    def window_bounds(self) -> list[tuple[int, int]]:
        """(start_day, end_day) per window, in order."""
        return [(w.start_day, w.end_day) for w in self._windows]

    def series(self, blogger_id: str) -> list[float]:
        """The blogger's influence in each window (0 where inactive)."""
        return [w.influence.get(blogger_id, 0.0) for w in self._windows]

    def influence_at(self, index: int) -> dict[str, float]:
        """All bloggers' influence in window ``index``."""
        return dict(self._windows[index].influence)

    def trend(self, blogger_id: str) -> float:
        """Least-squares slope of the blogger's series (per window)."""
        series = self.series(blogger_id)
        count = len(series)
        if count < 2:
            return 0.0
        mean_x = (count - 1) / 2
        mean_y = sum(series) / count
        numerator = sum(
            (x - mean_x) * (y - mean_y) for x, y in enumerate(series)
        )
        denominator = sum((x - mean_x) ** 2 for x in range(count))
        return numerator / denominator

    def rising_bloggers(self, k: int) -> list[tuple[str, float]]:
        """Top-k bloggers by influence trend (steepest climb first)."""
        bloggers = set()
        for window in self._windows:
            bloggers.update(window.influence)
        trends = {blogger_id: self.trend(blogger_id) for blogger_id in bloggers}
        return top_k(trends, k)


def trajectory(
    corpus: BlogCorpus,
    params: MassParameters | None = None,
    window_days: int = 90,
    step_days: int = 30,
    start_day: int = 0,
    end_day: int | None = None,
) -> InfluenceTrajectory:
    """Solve the influence system per sliding window.

    Consecutive windows warm-start from the previous solution, which is
    both faster and a live demonstration that the fixed point is
    start-independent.

    Windowed solves always run on the compiled backend (an explicit
    ``solver_backend="reference"`` is routed through ``"auto"`` — one
    reference sweep per window made trajectories serially slow for no
    fidelity gain; the backends agree to 1e-9) and share one
    :class:`~repro.core.assemble.AssemblyCache` across windows.  The
    CSR rows themselves are rebuilt per window (overlapping slices
    superficially resemble a delta-grown corpus, so dirty-row reuse
    would be unsound — the cache is invalidated between windows), but
    the shared *sentiment cache* classifies every comment exactly once
    and one shared :class:`~repro.core.texts.PostTextTable` tokenizes
    every post exactly once, no matter how many windows contain them,
    which is where the repeated-window cost actually lived.

    Parameters
    ----------
    window_days / step_days:
        Window length and stride in days.
    start_day / end_day:
        Analysis span; ``end_day`` defaults to one past the last
        activity in the corpus.
    """
    if window_days < 1 or step_days < 1:
        raise ParameterError("window_days and step_days must be >= 1")
    params = params or MassParameters()
    if params.resolved_solver_backend() == "reference":
        params = params.with_overrides(solver_backend="auto")
    if end_day is None:
        last = 0
        for post in corpus.posts.values():
            last = max(last, post.created_day)
        for comment in corpus.comments.values():
            last = max(last, comment.created_day)
        end_day = last + 1
    if end_day <= start_day:
        raise ParameterError(
            f"empty analysis span: start={start_day} end={end_day}"
        )

    windows: list[_Window] = []
    previous: dict[str, float] | None = None
    cache = AssemblyCache()
    texts = PostTextTable()
    day = start_day
    while day < end_day:
        window_end = day + window_days
        if window_end > end_day:
            # A short trailing stub under-counts activity purely
            # because it is short, corrupting trends.  Keep it only if
            # it covers at least half a window (or is the only window
            # the span allows); otherwise drop the tail.
            if windows and (end_day - day) * 2 < window_days:
                break
            window_end = end_day
        sliced = corpus.time_slice(day, window_end)
        # Force a cold compile per window: two slices with coincidentally
        # equal entity counts would otherwise pass the cache's shape
        # check and reuse rows from a *different* window.  The shared
        # sentiment cache and the text table are what carry across.
        cache.invalidate()
        scores = InfluenceSolver(
            sliced, params,
            sentiment_cache=cache.sentiment_cache,
            assembly_cache=cache,
            texts=texts,
        ).solve(initial=previous)
        windows.append(_Window(day, window_end, scores.influence))
        previous = scores.influence
        day += step_days
    return InfluenceTrajectory(windows)
