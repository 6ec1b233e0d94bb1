"""RUBBoS workload mixes and the Markov transition matrix between pages.

RUBBoS ships two canonical mixes: *browsing-only* (reads exclusively)
and the *read/write* interaction mix (about 10 % writes).  Client
sessions follow a Markov chain over the 24 interactions: the next page
depends on the current one (you post a comment from a story page, not
from the registration form).

The matrix is assembled from the mix's stationary weights plus
structural affinities, then row-normalised; properties of a valid
stochastic matrix are enforced and unit-tested.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Mapping

import numpy as np

from repro.errors import WorkloadError
from repro.workload.interactions import INTERACTIONS

#: Stationary visit weights of the browsing-only mix.
BROWSING_ONLY_WEIGHTS: dict[str, float] = {
    "StoriesOfTheDay": 14.0,
    "Default": 6.0,
    "BrowseCategories": 8.0,
    "BrowseStoriesByCategory": 12.0,
    "OlderStories": 6.0,
    "ViewStory": 22.0,
    "ViewComment": 16.0,
    "PostCommentForm": 0.0,
    "StoreComment": 0.0,
    "SubmitStoryForm": 0.0,
    "StoreStory": 0.0,
    "Search": 4.0,
    "SearchInStories": 4.0,
    "SearchInComments": 2.0,
    "SearchInUsers": 1.0,
    "ViewUserInfo": 3.0,
    "RegisterUserForm": 0.0,
    "RegisterUser": 0.0,
    "AuthorLogin": 1.0,
    "AuthorTasks": 0.5,
    "ReviewStories": 0.5,
    "AcceptStory": 0.0,
    "RejectStory": 0.0,
    "ModerateComment": 0.0,
}

#: Stationary visit weights of the read/write mix (~10 % writes).
READ_WRITE_WEIGHTS: dict[str, float] = {
    "StoriesOfTheDay": 12.0,
    "Default": 5.0,
    "BrowseCategories": 7.0,
    "BrowseStoriesByCategory": 10.0,
    "OlderStories": 5.0,
    "ViewStory": 19.0,
    "ViewComment": 14.0,
    "PostCommentForm": 3.0,
    "StoreComment": 3.0,
    "SubmitStoryForm": 1.0,
    "StoreStory": 1.0,
    "Search": 3.0,
    "SearchInStories": 3.0,
    "SearchInComments": 2.0,
    "SearchInUsers": 1.0,
    "ViewUserInfo": 2.5,
    "RegisterUserForm": 1.0,
    "RegisterUser": 1.0,
    "AuthorLogin": 1.5,
    "AuthorTasks": 1.0,
    "ReviewStories": 1.0,
    "AcceptStory": 1.0,
    "RejectStory": 0.5,
    "ModerateComment": 1.5,
}

#: Structural affinities: (from, to) pairs that are boosted because the
#: target is a natural next click from the source page.
_AFFINITIES: dict[tuple[str, str], float] = {
    ("StoriesOfTheDay", "ViewStory"): 3.0,
    ("BrowseStoriesByCategory", "ViewStory"): 3.0,
    ("OlderStories", "ViewStory"): 3.0,
    ("ViewStory", "ViewComment"): 3.0,
    ("ViewStory", "PostCommentForm"): 2.0,
    ("ViewComment", "PostCommentForm"): 2.0,
    ("ViewComment", "ViewComment"): 1.5,
    ("PostCommentForm", "StoreComment"): 30.0,
    ("SubmitStoryForm", "StoreStory"): 30.0,
    ("RegisterUserForm", "RegisterUser"): 30.0,
    ("Search", "SearchInStories"): 8.0,
    ("Search", "SearchInComments"): 5.0,
    ("Search", "SearchInUsers"): 3.0,
    ("AuthorLogin", "AuthorTasks"): 20.0,
    ("AuthorTasks", "ReviewStories"): 10.0,
    ("ReviewStories", "AcceptStory"): 6.0,
    ("ReviewStories", "RejectStory"): 3.0,
    ("ViewComment", "ModerateComment"): 1.5,
    ("ViewUserInfo", "ViewComment"): 2.0,
}


def _cdf(p: np.ndarray) -> list[float]:
    """The cdf ``Generator.choice`` searches: ``p.cumsum()`` over its last."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class WorkloadMix:
    """A named mix: stationary weights + derived transition matrix."""

    def __init__(self, name: str, weights: Mapping[str, float]) -> None:
        unknown = set(weights) - set(INTERACTIONS)
        if unknown:
            raise WorkloadError("weights for unknown interactions: "
                                + ", ".join(sorted(unknown)))
        missing = set(INTERACTIONS) - set(weights)
        if missing:
            raise WorkloadError("missing weights for: "
                                + ", ".join(sorted(missing)))
        invalid = sorted(name for name, weight in weights.items()
                         if not (math.isfinite(weight) and weight >= 0))
        if invalid:
            raise WorkloadError("weights must be finite and >= 0: "
                                + ", ".join(invalid))
        if all(weight == 0 for weight in weights.values()):
            raise WorkloadError("all weights are zero")
        self.name = name
        self.states = list(INTERACTIONS)
        self._index = {name: i for i, name in enumerate(self.states)}
        self.weights = np.array([float(weights[s]) for s in self.states])
        self.transition_matrix = self._build_matrix()
        # One cdf per row, read with bisect over a single rng.random():
        # the draw Generator.choice(n, p=row) makes, without its per-call
        # validation and cumsum.
        self._cdfs = {state: _cdf(row) for state, row
                      in zip(self.states, self.transition_matrix)}
        self._first_cdf = _cdf(self.initial_distribution())

    def _build_matrix(self) -> np.ndarray:
        size = len(self.states)
        matrix = np.tile(self.weights, (size, 1))
        for (source, target), boost in _AFFINITIES.items():
            i, j = self._index[source], self._index[target]
            if self.weights[j] > 0:
                matrix[i, j] += boost * self.weights.sum() / 100.0 * 10
        # Rows for zero-weight (unreachable) states still need a valid
        # distribution; give them the stationary weights.
        row_sums = matrix.sum(axis=1, keepdims=True)
        return matrix / row_sums

    # -- queries ------------------------------------------------------------
    def initial_distribution(self) -> np.ndarray:
        """Stationary weights normalised into a start-page distribution."""
        return self.weights / self.weights.sum()

    def next_state(self, current: str, rng: np.random.Generator) -> str:
        """Sample the next interaction after ``current``."""
        return self.states[bisect_right(self._cdfs[current], rng.random())]

    def first_state(self, rng: np.random.Generator) -> str:
        """Sample a session's first interaction."""
        return self.states[bisect_right(self._first_cdf, rng.random())]

    @property
    def write_fraction(self) -> float:
        """Stationary fraction of write interactions."""
        total = self.weights.sum()
        writes = sum(self.weights[self._index[name]]
                     for name, interaction in INTERACTIONS.items()
                     if interaction.is_write)
        return float(writes / total)


def browsing_only_mix() -> WorkloadMix:
    """The RUBBoS browsing-only mix (no writes)."""
    return WorkloadMix("browsing_only", BROWSING_ONLY_WEIGHTS)


def read_write_mix() -> WorkloadMix:
    """The RUBBoS read/write interaction mix (~10 % writes)."""
    return WorkloadMix("read_write", READ_WRITE_WEIGHTS)
