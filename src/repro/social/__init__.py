"""Social-network substrate.

This package models the "personal network" / "business network" pair the
paper observes in Overstock and the social structures SocialTrust consumes:

* :mod:`repro.social.graph` — friendship graphs with typed, weighted
  relationships (the ``m(i,j)`` and ``w_dl`` inputs of Eqs. (2) and (10)),
  plus the assigned-distance network used by the paper's experiment setup.
* :mod:`repro.social.interactions` — the directed interaction-frequency
  ledger (``f(i,j)`` in Eq. (2)).
* :mod:`repro.social.interests` — per-node interest sets and request-weighted
  interest vectors (``V_i`` and ``w_s(i,l)`` in Eqs. (7) and (11)).
* :mod:`repro.social.paths` — BFS distances, friend-of-friend sets.
* :mod:`repro.social.generators` — synthetic topology builders.
"""

from repro.social.construction import SocialNetworkBuilder
from repro.social.graph import (
    AssignedSocialNetwork,
    Relationship,
    SocialGraph,
    SocialView,
)
from repro.social.interactions import InteractionLedger
from repro.social.metrics import GraphSummary, summarize_graph
from repro.social.interests import InterestProfiles
from repro.social.paths import bfs_distances, common_friends, shortest_path

__all__ = [
    "SocialNetworkBuilder",
    "AssignedSocialNetwork",
    "Relationship",
    "SocialGraph",
    "SocialView",
    "InteractionLedger",
    "GraphSummary",
    "summarize_graph",
    "InterestProfiles",
    "bfs_distances",
    "common_friends",
    "shortest_path",
]
