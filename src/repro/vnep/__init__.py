"""Static VNEP building blocks (Sec. II-A of the paper).

* :class:`EmbeddingVariables` — per-request Table III variables,
  Constraints (1)-(2) and the Table V allocation macros; reused by every
  temporal model.
* :class:`StaticVNEPModel` — the classic time-less VNEP as a MIP.
* Heuristics — random (the paper's methodology) and capacity-aware node
  mappings.
"""

from repro.vnep.embedding_vars import EmbeddingVariables, NodeMapping
from repro.vnep.heuristics import greedy_node_mapping, random_node_mapping
from repro.vnep.static_model import StaticEmbeddingResult, StaticVNEPModel

__all__ = [
    "EmbeddingVariables",
    "NodeMapping",
    "StaticVNEPModel",
    "StaticEmbeddingResult",
    "random_node_mapping",
    "greedy_node_mapping",
]
