"""Instance retrieval at desk scale.

Exact global descriptor search, a learned transformer pair scorer for
reranking the top neighbors, query-expansion and geometric-verification
baselines, and an evaluation harness, all runnable on synthetic descriptor
datasets.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
