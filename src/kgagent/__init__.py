"""Knowledge-graph agent runtime.

An iterative agent that observes a knowledge graph with embedding-scored
triple selection, executes neighbor/path actions through a language model,
maintains a path-network memory, and answers questions, plus an evaluation
harness for Hits@1 exact match.
"""

__version__ = "0.1.0"
