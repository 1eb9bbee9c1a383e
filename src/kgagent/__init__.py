"""Knowledge-graph agent runtime.

An iterative agent that observes a knowledge graph with embedding-scored
triple selection, executes neighbor/path actions through a language model,
maintains a path-network memory, and answers questions, plus an evaluation
harness for Hits@1 exact match.
"""

from .action import (
    Action,
    Answer,
    NeighborExploration,
    PathDiscovery,
    build_action_prompt,
    build_answer_prompt,
    execute_action,
    parse_action,
    parse_answer,
)
from .agent import AgentConfig, AgentError, AgentResult, AgentTrace, Providers, render_case, run
from .embedding import (
    DeterministicEmbedder,
    EmbeddingCache,
    EmbeddingError,
    EmbeddingProviderError,
    HttpEmbedder,
    QuestionScorer,
    cosine,
    score_candidate,
)
from .evaluation import (
    DatasetRecord,
    EvalReport,
    load_dataset,
    normalize_answer,
    run_eval,
    save_dataset,
    score_hit,
)
from .kg import (
    InputError,
    KnowledgeGraph,
    Triple,
    TripleParseError,
    extract_khop_subgraph,
    load_kg,
    load_labels,
    load_triples,
    save_kg,
)
from .llm import (
    CompletionRequest,
    HttpChatConfig,
    HttpChatProvider,
    ScriptedProvider,
    ScriptEntry,
    ScriptError,
    load_script,
)
from .memory import Memory, integrate, render_memory
from .observation import ObservationParams, ObservationSubgraph, ScoredTriple, observe
from .reflection import (
    ReflectionParams,
    build_reflection_prompt,
    parse_reflected,
    reflect_generated_fact,
    reflect_random,
    reflect_similarity,
)

__version__ = "0.1.0"
