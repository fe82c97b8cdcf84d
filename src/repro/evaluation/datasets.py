"""Synthetic LongBench-style evaluation corpus (paper Appendix D).

The paper evaluates perplexity on LongBench's fifteen sub-datasets combined
into one unified corpus.  LongBench itself is not redistributable here, so
we synthesize a stand-in with the same *structure*: fifteen named subsets
spanning QA, summarization, few-shot and code tasks, each generated from a
seeded Markov-style template sampler with task-flavoured vocabulary.  The
generator is deterministic per (subset, seed) and produces text with
realistic word-frequency skew (Zipfian base vocabulary), which is what the
n-gram perplexity pipeline and tokenizer training need.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["LONGBENCH_SUBSETS", "SyntheticDataset", "generate_subset", "unified_corpus"]

# The fifteen LongBench sub-datasets the paper lists, with a task family
# used to flavour the synthetic text.
LONGBENCH_SUBSETS: dict[str, str] = {
    "hotpotqa": "qa",
    "2wikimqa": "qa",
    "musique": "qa",
    "dureader": "qa",
    "narrativeqa": "qa",
    "qasper": "qa",
    "gov_report": "summarization",
    "qmsum": "summarization",
    "vcsum": "summarization",
    "triviaqa": "fewshot",
    "samsum": "fewshot",
    "multi_news": "summarization",
    "trec": "fewshot",
    "lcc": "code",
    "repobench": "code",
}

_BASE_WORDS = [
    "the", "of", "and", "to", "in", "a", "is", "that", "for", "it",
    "with", "as", "was", "on", "are", "by", "this", "be", "at", "from",
    "report", "question", "answer", "document", "meeting", "summary",
    "system", "model", "data", "result", "analysis", "section", "figure",
    "table", "value", "method", "process", "performance", "study", "work",
]

_FAMILY_WORDS: dict[str, list[str]] = {
    "qa": ["who", "what", "where", "when", "why", "passage", "evidence",
           "entity", "hop", "reasoning", "context", "query"],
    "summarization": ["summary", "transcript", "agenda", "minutes", "topic",
                      "speaker", "paragraph", "highlights", "overview",
                      "abstract", "conclusion", "bullet"],
    "fewshot": ["example", "label", "category", "input", "output", "task",
                "classify", "dialogue", "utterance", "response", "shot",
                "demonstration"],
    "code": ["def", "return", "class", "import", "self", "function",
             "variable", "loop", "index", "buffer", "module", "parse"],
}


@dataclass(frozen=True)
class SyntheticDataset:
    """One generated subset: name, family, and its documents."""

    name: str
    family: str
    documents: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.documents)


def _zipf_probabilities(n: int, exponent: float = 1.1) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def generate_subset(
    name: str,
    num_documents: int = 8,
    words_per_document: int = 200,
    seed: int = 0,
) -> SyntheticDataset:
    """Generate one named LongBench-style subset deterministically."""
    if name not in LONGBENCH_SUBSETS:
        known = ", ".join(sorted(LONGBENCH_SUBSETS))
        raise KeyError(f"unknown subset {name!r}; known subsets: {known}")
    if num_documents < 1 or words_per_document < 1:
        raise ValueError("need at least one document of at least one word")
    family = LONGBENCH_SUBSETS[name]
    vocab = _BASE_WORDS + _FAMILY_WORDS[family]
    probs = _zipf_probabilities(len(vocab))
    # Stable per-subset stream regardless of generation order elsewhere
    # (crc32, not hash(): str hashing is salted per process).
    rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
    documents = []
    for _ in range(num_documents):
        words = rng.choice(vocab, size=words_per_document, p=probs)
        # Light sentence structure: a period every 8-15 words.
        out: list[str] = []
        next_stop = int(rng.integers(8, 16))
        for i, word in enumerate(words):
            out.append(str(word))
            if i + 1 == next_stop:
                out[-1] += "."
                next_stop += int(rng.integers(8, 16))
        documents.append(" ".join(out))
    return SyntheticDataset(name=name, family=family, documents=tuple(documents))


def unified_corpus(
    num_documents: int = 8, words_per_document: int = 200, seed: int = 0
) -> str:
    """All fifteen subsets combined, the paper's unified evaluation set."""
    parts = [
        generate_subset(name, num_documents, words_per_document, seed).text
        for name in LONGBENCH_SUBSETS
    ]
    return "\n".join(parts)
