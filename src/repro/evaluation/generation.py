"""Autoregressive text generation on the n-gram substrate.

The performance model simulates *how fast* tokens come out; this module
makes the evaluation substrate actually *produce* tokens: greedy or
temperature sampling from the interpolated n-gram LM over the BPE
vocabulary.  It exists so the suite contains a genuine end-to-end
generator — prompt in, text out — whose autoregressive loop mirrors the
decode loop the performance model charges for (one token per step,
KV-style growing context).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.perplexity import NGramLanguageModel
from repro.evaluation.tokenizer import ByteBPETokenizer

__all__ = ["GenerationResult", "TextGenerator"]


@dataclass(frozen=True)
class GenerationResult:
    """Output of one generation call."""

    prompt_tokens: tuple[int, ...]
    generated_tokens: tuple[int, ...]
    text: str


class TextGenerator:
    """Tokenizer + n-gram LM + sampling loop."""

    def __init__(
        self,
        tokenizer: ByteBPETokenizer,
        model: NGramLanguageModel,
    ) -> None:
        if model.vocab_size < tokenizer.actual_vocab_size:
            raise ValueError(
                "LM vocabulary smaller than the tokenizer's "
                f"({model.vocab_size} < {tokenizer.actual_vocab_size})"
            )
        self.tokenizer = tokenizer
        self.model = model

    @classmethod
    def fit(
        cls, corpus: str, vocab_size: int = 512, order: int = 3
    ) -> "TextGenerator":
        """Train tokenizer and LM on a corpus in one call."""
        tokenizer = ByteBPETokenizer(vocab_size=vocab_size).train(corpus)
        model = NGramLanguageModel(
            order=order, vocab_size=tokenizer.actual_vocab_size
        ).fit(tokenizer.encode(corpus))
        return cls(tokenizer, model)

    # ------------------------------------------------------------------

    def _distribution(self, history: list[int]) -> np.ndarray:
        probs = np.array(
            [
                self.model.probability(token, history)
                for token in range(self.model.vocab_size)
            ]
        )
        return probs / probs.sum()

    def generate(
        self,
        prompt: str,
        max_new_tokens: int = 32,
        temperature: float = 1.0,
        seed: int = 0,
    ) -> GenerationResult:
        """Autoregressive generation: one token per step.

        ``temperature=0`` is greedy decoding; higher values flatten the
        sampling distribution.  Deterministic for a fixed seed.
        """
        if max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        rng = np.random.default_rng(seed)
        prompt_tokens = self.tokenizer.encode(prompt)
        context = list(prompt_tokens)
        generated: list[int] = []
        for _ in range(max_new_tokens):
            history = context[-(self.model.order - 1) :] if self.model.order > 1 else []
            probs = self._distribution(history)
            if temperature == 0.0:
                token = int(np.argmax(probs))
            else:
                logits = np.log(probs) / temperature
                logits -= logits.max()
                weights = np.exp(logits)
                weights /= weights.sum()
                token = int(rng.choice(len(weights), p=weights))
            generated.append(token)
            context.append(token)
        return GenerationResult(
            prompt_tokens=tuple(prompt_tokens),
            generated_tokens=tuple(generated),
            text=self.tokenizer.decode(generated),
        )

    def score(self, text: str) -> float:
        """Perplexity of arbitrary text under the generator's LM."""
        tokens = self.tokenizer.encode(text)
        if not tokens:
            raise ValueError("text tokenized to nothing")
        return self.model.perplexity(tokens)
