"""Tests for the end-to-end text generator on the n-gram substrate."""

import pytest

from repro.evaluation.datasets import unified_corpus
from repro.evaluation.generation import TextGenerator
from repro.evaluation.perplexity import NGramLanguageModel
from repro.evaluation.tokenizer import ByteBPETokenizer


@pytest.fixture(scope="module")
def generator():
    corpus = unified_corpus(num_documents=4, words_per_document=150, seed=3)
    return TextGenerator.fit(corpus, vocab_size=320, order=3)


class TestFit:
    def test_fit_builds_consistent_pair(self, generator):
        assert generator.model.vocab_size == generator.tokenizer.actual_vocab_size

    def test_mismatched_vocab_rejected(self):
        tok = ByteBPETokenizer(vocab_size=320).train("a b c a b c a b")
        lm = NGramLanguageModel(order=2, vocab_size=100)
        with pytest.raises(ValueError, match="vocabulary"):
            TextGenerator(tok, lm)


class TestGenerate:
    def test_produces_requested_tokens(self, generator):
        result = generator.generate("the report", max_new_tokens=16, seed=0)
        assert len(result.generated_tokens) == 16
        assert isinstance(result.text, str)

    def test_deterministic_per_seed(self, generator):
        a = generator.generate("the question", max_new_tokens=12, seed=5)
        b = generator.generate("the question", max_new_tokens=12, seed=5)
        assert a.generated_tokens == b.generated_tokens

    def test_seeds_differ(self, generator):
        a = generator.generate("the question", max_new_tokens=24, seed=1)
        b = generator.generate("the question", max_new_tokens=24, seed=2)
        assert a.generated_tokens != b.generated_tokens

    def test_greedy_is_seed_independent(self, generator):
        a = generator.generate("the data", max_new_tokens=8, temperature=0.0, seed=1)
        b = generator.generate("the data", max_new_tokens=8, temperature=0.0, seed=9)
        assert a.generated_tokens == b.generated_tokens

    def test_generated_text_decodes_to_words(self, generator):
        result = generator.generate("the", max_new_tokens=40, seed=0)
        assert len(result.text.split()) >= 1

    def test_generated_text_is_in_domain(self, generator):
        """Generated text should score better than scrambled text."""
        result = generator.generate("the report", max_new_tokens=60, seed=0)
        in_domain = generator.score(result.text)
        scrambled = " ".join(reversed(result.text.split()))
        assert in_domain <= generator.score(scrambled) * 1.05

    def test_rejects_bad_args(self, generator):
        with pytest.raises(ValueError):
            generator.generate("x", max_new_tokens=0)
        with pytest.raises(ValueError):
            generator.generate("x", temperature=-1.0)

    def test_score_rejects_empty(self, generator):
        with pytest.raises(ValueError):
            generator.score("")
