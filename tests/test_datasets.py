"""Tests for the synthetic LongBench corpus generators."""

import pytest

from repro.evaluation.datasets import (
    LONGBENCH_SUBSETS,
    generate_subset,
    unified_corpus,
)


class TestSubsets:
    def test_fifteen_subsets(self):
        """The paper lists fifteen LongBench sub-datasets."""
        assert len(LONGBENCH_SUBSETS) == 15

    def test_paper_names_present(self):
        for name in ("hotpotqa", "2wikimqa", "musique", "dureader", "narrativeqa",
                     "qasper", "gov_report", "qmsum", "vcsum", "triviaqa",
                     "samsum", "multi_news", "trec", "lcc", "repobench"):
            assert name in LONGBENCH_SUBSETS

    def test_families_are_known(self):
        assert set(LONGBENCH_SUBSETS.values()) == {
            "qa", "summarization", "fewshot", "code",
        }


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = generate_subset("hotpotqa", seed=3)
        b = generate_subset("hotpotqa", seed=3)
        assert a.documents == b.documents

    def test_different_seeds_differ(self):
        a = generate_subset("hotpotqa", seed=1)
        b = generate_subset("hotpotqa", seed=2)
        assert a.documents != b.documents

    def test_different_subsets_differ(self):
        a = generate_subset("hotpotqa", seed=0)
        b = generate_subset("samsum", seed=0)
        assert a.documents != b.documents

    def test_requested_shape(self):
        ds = generate_subset("lcc", num_documents=3, words_per_document=50)
        assert len(ds.documents) == 3
        words = sum(len(doc.split()) for doc in ds.documents)
        assert words == pytest.approx(150, abs=1)

    def test_family_vocabulary_appears(self):
        ds = generate_subset("lcc", num_documents=10, words_per_document=300)
        code_words = {"def", "return", "class", "import", "self"}
        text_words = set(ds.text.replace(".", " ").split())
        assert code_words & text_words

    def test_sentences_have_periods(self):
        ds = generate_subset("trec", words_per_document=100)
        assert "." in ds.text

    def test_unknown_subset_raises(self):
        with pytest.raises(KeyError, match="known subsets"):
            generate_subset("imagenet")

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            generate_subset("trec", num_documents=0)


class TestUnifiedCorpus:
    def test_contains_all_subsets(self):
        corpus = unified_corpus(num_documents=1, words_per_document=30)
        assert len(corpus.split("\n")) == 15

    def test_deterministic(self):
        assert unified_corpus(seed=5, num_documents=2, words_per_document=20) == (
            unified_corpus(seed=5, num_documents=2, words_per_document=20)
        )
