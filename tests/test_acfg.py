"""Tests for Table I features, the ACFG container, and dataset assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acfg import (
    ACFG,
    ACFGDataset,
    FEATURE_NAMES,
    FeatureScaler,
    NUM_FEATURES,
    cfg_feature_matrix,
    from_sample,
    train_test_split,
)
from repro.disasm import ProgramBuilder, build_cfg
from repro.malgen import FAMILIES, generate_corpus


def tiny_cfg():
    b = ProgramBuilder("tiny")
    b.emit("mov", "eax", "42")
    b.emit("xor", "eax", "0FFh")
    b.emit("cmp", "eax", "0")
    b.emit("je", "out")
    b.emit("push", "'hello'")
    b.emit("call", "ds:MessageBoxA")
    b.label("out")
    b.emit("ret")
    return build_cfg(b.build())


class TestBlockFeatures:
    def test_feature_vector_length(self):
        assert NUM_FEATURES == 12
        assert len(FEATURE_NAMES) == 12

    def test_counts_match_tiny_program(self):
        cfg = tiny_cfg()
        features = cfg_feature_matrix(cfg)
        assert features.shape == (cfg.node_count, 12)
        block0 = features[0]
        # mov eax,42; xor eax,0FFh; cmp eax,0; je out
        assert block0[FEATURE_NAMES.index("numeric_constants")] == 3
        assert block0[FEATURE_NAMES.index("transfer_instructions")] == 1
        assert block0[FEATURE_NAMES.index("arithmetic_instructions")] == 1
        assert block0[FEATURE_NAMES.index("compare_instructions")] == 1
        assert block0[FEATURE_NAMES.index("mov_instructions")] == 1
        assert block0[FEATURE_NAMES.index("total_instructions")] == 4
        assert block0[FEATURE_NAMES.index("instructions_in_vertex")] == 4

    def test_string_constant_counted(self):
        cfg = tiny_cfg()
        features = cfg_feature_matrix(cfg)
        # push 'hello'; call ds:MessageBoxA is the second block
        assert features[1][FEATURE_NAMES.index("string_constants")] == 1
        assert features[1][FEATURE_NAMES.index("call_instructions")] == 1

    def test_offspring_is_out_degree(self):
        cfg = tiny_cfg()
        features = cfg_feature_matrix(cfg)
        offspring = FEATURE_NAMES.index("offspring")
        for block in cfg.blocks:
            assert features[block.index][offspring] == cfg.out_degree(block.index)

    def test_termination_counted(self):
        cfg = tiny_cfg()
        features = cfg_feature_matrix(cfg)
        last = cfg.node_count - 1
        assert features[last][FEATURE_NAMES.index("termination_instructions")] == 1

    def test_block_features_no_out_edges(self):
        cfg = tiny_cfg()
        ret_block = cfg.node_count - 1
        assert cfg.blocks[ret_block].terminator.is_return
        assert cfg.out_degree(ret_block) == 0
        features = cfg_feature_matrix(cfg)
        assert features[ret_block][FEATURE_NAMES.index("offspring")] == 0


class TestACFGContainer:
    def make(self, n=4, n_real=None):
        adjacency = np.zeros((n, n))
        adjacency[0, 1] = 1
        adjacency[1, 2] = 2
        features = np.arange(n * 12, dtype=float).reshape(n, 12)
        return ACFG(adjacency, features, label=0, family="Bagle", n_real=n_real)

    def test_basic_properties(self):
        acfg = self.make()
        assert acfg.n == 4
        assert acfg.n_real == 4
        assert acfg.num_features == 12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ACFG(np.zeros((3, 4)), np.zeros((3, 12)), 0, "Bagle")

    def test_rejects_feature_mismatch(self):
        with pytest.raises(ValueError, match="features rows"):
            ACFG(np.zeros((3, 3)), np.zeros((4, 12)), 0, "Bagle")

    def test_rejects_bad_adjacency_values(self):
        adjacency = np.zeros((2, 2))
        adjacency[0, 1] = 5
        with pytest.raises(ValueError, match="adjacency values"):
            ACFG(adjacency, np.zeros((2, 12)), 0, "Bagle")

    def test_padding_preserves_content(self):
        acfg = self.make(4)
        padded = acfg.padded(10)
        assert padded.n == 10
        assert padded.n_real == 4
        np.testing.assert_array_equal(padded.adjacency[:4, :4], acfg.adjacency)
        np.testing.assert_array_equal(padded.features[:4], acfg.features)
        assert padded.adjacency[4:].sum() == 0
        assert padded.features[4:].sum() == 0

    def test_padding_down_raises(self):
        with pytest.raises(ValueError, match="cannot pad"):
            self.make(4).padded(2)

    def test_padding_same_size_is_identity(self):
        acfg = self.make(4)
        assert acfg.padded(4) is acfg

    def test_subgraph_adjacency_zeroes_removed_nodes(self):
        acfg = self.make(4)
        pruned = acfg.subgraph_adjacency(np.array([0, 1]))
        assert pruned[0, 1] == 1
        assert pruned[1, 2] == 0  # node 2 removed
        np.testing.assert_array_equal(pruned[2], np.zeros(4))
        np.testing.assert_array_equal(pruned[:, 2], np.zeros(4))

    def test_masked_features(self):
        acfg = self.make(3)
        masked = acfg.masked_features(np.array([1]))
        assert masked[0].sum() == 0
        np.testing.assert_array_equal(masked[1], acfg.features[1])


class TestDataset:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(2, seed=5)

    def test_from_corpus_pads_uniformly(self, corpus):
        dataset = ACFGDataset.from_corpus(corpus)
        assert len(dataset) == len(corpus)
        assert len({g.n for g in dataset}) == 1

    def test_explicit_pad_too_small_raises(self, corpus):
        with pytest.raises(ValueError, match="smaller than largest"):
            ACFGDataset.from_corpus(corpus, pad_to=2)

    def test_from_sample_tags_preserved(self, corpus):
        sample = corpus[0]
        acfg = from_sample(sample)
        assert len(acfg.block_tags) == sample.cfg.node_count

    def test_labels_and_families(self, corpus):
        dataset = ACFGDataset.from_corpus(corpus)
        assert dataset.num_classes == 12
        assert set(dataset.labels) == set(range(12))
        assert len(dataset.of_family("Zbot")) == 2

    def test_scaler_bounds_features(self, corpus):
        dataset = ACFGDataset.from_corpus(corpus)
        scaler = FeatureScaler().fit(list(dataset))
        scaled = dataset.scaled(scaler)
        for graph in scaled:
            real = graph.features[: graph.n_real]
            assert real.min() >= 0.0
            assert real.max() <= 1.0 + 1e-12
            # padding stays zero
            assert graph.features[graph.n_real :].sum() == 0

    def test_scaler_unfitted_raises(self, corpus):
        dataset = ACFGDataset.from_corpus(corpus)
        with pytest.raises(RuntimeError, match="not fitted"):
            FeatureScaler().transform(dataset[0])

    def test_split_stratified(self, corpus):
        dataset = ACFGDataset.from_corpus(corpus)
        train, test = train_test_split(dataset, test_fraction=0.5, seed=1)
        assert len(train) + len(test) == len(dataset)
        for family in FAMILIES:
            assert len(test.of_family(family)) == 1

    def test_split_always_keeps_train_member(self, corpus):
        dataset = ACFGDataset.from_corpus(corpus)
        train, test = train_test_split(dataset, test_fraction=0.9, seed=1)
        for family in FAMILIES:
            assert len(train.of_family(family)) >= 1

    def test_split_bad_fraction_raises(self, corpus):
        dataset = ACFGDataset.from_corpus(corpus)
        with pytest.raises(ValueError):
            train_test_split(dataset, test_fraction=1.5)

    def test_roundtrip_save_load(self, corpus, tmp_path):
        dataset = ACFGDataset.from_corpus(corpus[:4])
        dataset.save(tmp_path / "ds")
        loaded = ACFGDataset.load(tmp_path / "ds")
        assert len(loaded) == 4
        for original, restored in zip(dataset, loaded):
            np.testing.assert_array_equal(original.adjacency, restored.adjacency)
            np.testing.assert_array_equal(original.features, restored.features)
            assert original.family == restored.family
            assert original.n_real == restored.n_real
            assert original.block_tags == restored.block_tags


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_feature_invariants(family, seed):
    """Structural invariants of Table I features on arbitrary programs."""
    from repro.malgen import generate_program

    program, _ = generate_program(family, seed)
    cfg = build_cfg(program)
    features = cfg_feature_matrix(cfg)
    total = FEATURE_NAMES.index("total_instructions")
    in_vertex = FEATURE_NAMES.index("instructions_in_vertex")
    category_indices = [
        FEATURE_NAMES.index(n)
        for n in (
            "transfer_instructions",
            "call_instructions",
            "arithmetic_instructions",
            "compare_instructions",
            "mov_instructions",
            "termination_instructions",
            "data_declaration_instructions",
        )
    ]
    assert (features >= 0).all()
    np.testing.assert_array_equal(features[:, total], features[:, in_vertex])
    # Category counts cannot exceed the block's instruction count.
    assert (features[:, category_indices].sum(axis=1) <= features[:, total]).all()
    # Offspring column equals the adjacency out-degree (nonzero entries).
    adjacency = cfg.adjacency_matrix()
    out_degree = (adjacency > 0).sum(axis=1)
    np.testing.assert_array_equal(features[:, FEATURE_NAMES.index("offspring")], out_degree)
