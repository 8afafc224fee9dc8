"""Static reduction: chain collapse, feature merging, lift maps.

Covers the documented contracts of ``repro.reduce``: collapse
idempotence (default config), the feature-aggregation arithmetic
(sum everything, recompute offspring), lift-map round-trips (partition
+ conserved importance mass), composition with the hostile-input
quarantine, and GNN parity where reduction is a no-op.
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.acfg import ACFGDataset
from repro.acfg.features import NUM_FEATURES
from repro.acfg.graph import ACFG, from_sample
from repro.disasm.cfg import CFGBuildError, build_cfg
from repro.disasm.parser import ParseError, parse_program
from repro.eval.pipeline import ExperimentConfig
from repro.explain.base import ladder_from_order
from repro.explain.explanation import Explanation
from repro.gnn.model import GCNClassifier
from repro.malgen import generate_corpus
from repro.malgen.corpus import LabeledSample, block_motif_tags
from repro.malgen.families import FAMILIES
from repro.nn import NumericalError, no_grad
from repro.reduce import (
    PRUNED,
    LiftMap,
    ReduceConfig,
    merge_stats,
    reduce_acfg,
    reduce_sample,
)
from tests.reference_training import dense_forward

HOSTILE_DIR = Path(__file__).parent / "data" / "hostile"

AGGRESSIVE = ReduceConfig(
    prune_dead_stores=True,
    filter_leaves=True,
    leaf_max_in_degree=8,
    max_rounds=8,
)


def make_acfg(adjacency, features=None, name="t", block_tags=()):
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    if features is None:
        features = np.arange(n * NUM_FEATURES, dtype=float).reshape(
            n, NUM_FEATURES
        )
    return ACFG(
        adjacency=adjacency,
        features=np.asarray(features, dtype=float),
        label=0,
        family=FAMILIES[0],
        name=name,
        n_real=n,
        block_tags=tuple(block_tags),
    )


def chain3():
    """0 → 1 → 2, pure fallthrough: one maximal chain."""
    return make_acfg([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def diamond():
    """0 → {1, 2} → 3: no chain anywhere, reduction is a no-op.

    The offspring column is set to the true successor counts so the
    no-op reduction's offspring recomputation changes nothing.
    """
    features = np.arange(4 * NUM_FEATURES, dtype=float).reshape(4, NUM_FEATURES)
    features[:, 10] = [2.0, 1.0, 1.0, 0.0]
    return make_acfg(
        [
            [0, 1, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ],
        features=features,
    )


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(2, seed=11, families=FAMILIES[:3])


class TestChainCollapse:
    def test_linear_chain_collapses_to_one_supernode(self):
        result = reduce_acfg(chain3())
        assert result.graph.n_real == 1
        assert result.lift.members == ((0, 1, 2),)
        assert result.stats.chains_collapsed == 1
        # blocks_merged counts every member of a collapsed chain
        assert result.stats.blocks_merged == 3

    def test_entry_stays_index_zero(self):
        # 0 → 1, 0 → 2, 2 → 3 (chain 2-3 merges; entry must stay first)
        graph = make_acfg(
            [
                [0, 1, 1, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 0, 0],
            ]
        )
        result = reduce_acfg(graph)
        assert result.lift.super_of[0] == 0
        assert result.lift.members[0] == (0,)
        assert result.lift.members[2] == (2, 3)

    def test_retreating_edge_never_merges(self):
        # 0 → 1 → 2 → 1: the loop body must not fold into the header.
        graph = make_acfg([[0, 1, 0], [0, 0, 1], [0, 1, 0]])
        result = reduce_acfg(graph)
        # 1 → 2 is a legal merge (2's only pred is 1, and 1's only
        # weight-1 succ is 2); the back edge 2 → 1 becomes a self-loop
        # but 1 itself is never absorbed into 0's chain because 1 has
        # two predecessors.
        assert result.lift.super_of[0] == 0
        assert result.lift.members[0] == (0,)

    def test_call_edges_do_not_break_chains(self):
        # 0 → 1 (fallthrough) with a call edge 0 → 2; 1 still merges.
        graph = make_acfg(
            [
                [0, 1, 2],
                [0, 0, 0],
                [0, 0, 0],
            ]
        )
        result = reduce_acfg(graph)
        assert result.lift.members[0] == (0, 1)
        assert set(np.unique(result.graph.adjacency)) <= {0.0, 1.0, 2.0}

    def test_max_chain_length_caps_merges(self):
        graph = make_acfg(np.diag([1.0, 1.0, 1.0], k=1))  # 0→1→2→3
        capped = reduce_acfg(graph, config=ReduceConfig(max_chain_length=2))
        assert max(len(m) for m in capped.lift.members) <= 2
        free = reduce_acfg(graph)
        assert free.graph.n_real == 1

    def test_default_config_idempotent(self, small_corpus):
        for sample in small_corpus:
            once = reduce_acfg(from_sample(sample))
            twice = reduce_acfg(once.graph)
            assert twice.lift.is_identity, sample.program.name
            np.testing.assert_array_equal(
                twice.graph.adjacency, once.graph.adjacency
            )
            np.testing.assert_array_equal(
                twice.graph.features, once.graph.features
            )

    def test_unreachable_blocks_pruned(self):
        # Block 2 is unreachable from entry.
        graph = make_acfg([[0, 1, 0], [0, 0, 0], [0, 1, 0]])
        result = reduce_acfg(
            graph, config=ReduceConfig(collapse_chains=False)
        )
        assert result.stats.unreachable_pruned == 1
        assert result.lift.super_of[2] == PRUNED


class TestFeatureMerge:
    def test_features_sum_and_offspring_recomputed(self):
        features = np.ones((3, NUM_FEATURES))
        features[1] = 2.0
        features[2] = 4.0
        result = reduce_acfg(chain3(), config=ReduceConfig())
        merged = reduce_acfg(make_acfg(chain3().adjacency, features)).graph
        assert result.graph.n_real == 1
        # Every column sums across members...
        from repro.reduce.passes import OFFSPRING_COLUMN

        for column in range(NUM_FEATURES):
            if column == OFFSPRING_COLUMN:
                continue
            assert merged.features[0, column] == pytest.approx(7.0)
        # ...except offspring, recomputed on the reduced structure
        # (a single node with no successors has offspring 0).
        assert merged.features[0, OFFSPRING_COLUMN] == 0.0

    def test_offspring_counts_reduced_successors(self):
        # 0 → 1 → {2, 3}: chain (0,1) merges, keeping two successors.
        graph = make_acfg(
            [
                [0, 1, 0, 0],
                [0, 0, 1, 1],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ],
            features=np.ones((4, NUM_FEATURES)),
        )
        result = reduce_acfg(graph)
        from repro.reduce.passes import OFFSPRING_COLUMN

        assert result.lift.members[0] == (0, 1)
        assert result.graph.features[0, OFFSPRING_COLUMN] == 2.0

    def test_block_tags_union(self):
        tags = (frozenset({"a"}), frozenset({"b"}), frozenset())
        result = reduce_acfg(make_acfg(chain3().adjacency, block_tags=tags))
        assert result.graph.block_tags[0] == frozenset({"a", "b"})

    def test_nonfinite_merge_raises_numerical_error(self):
        features = np.full((3, NUM_FEATURES), 1e308)
        graph = make_acfg(chain3().adjacency, features)
        with pytest.raises(NumericalError):
            reduce_acfg(graph)

    def test_mass_totals_preserved_on_corpus(self, small_corpus):
        from repro.reduce.passes import OFFSPRING_COLUMN

        for sample in small_corpus:
            graph = from_sample(sample)
            result = reduce_acfg(graph)
            for column in range(NUM_FEATURES):
                if column == OFFSPRING_COLUMN:
                    continue
                assert result.graph.features[:, column].sum() == pytest.approx(
                    graph.features[: graph.n_real, column].sum()
                ), (sample.program.name, column)


class TestLiftMap:
    def test_every_block_has_exactly_one_home(self, small_corpus):
        for sample in small_corpus:
            graph = from_sample(sample)
            result = reduce_sample(sample, config=AGGRESSIVE)
            lift = result.lift
            assert lift.original_n == graph.n_real
            counted = sum(len(m) for m in lift.members)
            assert counted + len(lift.pruned_blocks) == lift.original_n
            for s, member in enumerate(lift.members):
                for index in member:
                    assert lift.super_of[index] == s

    def test_importance_mass_conserved(self, small_corpus):
        rng = np.random.default_rng(5)
        for sample in small_corpus:
            result = reduce_sample(sample, config=AGGRESSIVE)
            scores = rng.random(result.graph.n_real)
            lifted = result.lift.lift_scores(scores)
            assert lifted.sum() == pytest.approx(scores.sum())
            assert np.all(lifted[result.lift.pruned_blocks] == 0.0)

    def test_lift_order_is_permutation(self, small_corpus):
        rng = np.random.default_rng(6)
        for sample in small_corpus:
            result = reduce_sample(sample, config=AGGRESSIVE)
            order = rng.permutation(result.graph.n_real)
            lifted = result.lift.lift_order(order)
            np.testing.assert_array_equal(
                np.sort(lifted), np.arange(result.lift.original_n)
            )

    def test_round_trip_through_dict(self, small_corpus):
        sample = small_corpus[0]
        lift = reduce_sample(sample, config=AGGRESSIVE).lift
        restored = LiftMap.from_dict(json.loads(json.dumps(lift.to_dict())))
        assert restored.members == lift.members
        np.testing.assert_array_equal(restored.super_of, lift.super_of)

    def test_lift_explanation_rebuilds_ladder(self, small_corpus):
        sample = small_corpus[0]
        original = from_sample(sample)
        result = reduce_acfg(original)
        reduced = result.graph
        order = np.arange(reduced.n_real)[::-1].copy()
        explanation = Explanation(
            graph=reduced,
            explainer_name="unit",
            predicted_class=0,
            node_order=order,
            levels=ladder_from_order(reduced, order, 20),
            node_scores=np.linspace(1.0, 0.0, reduced.n_real),
        )
        lifted = result.lift.lift_explanation(explanation, original)
        assert lifted.graph is original
        assert len(lifted.levels) == len(explanation.levels)
        np.testing.assert_array_equal(
            np.sort(lifted.node_order), np.arange(original.n_real)
        )
        assert lifted.node_scores.sum() == pytest.approx(
            explanation.node_scores.sum()
        )

    def test_identity_map(self):
        lift = LiftMap.identity(4)
        assert lift.is_identity
        np.testing.assert_array_equal(
            lift.lift_scores(np.array([1.0, 2.0, 3.0, 4.0])),
            [1.0, 2.0, 3.0, 4.0],
        )


class TestHostileCompose:
    @pytest.mark.parametrize(
        "path", sorted(HOSTILE_DIR.glob("*.asm")), ids=lambda p: p.stem
    )
    def test_hostile_listing_never_crashes_reduction(self, path):
        """Every hostile listing: typed rejection upstream, or reduce cleanly."""
        try:
            program = parse_program(path.read_text(), name=path.stem)
            cfg = build_cfg(program)
        except (ParseError, CFGBuildError):
            return  # rejected before reduction — the quarantine contract
        sample = LabeledSample(
            program=program,
            cfg=cfg,
            family=FAMILIES[0],
            label=0,
            motif_spans=[],
            block_tags=block_motif_tags(cfg, []),
        )
        try:
            result = reduce_sample(sample, config=AGGRESSIVE)
        except (ValueError, NumericalError):
            return  # typed rejection is also a pass
        assert np.all(np.isfinite(result.graph.features))
        assert result.graph.n_real <= sample.cfg.node_count

    def test_from_corpus_reduce_with_quarantine(self, small_corpus):
        dataset = ACFGDataset.from_corpus(
            small_corpus,
            reduce=ReduceConfig(),
            on_bad_input="quarantine",
        )
        assert len(dataset.lift_maps) == len(dataset)
        for graph in dataset:
            lift = dataset.lift_map_for(graph.name)
            assert lift is not None
            assert lift.num_supernodes == graph.n_real

    def test_dataset_stats_aggregate(self, small_corpus):
        per_graph = [
            reduce_sample(sample, config=AGGRESSIVE).stats
            for sample in small_corpus
        ]
        totals = merge_stats(per_graph)
        assert totals.nodes_before == sum(s.nodes_before for s in per_graph)
        assert totals.nodes_after == sum(s.nodes_after for s in per_graph)
        assert totals.node_compression >= 1.0


class TestNoopParity:
    def test_diamond_is_identity_and_gnn_agrees(self):
        graph = diamond()
        result = reduce_acfg(graph)
        assert result.lift.is_identity
        model = GCNClassifier(
            in_features=NUM_FEATURES, hidden=(8, 8), rng=np.random.default_rng(0)
        )
        with no_grad():
            _, probs_original = dense_forward(model, graph)
            _, probs_reduced = dense_forward(model, result.graph)
        np.testing.assert_allclose(
            probs_reduced.numpy(), probs_original.numpy(), atol=0
        )

    def test_noop_config_returns_identity(self):
        graph = chain3()
        config = ReduceConfig(collapse_chains=False, prune_unreachable=False)
        assert config.is_noop
        result = reduce_acfg(graph, config=config)
        assert result.lift.is_identity
        np.testing.assert_array_equal(result.graph.adjacency, graph.adjacency)


class TestConfigPlumbing:
    def test_experiment_config_json_round_trip(self):
        config = ExperimentConfig(
            samples_per_family=2,
            reduce=ReduceConfig(filter_leaves=True, leaf_max_in_degree=3),
        )
        restored = ExperimentConfig(**json.loads(json.dumps(asdict(config))))
        assert restored == config
        assert isinstance(restored.reduce, ReduceConfig)

    def test_reduce_config_validation(self):
        with pytest.raises(ValueError):
            ReduceConfig(max_chain_length=1)
        with pytest.raises(ValueError):
            ReduceConfig(max_rounds=0)
        with pytest.raises(ValueError):
            ReduceConfig(leaf_max_in_degree=-1)

    def test_dataset_split_shares_lift_maps(self, small_corpus):
        from repro.acfg import train_test_split

        dataset = ACFGDataset.from_corpus(small_corpus, reduce=ReduceConfig())
        train, test = train_test_split(dataset, test_fraction=0.5, seed=0)
        assert train.lift_maps is dataset.lift_maps
        assert test.lift_maps is dataset.lift_maps
