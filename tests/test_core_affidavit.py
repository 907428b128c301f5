"""End-to-end tests of the Affidavit search engine (Algorithm 1)."""

import pytest

from repro.core import (
    AffidavitConfig,
    ProblemInstance,
    engine_name,
    explain_snapshots,
    identity_configuration,
    overlap_configuration,
    trivial_explanation_cost,
)
from repro.dataio import Schema, Table
from repro.functions import default_registry


@pytest.fixture
def simple_snapshots():
    """Amounts divided by 100, unit renamed, one insertion and one deletion."""
    schema = Schema(["code", "amount", "unit"])
    source_rows = [(f"c{i:02d}", str(100 * (i + 1)), "EUR") for i in range(30)]
    target_rows = [(f"c{i:02d}", str(i + 1), "kEUR") for i in range(29)]  # c29 deleted
    target_rows.append(("zz99", "777", "kEUR"))  # inserted
    return Table(schema, source_rows), Table(schema, target_rows)


class TestExplainSnapshots:
    def test_identity_configuration_recovers_transformations(self, simple_snapshots):
        source, target = simple_snapshots
        result = explain_snapshots(source, target, config=identity_configuration())
        functions = result.explanation.functions
        assert functions["code"].is_identity
        assert functions["amount"].apply("1500") == "15"
        assert functions["unit"].apply("EUR") == "kEUR"
        assert result.explanation.core_size == 29
        assert result.explanation.n_deleted == 1
        assert result.explanation.n_inserted == 1

    def test_overlap_configuration_also_works(self, simple_snapshots):
        source, target = simple_snapshots
        result = explain_snapshots(source, target, config=overlap_configuration())
        assert result.explanation.core_size == 29
        assert result.cost < result.trivial_cost

    def test_result_is_valid_and_costed(self, simple_snapshots):
        source, target = simple_snapshots
        result = explain_snapshots(source, target)
        instance = ProblemInstance(source=source, target=target)
        assert result.explanation.is_valid(instance)
        assert result.cost <= result.trivial_cost
        assert result.trivial_cost == trivial_explanation_cost(instance)
        assert result.runtime_seconds >= 0.0
        assert result.expansions >= 1

    def test_custom_registry_is_used(self, simple_snapshots):
        source, target = simple_snapshots
        registry = default_registry(include_dates=False)
        result = explain_snapshots(source, target, registry=registry, name="custom")
        assert result.explanation.core_size == 29


class TestDeterminism:
    def test_same_seed_same_result(self, simple_snapshots):
        source, target = simple_snapshots
        first = explain_snapshots(source, target, config=identity_configuration())
        second = explain_snapshots(source, target, config=identity_configuration())
        assert first.cost == second.cost
        assert first.explanation.functions == second.explanation.functions
        assert first.explanation.alignment == second.explanation.alignment

    def test_different_seeds_still_valid(self, simple_snapshots):
        source, target = simple_snapshots
        config = identity_configuration(seed=99)
        result = explain_snapshots(source, target, config=config)
        instance = ProblemInstance(source=source, target=target)
        assert result.explanation.is_valid(instance)


class TestEdgeCases:
    def test_identical_snapshots_yield_identity_everywhere(self):
        schema = Schema(["a", "b"])
        rows = [(str(i), f"v{i % 5}") for i in range(20)]
        table = Table(schema, rows)
        result = explain_snapshots(table, Table(schema, rows))
        assert result.explanation.n_deleted == 0
        assert result.explanation.n_inserted == 0
        assert all(f.is_identity for f in result.explanation.functions.values())
        assert result.cost == 0

    def test_disjoint_snapshots_fall_back_to_trivial_like_costs(self):
        schema = Schema(["a", "b"])
        source = Table(schema, [(f"s{i}", "x") for i in range(5)])
        target = Table(schema, [(f"t{i}", "y") for i in range(5)])
        result = explain_snapshots(source, target)
        instance = ProblemInstance(source=source, target=target)
        assert result.explanation.is_valid(instance)
        assert result.cost <= trivial_explanation_cost(instance)

    def test_single_attribute_table(self):
        schema = Schema(["only"])
        source = Table(schema, [(str(i),) for i in range(10)])
        target = Table(schema, [(str(i + 1),) for i in range(10)])
        result = explain_snapshots(source, target)
        instance = ProblemInstance(source=source, target=target)
        assert result.explanation.is_valid(instance)
        # Two optimal explanations exist with cost 1: the identity (aligns 9
        # records, 1 insertion) and addition-by-one (aligns all 10 records,
        # ψ = 1).  The search must find one of them.
        assert result.cost == 1
        assert result.explanation.core_size >= 9

    def test_empty_target_snapshot(self):
        schema = Schema(["a"])
        source = Table(schema, [("1",), ("2",)])
        target = Table(schema)
        result = explain_snapshots(source, target)
        assert result.explanation.core_size == 0
        assert result.explanation.n_deleted == 2
        assert result.cost == 0

    def test_max_expansions_cap_still_returns_valid_explanation(self, simple_snapshots):
        source, target = simple_snapshots
        config = identity_configuration(max_expansions=1)
        result = explain_snapshots(source, target, config=config)
        instance = ProblemInstance(source=source, target=target)
        assert result.explanation.is_valid(instance)

    def test_result_summary_renders(self, simple_snapshots):
        source, target = simple_snapshots
        result = explain_snapshots(source, target)
        text = result.summary()
        assert "cost" in text
        assert "attribute functions" in text


class TestConfigValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AffidavitConfig(alpha=1.5)
        with pytest.raises(ValueError):
            AffidavitConfig(beta=0)
        with pytest.raises(ValueError):
            AffidavitConfig(queue_width=0)
        with pytest.raises(ValueError):
            AffidavitConfig(theta=0.0)
        with pytest.raises(ValueError):
            AffidavitConfig(confidence=1.0)
        with pytest.raises(ValueError):
            AffidavitConfig(start_strategy="nope")
        with pytest.raises(ValueError):
            AffidavitConfig(max_expansions=0)

    def test_engine_name_mapping(self):
        assert engine_name(identity_configuration()) == "columnar"
        assert engine_name(identity_configuration(columnar_cache=False)) == "rowwise"

    def test_with_overrides(self):
        config = identity_configuration().with_overrides(beta=3)
        assert config.beta == 3
        assert config.start_strategy == "identity"

    def test_named_configurations_match_the_paper(self):
        hid = identity_configuration()
        assert (hid.beta, hid.queue_width, hid.start_strategy) == (2, 5, "identity")
        hs = overlap_configuration()
        assert (hs.beta, hs.queue_width, hs.start_strategy) == (1, 1, "overlap")
        assert hs.max_block_size == 100_000
        for config in (hid, hs):
            assert config.alpha == 0.5
            assert config.theta == 0.1
            assert config.confidence == 0.95
