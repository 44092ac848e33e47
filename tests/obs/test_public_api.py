"""Public-API audit of ``repro.obs``: ``__all__`` is accurate, and the
journal's provenance records never collide with the experiment layer's
measurement records."""

import repro.experiments.records as experiment_records
import repro.obs as obs


class TestAllAudit:
    def test_every_all_name_resolves(self):
        for name in obs.__all__:
            assert hasattr(obs, name), f"__all__ lists missing name {name!r}"

    def test_all_is_sorted_and_unique(self):
        assert len(obs.__all__) == len(set(obs.__all__))

    def test_journal_surface_is_public(self):
        for name in (
            "QueryJournal",
            "JournalRecord",
            "validate_journal",
            "TRACKED_COUNTER_PREFIXES",
            "SCHEMA_V1",
            "prom_name",
        ):
            assert name in obs.__all__

    def test_submodule_alls_are_subsets_of_package_exports(self):
        from repro.obs import journal

        for name in journal.__all__:
            assert name in obs.__all__, (
                f"{journal.__name__}.__all__ has {name!r} missing from "
                "repro.obs.__all__"
            )


class TestNoRecordNameCollision:
    def test_journal_record_is_not_a_query_record(self):
        # JournalRecord (runtime provenance) and QueryRecord (experiment
        # measurement) are deliberately distinct classes in distinct
        # layers; neither module may export the other's name.
        assert not hasattr(experiment_records, "JournalRecord")
        assert not hasattr(obs, "QueryRecord")

    def test_export_names_do_not_overlap(self):
        experiment_names = set(getattr(experiment_records, "__all__", [])) or {
            name
            for name in dir(experiment_records)
            if not name.startswith("_")
        }
        overlap = set(obs.__all__) & experiment_names
        assert not overlap, f"obs and experiments.records both export {overlap}"

    def test_cross_reference_docstrings_present(self):
        # The rename-avoidance contract is documented on both classes.
        assert "QueryRecord" in obs.JournalRecord.__doc__
        assert "JournalRecord" in experiment_records.QueryRecord.__doc__
