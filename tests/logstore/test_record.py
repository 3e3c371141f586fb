"""Unit tests for the observation-record schema."""

import pytest

from repro.logstore import EventStore, ObservationKind, ObservationRecord, Query


def make_record(**overrides):
    defaults = dict(
        timestamp=1.0,
        kind=ObservationKind.REQUEST,
        src="ServiceA",
        dst="ServiceB",
        src_instance="servicea-0",
        request_id="test-1",
        method="GET",
        uri="/x",
    )
    defaults.update(overrides)
    return ObservationRecord(**defaults)


class TestObservationRecord:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            make_record(kind="sideways")

    def test_direction_helpers(self):
        assert make_record(kind="request").is_request
        assert make_record(kind="reply").is_reply

    def test_actual_latency_subtracts_injected_delay(self):
        record = make_record(kind="reply", latency=3.05, injected_delay=3.0)
        assert record.actual_latency == pytest.approx(0.05)

    def test_actual_latency_clamped_at_zero(self):
        record = make_record(kind="reply", latency=0.9, injected_delay=1.0)
        assert record.actual_latency == 0.0

    def test_actual_latency_none_without_latency(self):
        assert make_record().actual_latency is None

    def test_mutation_models_es_document_update(self):
        record = make_record()
        assert record.status is None
        record.status = 503  # outcome learned later
        assert record.status == 503

    def test_to_dict_round_trip_fields(self):
        record = make_record(status=200, latency=0.01)
        doc = record.to_dict()
        assert doc["src"] == "ServiceA"
        assert doc["status"] == 200
        assert ObservationRecord(**doc) == record


class TestConstructionSkipsTheIndexHook:
    """Records are built field-complete in one step; only post-ingest
    mutations go through ``__setattr__`` and the store's index hook."""

    def test_construction_never_calls_setattr_or_a_hook(self, monkeypatch):
        store = EventStore(strategy="indexed")  # has ingested nothing yet
        hook_calls = []
        monkeypatch.setattr(store, "_record_updated", lambda *args: hook_calls.append(args))
        setattr_calls = []
        original = ObservationRecord.__setattr__

        def counting_setattr(self, name, value):
            setattr_calls.append(name)
            original(self, name, value)

        monkeypatch.setattr(ObservationRecord, "__setattr__", counting_setattr)
        record = make_record(status=503, fault_applied="abort(503)", latency=0.5)
        assert setattr_calls == [] and hook_calls == []

        store.append(record)
        record.status = 200
        record.fault_applied = None
        assert setattr_calls == ["status", "fault_applied"]
        assert [(field, value) for _record, field, value in hook_calls] == [
            ("status", 200),
            ("fault_applied", None),
        ]

    QUERIES = [
        Query(),
        Query(status=200),
        Query(status=503),
        Query(status=500),
        Query(with_faults_only=True),
        Query(kind="reply", status=503),
        Query(with_faults_only=True, status=503),
    ]

    def test_post_ingest_updates_match_a_linear_store(self):
        def populate(store):
            records = [
                make_record(
                    timestamp=float(index),
                    kind="reply" if index % 2 else "request",
                    status=[None, 200, 503][index % 3],
                    fault_applied="abort(503)" if index % 4 == 0 else None,
                )
                for index in range(24)
            ]
            store.extend(records)
            return records

        indexed = EventStore(strategy="indexed")
        linear = EventStore(strategy="linear")
        stores = [(indexed, populate(indexed)), (linear, populate(linear))]
        for query in self.QUERIES:  # warm every posting list first
            indexed.count(query)
        for _store, records in stores:
            for index, record in enumerate(records):
                if index % 3 == 0:
                    record.status = 503
                elif index % 5 == 0:
                    record.status = None
                if index % 4 == 0:
                    record.fault_applied = None
                elif index % 7 == 0:
                    record.fault_applied = "delay(1.0)"
        for query in self.QUERIES:
            assert indexed.search(query) == linear.search(query)
            assert indexed.count(query) == linear.count(query)
