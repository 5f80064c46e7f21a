"""The HTTP service end to end: submit, memoize, stream, reject.

One service instance per module (ephemeral port, tmp store) — boots in
well under a second and every test drives it through the real client,
so this is the full wire path: argparse-free request documents in,
typed errors and fingerprint-stable manifests out.
"""

import asyncio
import json

import pytest

from repro.runner import manifest_fingerprint
from repro.service import (BadRequest, JOB_REQUEST_SCHEMA, NotFound,
                           RateLimited, ServiceClient, ServiceConfig,
                           TenantPolicy, start_in_thread)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    config = ServiceConfig(
        port=0,
        store_dir=str(tmp_path_factory.mktemp("store")),
        policy=TenantPolicy(rate_per_s=1000.0, burst=2000,
                            max_active_campaigns=100),
        overrides=(("narrow", TenantPolicy(rate_per_s=0.001, burst=1,
                                           max_jobs_per_campaign=4)),))
    handle = start_in_thread(config)
    yield handle
    handle.stop()


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


def _matrix_doc(tenant="alice", cells=2, jobs=0):
    doc = {"schema": JOB_REQUEST_SCHEMA, "tenant": tenant,
           "experiment": "matrix",
           "params": {"uarches": ["zen 2"], "cells": cells, "seed": 0}}
    if jobs:
        doc["options"] = {"jobs": jobs}
    return doc


def test_health_and_stats_shapes(client):
    health = client.health()
    assert health["schema"] == "phantom.service-health/1"
    assert health["status"] == "ok"
    stats = client.stats()
    assert stats["schema"] == "phantom.service-stats/1"
    assert "store" in stats and "tenants" in stats


def test_submit_wait_then_resubmit_is_memoized(client):
    cold = client.submit(_matrix_doc(cells=3), wait=True)
    assert cold["state"] == "done"
    assert cold["memo"]["jobs"] == 3

    warm = client.submit(_matrix_doc(tenant="bob", cells=3), wait=True)
    assert warm["state"] == "done"
    assert warm["memo"]["hits"] == 3
    assert warm["memo"]["hit_rate"] == 1.0

    # the dedup is invisible in the result: identical fingerprints
    assert manifest_fingerprint(warm["manifest"]) \
        == manifest_fingerprint(cold["manifest"])
    # and identical bytes once execution details are stripped
    assert json.dumps(manifest_fingerprint(warm["manifest"]),
                      sort_keys=True) \
        == json.dumps(manifest_fingerprint(cold["manifest"]),
                      sort_keys=True)


def test_worker_count_is_a_client_option(client):
    status = client.submit(_matrix_doc(cells=2, jobs=2), wait=True)
    assert status["state"] == "done"
    assert status["jobs"] == 2
    assert status["manifest"]["config"]["jobs"] == 2


def test_async_submit_then_poll_and_events(client):
    accepted = client.submit(_matrix_doc(cells=1))
    assert accepted["state"] in ("queued", "running", "done")
    campaign_id = accepted["id"]
    events = list(client.events(campaign_id))     # blocks until done
    kinds = [event["event"] for event in events]
    assert kinds[0] == "campaign_begin"
    assert kinds[-1] == "campaign_end"
    assert all(event["schema"] == "phantom.progress/1"
               for event in events)
    final = client.campaign(campaign_id)
    assert final["state"] == "done"
    assert final["request_fingerprint"]


def test_unknown_campaign_is_typed_404(client):
    with pytest.raises(NotFound):
        client.campaign("c999999-deadbeef")


def test_bad_request_is_typed_400(client):
    with pytest.raises(BadRequest) as info:
        client.submit({"schema": JOB_REQUEST_SCHEMA, "tenant": "x",
                       "experiment": "matrix",
                       "params": {"cellz": 1}})
    assert "cellz" in str(info.value)
    with pytest.raises(BadRequest):
        client.submit({"nope": True})


def test_unknown_route_is_typed_404(client):
    with pytest.raises(NotFound):
        client._request("GET", "/v2/everything")


def test_throttled_tenant_gets_typed_429_over_the_wire(client):
    first = client.submit(_matrix_doc(tenant="narrow", cells=1),
                          wait=True)
    assert first["state"] == "done"
    with pytest.raises(RateLimited) as info:
        client.submit(_matrix_doc(tenant="narrow", cells=1))
    assert info.value.retry_after_s > 0
    stats = client.stats()
    assert stats["tenants"]["narrow"]["rejected"] >= 1


def test_stats_reflect_the_store(client):
    stats = client.stats()
    assert stats["store"]["entries"] >= 3
    assert stats["store"]["hits"] >= 3
    assert stats["campaigns"].get("done", 0) >= 4


def test_disconnected_event_subscriber_is_unsubscribed(service):
    """Regression: a client that vanished mid-stream used to linger in
    ``record.subscribers`` forever — a half-closed socket's ``drain``
    may never raise, so the dead queue kept accumulating every event
    the campaign emitted.  The stream handler now watches the reader
    for EOF concurrently with the event queue and unsubscribes the
    moment the peer goes away."""
    import socket
    import time as _time

    from repro.service import JobRequest
    from repro.service.server import CampaignRecord

    svc = service.service
    record = CampaignRecord(
        id="c999999-leak", request=JobRequest.from_doc(_matrix_doc()),
        jobs=1, job_count=2, state="running")
    svc.campaigns[record.id] = record
    try:
        _scheme, rest = service.url.split("://")
        host, port = rest.split(":")
        sock = socket.create_connection((host, int(port)), timeout=10)
        sock.settimeout(10)
        sock.sendall(b"GET /v1/campaigns/c999999-leak/events HTTP/1.1\r\n"
                     b"Host: t\r\nConnection: close\r\n\r\n")
        assert b"200 OK" in sock.recv(4096)
        deadline = _time.time() + 5
        while not record.subscribers and _time.time() < deadline:
            _time.sleep(0.01)
        assert len(record.subscribers) == 1

        sock.close()                        # abrupt mid-stream disconnect
        # keep the campaign chatty: pushes to a dead subscriber must
        # neither crash the loop nor stop the cleanup from happening
        for i in range(3):
            service._loop.call_soon_threadsafe(
                svc._push_event, record, json.dumps({"event": "job",
                                                     "n": i}))
        deadline = _time.time() + 5
        while record.subscribers and _time.time() < deadline:
            _time.sleep(0.01)
        # Loop barrier: callbacks run in FIFO order, so once this
        # coroutine has run the three pushes above have run too.
        asyncio.run_coroutine_threadsafe(
            asyncio.sleep(0), service._loop).result(timeout=10)
        assert record.subscribers == []     # the leak, had it survived
        assert len(record.event_lines) == 3
    finally:
        svc.campaigns.pop(record.id, None)
