"""HTTP API tests over an in-process server (tier-1; tiny n=8 jobs)."""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.serve import JobService, JobSpec, ServeCapacity
from repro.serve.http_api import MAX_BODY_BYTES, make_server, serve_forever


@pytest.fixture()
def server(tmp_path):
    service = JobService(root=tmp_path / "serve",
                         capacity=ServeCapacity(max_jobs=2))
    server = make_server(service)
    serve_forever(server, background=True)
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def conn(server):
    """One raw keep-alive connection; the timeout bounds a hung handler."""
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
    yield conn
    conn.close()


@pytest.fixture()
def api(server):
    host, port = server.server_address[:2]

    def call(method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            f"http://{host}:{port}{path}", data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    return call, server.service


def test_healthz(api):
    call, _ = api
    status, doc = call("GET", "/v1/healthz")
    assert status == 200
    assert doc["ok"] is True and doc["jobs"] == 0


def test_submit_list_status(api):
    call, _ = api
    status, doc = call("POST", "/v1/jobs",
                       JobSpec(name="h1", tenant="t", n=8, steps=1).to_dict())
    assert status == 201
    assert doc["id"] == "j0000-h1" and doc["state"] == "PENDING"

    status, doc = call("GET", "/v1/jobs")
    assert status == 200 and len(doc["jobs"]) == 1

    status, doc = call("GET", "/v1/jobs/j0000-h1")
    assert status == 200 and doc["spec"]["name"] == "h1"


def test_invalid_spec_is_400(api):
    call, _ = api
    status, doc = call("POST", "/v1/jobs", {"name": "bad", "n": 7})
    assert status == 400
    assert "n=7" in doc["error"]


@pytest.mark.parametrize("bad", [
    {"nu": "0.02"}, {"inflight": "3"}, {"steps": "2"}, {"dt": "0.1"},
    {"fft_backend": "cufft"}, {"diagnostics_every": -1},
    {"fuzz_profile": "tornado", "fuzz_seed": 1, "ranks": 2, "npencils": 2},
    # json.dumps writes these as Infinity / NaN, which json.loads accepts.
    {"dt": float("inf")}, {"nu": float("nan")},
    {"skew": float("-inf"), "ranks": 2},
])
def test_mistyped_or_unknown_vocabulary_is_400_not_500_or_failed(api, bad):
    call, service = api
    status, doc = call("POST", "/v1/jobs", {"name": "bad", "n": 8, **bad})
    assert status == 400
    assert next(iter(bad)) in doc["error"]
    assert service.list() == []


def test_unknown_job_is_404(api):
    call, _ = api
    assert call("GET", "/v1/jobs/j9999-nope")[0] == 404
    assert call("POST", "/v1/jobs/j9999-nope/cancel")[0] == 404
    assert call("GET", "/v1/bogus")[0] == 404


def test_cancel(api):
    call, _ = api
    call("POST", "/v1/jobs", JobSpec(name="c", n=8, steps=1).to_dict())
    status, doc = call("POST", "/v1/jobs/j0000-c/cancel")
    assert status == 200 and doc["state"] == "EVICTED"


def test_scheduler_run_executes_jobs(api):
    call, service = api
    for name in ("r1", "r2"):
        call("POST", "/v1/jobs", JobSpec(name=name, n=8, steps=1).to_dict())
    status, doc = call("POST", "/v1/scheduler/run", {"seed": 5})
    assert status == 200
    assert sorted(doc["done"]) == ["j0000-r1", "j0001-r2"]
    assert doc["trace_path"].endswith("placement-0000.json")
    states = {r.id: r.state for r in service.list()}
    assert set(states.values()) == {"DONE"}


def test_unread_body_does_not_desynchronise_keepalive(conn, api):
    """Routes that ignore their body must still consume it: left on the
    socket it is parsed as the next request line (stdlib HTML 400)."""
    call, _ = api
    call("POST", "/v1/jobs", JobSpec(name="k", n=8, steps=1).to_dict())
    body = json.dumps({"reason": "x" * 64})
    for path, expected in (("/v1/jobs/j0000-k/cancel", 200),
                           ("/v1/bogus", 404)):
        conn.request("POST", path, body=body)
        resp = conn.getresponse()
        assert resp.status == expected
        json.loads(resp.read())
        sock = conn.sock
        conn.request("GET", "/v1/healthz")
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["ok"] is True
        assert conn.sock is sock  # answered on the same connection


@pytest.mark.parametrize("length, status", [
    ("-1", 400),            # rfile.read(-1) would block until the client left
    ("twelve", 400),
    (str(MAX_BODY_BYTES + 1), 413),
    (str(100 * 2**30), 413),
])
def test_unusable_content_length_is_refused_without_reading(conn, length, status):
    conn.putrequest("POST", "/v1/jobs")
    conn.putheader("Content-Length", length)
    conn.endheaders()
    resp = conn.getresponse()  # socket.timeout here = the handler hung
    assert resp.status == status
    assert resp.getheader("Connection") == "close"
    assert length in json.loads(resp.read())["error"]


def test_body_at_the_limit_is_read(conn):
    body = b"[" + b" " * (MAX_BODY_BYTES - 2) + b"]"
    conn.request("POST", "/v1/jobs", body=body)
    resp = conn.getresponse()
    assert resp.status == 400
    assert "JSON object" in json.loads(resp.read())["error"]
