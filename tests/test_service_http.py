"""HTTP surface proofs (ISSUE 7): routing, error contract, and the
live threaded server.

Most tests drive :meth:`ServiceApp.dispatch` directly — the routing
layer is deliberately socket-free — and only the final class binds a
real ephemeral-port server and talks to it over urllib, including the
NDJSON streaming endpoint.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

import repro.service.app as app_module
from repro.service import ServiceApp, ServiceConfig, make_server


@pytest.fixture()
def app(tmp_path):
    return ServiceApp(
        ServiceConfig(
            cache_dir=str(tmp_path / "cache"),
            spool_root=str(tmp_path / "jobs"),
            port=0,
        )
    )


def _post(app, path, payload):
    return app.dispatch("POST", path, json.dumps(payload).encode("utf-8"))


_SMALL = {
    "host": {"family": "complete", "n": 128},
    "protocol": "best-of-3",
    "init": {"delta": 0.2},
    "trials": 3,
    "max_steps": 100,
    "seed": 7,
}


class TestDispatch:
    def test_health(self, app):
        resp = app.dispatch("GET", "/v1/health")
        assert resp.status == 200
        assert resp.json()["status"] == "ok"

    def test_unknown_route_is_404(self, app):
        assert app.dispatch("GET", "/v1/nope").status == 404

    def test_wrong_method_is_405(self, app):
        assert app.dispatch("GET", "/v1/ensemble").status == 405
        assert app.dispatch("POST", "/v1/health", b"{}").status == 405

    def test_bad_json_and_empty_body_are_400(self, app):
        assert app.dispatch("POST", "/v1/ensemble", b"{nope").status == 400
        assert app.dispatch("POST", "/v1/ensemble", None).status == 400

    def test_validation_error_is_400_with_message(self, app):
        resp = _post(app, "/v1/ensemble", {"host": {"family": "moebius"}})
        assert resp.status == 400
        assert "unknown host family" in resp.json()["error"]

    def test_ensemble_cold_then_warm(self, app):
        cold = _post(app, "/v1/ensemble", _SMALL)
        warm = _post(app, "/v1/ensemble", _SMALL)
        assert cold.status == warm.status == 200
        assert cold.json()["cached"] is False
        assert warm.json()["cached"] is True
        assert warm.json()["row"] == cold.json()["row"]
        assert warm.json()["result"] == cold.json()["result"]
        stats = app.dispatch("GET", "/v1/stats").json()
        assert stats["engine_calls"] == 1
        assert stats["cache_hits"] == 1
        assert stats["requests"] == 2

    def test_differently_phrased_identical_request_is_warm(self, app):
        _post(app, "/v1/ensemble", _SMALL)
        rephrased = dict(_SMALL)
        rephrased["protocol"] = {"kind": "best_of_k", "k": 3}
        resp = _post(app, "/v1/ensemble", rephrased)
        assert resp.json()["cached"] is True  # canonicalisation at work

    def test_compare_renders_one_table(self, app):
        resp = _post(
            app,
            "/v1/compare",
            {
                "host": {"family": "complete", "n": 64},
                "protocols": ["voter", "best-of-3"],
                "trials": 3,
                "max_steps": 200,
                "seed": 1,
            },
        )
        assert resp.status == 200
        body = resp.json()
        assert len(body["rows"]) == 2
        assert body["table"].count("\n") == 3  # header + sep + 2 rows
        assert len(body["results"]) == 2

    def test_stats_includes_queue_and_worker_views(self, app):
        stats = app.dispatch("GET", "/v1/stats").json()
        assert stats["queue_depth"] == 0
        assert stats["workers"]["jobs_attached"] == 0
        assert "cache_hit_rate" in stats


class TestLiveServer:
    @pytest.fixture()
    def base_url(self, app):
        server = make_server(app, host="127.0.0.1", port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    def test_end_to_end_over_sockets(self, base_url):
        with urllib.request.urlopen(base_url + "/v1/health") as resp:
            assert json.load(resp)["status"] == "ok"

        req = urllib.request.Request(
            base_url + "/v1/ensemble",
            data=json.dumps(_SMALL).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            body = json.load(resp)
        assert body["cached"] is False
        assert body["row"]["trials"] == 3

        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(base_url + "/v1/jobs/jdeadbeef")
        assert err.value.code == 404

    def test_sweep_job_streams_rows_over_ndjson(self, base_url):
        submit = urllib.request.Request(
            base_url + "/v1/sweeps",
            data=json.dumps(
                {
                    "name": "stream-test",
                    "hosts": [
                        {"family": "complete", "n": 64},
                        {"family": "complete", "n": 128},
                    ],
                    "trials": 3,
                    "max_steps": 100,
                    "seed": 2,
                }
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(submit) as resp:
            assert resp.status == 202
            job_id = json.load(resp)["job_id"]

        url = base_url + f"/v1/jobs/{job_id}/rows?stream=1&timeout_s=60"
        with urllib.request.urlopen(url) as resp:
            assert resp.headers.get("Content-Type") == "application/x-ndjson"
            rows = [json.loads(line) for line in resp]
        assert len(rows) == 2
        assert all(row["status"] == "done" for row in rows)

        with urllib.request.urlopen(base_url + f"/v1/jobs/{job_id}") as resp:
            assert json.load(resp)["state"] == "done"


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_serve_prints_its_banner_in_one_write(tmp_path, monkeypatch):
    # A supervisor that polls the server's log with seek(0)/read() while
    # sharing its file offset loses the first line if a later write lands
    # in between; one write leaves no gap.
    real_make_server = app_module.make_server
    bound = {}

    def make_server(app):
        server = real_make_server(app, port=0)
        bound["address"] = server.server_address[:2]

        def interrupted():
            raise KeyboardInterrupt

        server.serve_forever = interrupted
        return server

    monkeypatch.setattr(app_module, "make_server", make_server)
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    app_module.serve(
        ServiceConfig(
            cache_dir=str(tmp_path / "cache"),
            spool_root=str(tmp_path / "jobs"),
            port=0,
        )
    )
    host, port = bound["address"]
    lines = out.getvalue().splitlines()
    assert out.writes == 1
    assert out.getvalue().endswith("\n")
    assert lines[0] == f"repro service listening on http://{host}:{port}"
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["cache", "jobs"]
