from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from lookforge.assembly import Edit, VerificationReport
from lookforge.cli import ENV_JUDGE_URL, build_judge, effective_judge_spec
from lookforge.errors import JudgeUnavailableError
from lookforge.judge import (
    PASS_SCRIPT,
    RETRY_PAUSE_S,
    HttpSource,
    JudgeClient,
    ScriptedSource,
)
from lookforge.retrieval import Candidate


def cands(*ids):
    return [Candidate(a, 0.5, "part") for a in ids]


# --- scripted source -----------------------------------------------------------


def test_scripted_fifo_and_exhaustion():
    src = ScriptedSource({"verify": [{"verdict": "fail", "issues": ["x"]},
                                     {"verdict": "pass"}]})
    judge = JudgeClient(src)
    assert judge.verify({})["verdict"] == "fail"
    assert judge.verify({})["verdict"] == "pass"
    with pytest.raises(JudgeUnavailableError):
        judge.verify({})


def test_scripted_cycle_repeats():
    src = ScriptedSource({"cycle": True, "verify": [{"verdict": "pass"}]})
    judge = JudgeClient(src)
    for _ in range(5):
        assert judge.verify({})["verdict"] == "pass"


def test_scripted_single_response_becomes_queue():
    src = ScriptedSource({"filter_grid": {"keep": "all"}})
    judge = JudgeClient(src)
    assert judge.filter_grid("hat", cands("a", "b")) == ["a", "b"]
    with pytest.raises(JudgeUnavailableError):
        judge.filter_grid("hat", cands("a"))


def test_scripted_rejects_unknown_op():
    with pytest.raises(ValueError):
        ScriptedSource({"teleport": [{}]})


def test_scripted_from_file(tmp_path):
    path = tmp_path / "judge.json"
    path.write_text(json.dumps({"verify": [{"verdict": "pass"}]}))
    judge = JudgeClient(ScriptedSource(path))
    assert judge.verify({})["verdict"] == "pass"


def test_scripted_records_calls():
    src = ScriptedSource({"filter_grid": [{"keep": []}]})
    JudgeClient(src).filter_grid("hat", cands("a"))
    assert src.calls[0][0] == "filter_grid"
    assert src.calls[0][1]["category_id"] == "hat"


# --- canned response forms -------------------------------------------------------


def test_filter_grid_forms():
    src = ScriptedSource(
        {"filter_grid": [{"keep": "all"}, {"keep": ["b"]}, {"nope": 1}]}
    )
    judge = JudgeClient(src)
    assert judge.filter_grid("hat", cands("a", "b")) == ["a", "b"]
    assert judge.filter_grid("hat", cands("a", "b")) == ["b"]
    with pytest.raises(JudgeUnavailableError):
        judge.filter_grid("hat", cands("a"))


def test_select_outfit_forms():
    src = ScriptedSource(
        {
            "select_outfit": [
                {"select": "top"},
                {"select": {"hat": "h2"}},
            ]
        }
    )
    judge = JudgeClient(src)
    pools = {"hat": ["h1", "h2"], "body": ["b1"], "空": []}
    picks = judge.select_outfit(pools, {})
    assert picks == {"hat": "h1", "body": "b1"}
    assert judge.select_outfit(pools, {}) == {"hat": "h2"}


def test_verify_forms():
    src = ScriptedSource(
        {
            "verify": [
                {"verdict": "pass", "issues": ["ignored"], "edits": 5},
                {"verdict": "fail", "edits": [{"action": "remove", "category_id": "hat"}]},
                {"verdict": "fail"},
                {"verdict": "maybe"},
            ]
        }
    )
    judge = JudgeClient(src)
    # the client hands the answer over unchanged; the report parses it
    first = judge.verify({})
    assert first == {"verdict": "pass", "issues": ["ignored"], "edits": 5}
    assert VerificationReport.from_dict(first) == VerificationReport("pass")
    out = VerificationReport.from_dict(judge.verify({}))
    assert out.verdict == "fail" and out.edits == (Edit("remove", "hat"),)
    for _ in range(2):
        with pytest.raises(JudgeUnavailableError):
            VerificationReport.from_dict(judge.verify({}))


def test_compare_batch_forms():
    src = ScriptedSource(
        {"compare_batch": [{"winner": 2}, {"winner": "max_look_id"}, {"winner": 1.5}]}
    )
    judge = JudgeClient(src)
    docs = [{"look_id": "look-000"}, {"look_id": "look-002"}, {"look_id": "look-001"}]
    assert judge.compare_batch(docs) == 2
    assert judge.compare_batch(docs) == 1  # look-002 is the max id
    with pytest.raises(JudgeUnavailableError):
        judge.compare_batch(docs)


def test_pass_through_judge():
    judge = JudgeClient(ScriptedSource(PASS_SCRIPT))
    for _ in range(2):  # the script cycles
        assert judge.filter_grid("hat", cands("a", "b")) == ["a", "b"]
        assert judge.select_outfit({"hat": ["h1", "h2"]}, {}) == {"hat": "h1"}
        assert judge.verify({})["verdict"] == "pass"
        assert judge.compare_batch([{}, {}]) == 0
    with pytest.raises(JudgeUnavailableError):  # it has no advisor answer
        judge.advise({})


# --- http source -----------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    # one answer per request, in order: an HTTP status, or "drop" to close
    # the connection without replying; past the list every answer is 200
    answers: list = []
    seen: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        answer = type(self).answers.pop(0) if type(self).answers else 200
        if answer == "drop":
            return
        if answer != 200:
            self.send_response(answer)
            self.end_headers()
            return
        payload = json.dumps({"verdict": "pass"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(autouse=True)
def pauses(monkeypatch):
    """Records each retry pause instead of sleeping."""
    recorded: list[float] = []
    monkeypatch.setattr("lookforge.judge.time.sleep", recorded.append)
    return recorded


@pytest.fixture
def http_judge_url():
    _Handler.seen = []
    _Handler.answers = []
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # shutdown() waits out one poll; the default 0.5 s would dominate each test
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/judge"
    server.shutdown()
    thread.join(timeout=2)


def test_http_source_round_trip(http_judge_url):
    judge = JudgeClient(HttpSource(http_judge_url, timeout=5.0))
    assert judge.verify({"look_id": "l1"})["verdict"] == "pass"
    assert _Handler.seen[0]["op"] == "verify"
    assert _Handler.seen[0]["payload"] == {"look_id": "l1"}


def test_judge_url_without_scheme_round_trip(http_judge_url, monkeypatch):
    # the scheme a spec or LOOKFORGE_JUDGE_URL leaves out is the spec's own
    hostport = http_judge_url.removeprefix("http://")
    monkeypatch.setenv(ENV_JUDGE_URL, hostport)
    for spec in (f"http:{hostport}", effective_judge_spec(None, "passthrough")):
        _Handler.seen = []
        judge = build_judge(spec, Path("."), 5.0)
        assert judge.verify({"look_id": "l1"})["verdict"] == "pass"
        assert _Handler.seen == [{"op": "verify", "payload": {"look_id": "l1"}}]


def test_http_source_retries_once(http_judge_url):
    judge = JudgeClient(HttpSource(http_judge_url, timeout=5.0))
    for first in (500, "drop"):
        _Handler.seen, _Handler.answers = [], [first]
        assert judge.verify({})["verdict"] == "pass"
        assert len(_Handler.seen) == 2


@pytest.mark.parametrize("first, want", [
    (500, [RETRY_PAUSE_S]), ("drop", [RETRY_PAUSE_S]), (400, []),
], ids=["server_error", "dropped_connection", "client_error"])
def test_http_source_pauses_before_its_retry(http_judge_url, pauses, first, want):
    _Handler.answers = [first]
    src = HttpSource(http_judge_url, timeout=5.0)
    if first == 400:
        with pytest.raises(JudgeUnavailableError):
            src.request("verify", {})
    else:
        assert src.request("verify", {})["verdict"] == "pass"
    assert pauses == want


@pytest.mark.parametrize("answers, requests", [
    ([400], 1),  # a client error is not retried
    ([503, 503], 2),
    (["drop", "drop"], 2),
], ids=["client_error", "server_error", "dropped_connection"])
def test_http_source_failures_raise_unavailable(http_judge_url, answers, requests):
    _Handler.answers = list(answers)
    src = HttpSource(http_judge_url, timeout=5.0)
    with pytest.raises(JudgeUnavailableError):
        src.request("verify", {})
    assert len(_Handler.seen) == requests


def test_http_source_unreachable_raises():
    src = HttpSource("http://127.0.0.1:1/judge", timeout=0.2)
    with pytest.raises(JudgeUnavailableError):
        src.request("verify", {})


def test_advisor_maps_unavailability():
    advisor = JudgeClient(ScriptedSource({}))
    with pytest.raises(JudgeUnavailableError):
        advisor.advise({"text": "x"})
    ok = JudgeClient(ScriptedSource({"advise": [{"add_categories": "hat"}]}))
    # the client hands the answer over unchanged; the router parses it
    assert ok.advise({}) == {"add_categories": "hat"}
