"""The judge client: one boundary for every answer from outside the program.

The pipeline consults an external multimodal judge at four points: grid
filtering, outfit selection, look verification, and batch comparison. The
router consults an advisor once per prompt. All five operations
(:data:`JUDGE_OPS`) go through one :class:`JudgeClient` over one response
source, so tests script exact response sequences, the built-in
``passthrough`` judge is the script :data:`PASS_SCRIPT`, and production
points at an HTTP endpoint with the same code path.

Each answer is parsed in exactly one place. ``filter_grid``,
``select_outfit`` and ``compare_batch`` answers are parsed here. A
``verify`` answer is parsed by :meth:`assembly.VerificationReport.from_dict`
and an ``advise`` answer by the router, so the client hands both back
unchanged. A judge answer that does not parse raises
:class:`JudgeUnavailableError`; an advisor answer that does not parse
only adds a warning to the routing plan.

Scripted sources hold one FIFO queue of responses per operation name and
fail loudly when a queue runs dry, because a silently improvising judge
would make test failures unreadable. Set ``"cycle": true`` in the script
to repeat responses instead.
"""
from __future__ import annotations

import http.client
import json
import logging
import time
import urllib.error
import urllib.request
from pathlib import Path

from .catalog import at, check, read_doc
from .errors import JudgeUnavailableError

logger = logging.getLogger(__name__)

JUDGE_OPS = ("filter_grid", "select_outfit", "verify", "compare_batch", "advise")

DEFAULT_HTTP_TIMEOUT = 10.0
RETRY_PAUSE_S = 0.5  # before HttpSource's one retry

# The ``passthrough`` judge: keep every candidate, pick each pool's top,
# pass every look, and let each batch's first look win. It has no advisor
# answer. synth writes it as a bundle's judge.json.
PASS_SCRIPT = {
    "cycle": True,
    "filter_grid": [{"keep": "all"}],
    "select_outfit": [{"select": "top"}],
    "verify": [{"verdict": "pass"}],
    "compare_batch": [{"winner": 0}],
}


class ScriptedSource:
    """Replays pre-written responses, one queue per operation."""

    def __init__(self, responses: dict | str | Path):
        name = "judge script"
        if isinstance(responses, (str, Path)):
            name, responses = Path(responses).name, read_doc(responses)
        check(responses, dict, name)
        self._cycle = check(responses.get("cycle", False), bool, at(name, "cycle"))
        self._queues: dict[str, list] = {}
        for op, seq in responses.items():
            if op == "cycle":
                continue
            if op not in JUDGE_OPS:
                raise ValueError(f"{at(name, op)} is not a judge operation")
            self._queues[op] = list(seq) if isinstance(seq, list) else [seq]
        self.calls: list[tuple[str, dict]] = []

    def request(self, op: str, payload: dict) -> dict:
        self.calls.append((op, payload))
        queue = self._queues.get(op)
        if not queue:
            raise JudgeUnavailableError(f"scripted source has no response for {op!r}")
        resp = queue.pop(0)
        if self._cycle:
            queue.append(resp)
        if not isinstance(resp, dict):
            raise JudgeUnavailableError(f"scripted response for {op!r} is not an object")
        return resp


class HttpSource:
    """POSTs ``{"op": ..., "payload": ...}`` as JSON; retries a transport failure, a 5xx
    or an unreadable body once, after ``RETRY_PAUSE_S``, and a 4xx never."""

    def __init__(self, url: str, timeout: float = DEFAULT_HTTP_TIMEOUT):
        self.url = url
        self.timeout = timeout

    def request(self, op: str, payload: dict) -> dict:
        body = json.dumps({"op": op, "payload": payload}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(2):
            req = urllib.request.Request(
                self.url, data=body, headers={"Content-Type": "application/json"}
            )
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    doc = json.loads(resp.read().decode("utf-8"))
                if not isinstance(doc, dict):
                    raise JudgeUnavailableError(
                        f"judge endpoint returned a non-object for {op!r}"
                    )
                return doc
            except urllib.error.HTTPError as exc:
                last_error = exc
                if exc.code < 500:
                    break
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_error = exc
            if attempt == 0:
                logger.warning("judge request %r failed (%s); retrying once", op, last_error)
                time.sleep(RETRY_PAUSE_S)
        raise JudgeUnavailableError(f"judge endpoint failed for {op!r}: {last_error}")


class JudgeClient:
    """The judge and advisor calls over one response source."""

    def __init__(self, source):
        self._source = source

    # Canned response forms let a short script cover a long run:
    #   filter_grid    {"keep": "all"} or {"keep": [asset ids]}
    #   select_outfit  {"select": "top"} or {"select": {category: asset id}}
    #   verify         {"verdict": "pass"} or
    #                  {"verdict": "fail", "issues": [...], "edits": [...]}
    #   compare_batch  {"winner": index} or {"winner": "max_look_id"}
    #   advise         {"add_categories": [category ids]}

    def filter_grid(self, category_id: str, candidates) -> list[str]:
        payload = {
            "category_id": category_id,
            "candidates": [c.to_dict() for c in candidates],
        }
        resp = self._source.request("filter_grid", payload)
        keep = resp.get("keep")
        if keep == "all":
            return [c.asset_id for c in candidates]
        if isinstance(keep, list) and all(isinstance(a, str) for a in keep):
            return keep
        raise JudgeUnavailableError(f"malformed filter_grid response: {resp!r}")

    def select_outfit(self, pools: dict[str, list[str]], context: dict) -> dict[str, str]:
        payload = {"pools": pools, "context": context}
        resp = self._source.request("select_outfit", payload)
        select = resp.get("select")
        if select == "top":
            return {cat: ids[0] for cat, ids in pools.items() if ids}
        if isinstance(select, dict):
            return {str(k): str(v) for k, v in select.items()}
        raise JudgeUnavailableError(f"malformed select_outfit response: {resp!r}")

    def verify(self, look_doc: dict) -> dict:
        """The answer as sent; ``VerificationReport.from_dict`` parses it."""
        return self._source.request("verify", look_doc)

    def compare_batch(self, look_docs: list[dict]) -> int:
        payload = {"looks": look_docs}
        resp = self._source.request("compare_batch", payload)
        winner = resp.get("winner")
        if winner == "max_look_id":
            ids = [str(doc.get("look_id", "")) for doc in look_docs]
            return ids.index(max(ids))
        if isinstance(winner, int) and not isinstance(winner, bool):
            return winner
        raise JudgeUnavailableError(f"malformed compare_batch response: {resp!r}")

    def advise(self, payload: dict) -> dict:
        """The answer as sent; the router parses it."""
        return self._source.request("advise", payload)
