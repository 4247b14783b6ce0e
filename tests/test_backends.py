"""Backend tests: scripted policies and their seeded statistics, the HTTP
client against a local stub, and transcript record/replay."""

import json
import math
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from twinloop.agents import DecisionContext, Thresholds
from twinloop.backends import (
    BackendConfig,
    Exchange,
    HttpBackend,
    LatencySpec,
    ReplayBackend,
    ScriptedBackend,
    ScriptedPolicy,
    TranscriptRecorder,
    load_replay,
)
from twinloop.errors import (
    BackendError,
    ConfigError,
    InvalidInput,
    LogFormatError,
)
from twinloop.orchestrator import RunConfig, RunLogWriter, run_loop
from twinloop.plantio import HeaterAction, TwinPlant
from twinloop.twin import TwinParams

TH = Thresholds()
ON = HeaterAction.ON
OFF = HeaterAction.OFF

# Emulated single-attempt inference latencies (s) for popular hosted models,
# derived from observed decision throughput over a 40-minute session.
MODEL_LATENCY_PROFILES = {
    "gpt-3.5": 5.67,
    "gpt-4o-mini": 6.09,
    "gpt-4o": 4.33,
    "gpt-4": 18.75,
}


def ctx(t, prev=OFF, has_feedback=False, timestamp=0.0):
    return DecisionContext(t, prev, TH, has_feedback, timestamp)


def latencies(spec, calls=3):
    """The latencies of a scripted backend's first ``calls`` exchanges."""
    backend = ScriptedBackend(ScriptedPolicy(), spec)
    return [backend.complete("s", "u", ctx(26.0)).latency for _ in range(calls)]


def assert_spent(replay, calls):
    """The replay has answered ``calls`` calls, which its transcript holds."""
    with pytest.raises(ConfigError, match=f"holds {calls} exchanges; call {calls + 1} has no recording"):
        replay.complete("s", "u", ctx(26.0))


class TestScriptedOracle:
    def test_answers_expected_action(self):
        backend = ScriptedBackend(ScriptedPolicy(kind="oracle"))
        assert backend.complete("s", "u", ctx(28.0, ON)).response_text == "ACTION: OFF"
        assert backend.complete("s", "u", ctx(24.0, OFF)).response_text == "ACTION: ON"
        assert backend.complete("s", "u", ctx(26.0, ON)).response_text == "ACTION: ON"

    def test_always_wrong_answers_the_opposite(self):
        backend = ScriptedBackend(ScriptedPolicy(kind="always_wrong"))
        assert backend.complete("s", "u", ctx(28.0, ON)).response_text == "ACTION: ON"
        assert backend.complete("s", "u", ctx(24.0, OFF)).response_text == "ACTION: OFF"


class TestScriptedFlip:
    def test_degenerate_probabilities(self):
        backend = ScriptedBackend(
            ScriptedPolicy(kind="flip", p_wrong_first=1.0, p_correct_on_feedback=1.0)
        )
        for _ in range(20):
            first = backend.complete("s", "u", ctx(24.0, OFF, has_feedback=False))
            assert first.response_text == "ACTION: OFF"  # wrong on purpose
            retry = backend.complete("s", "u", ctx(24.0, OFF, has_feedback=True))
            assert retry.response_text == "ACTION: ON"

    def test_first_attempt_wrong_fraction(self):
        backend = ScriptedBackend(
            ScriptedPolicy(kind="flip", p_wrong_first=0.4, p_correct_on_feedback=0.63, seed=7)
        )
        wrong = 0
        for _ in range(10_000):
            reply = backend.complete("s", "u", ctx(28.0, ON, has_feedback=False))
            if reply.response_text != "ACTION: OFF":
                wrong += 1
        assert wrong / 10_000 == pytest.approx(0.40, abs=0.02)

    @pytest.mark.parametrize("max_reprompts", [1, 3])
    def test_long_run_accuracy_with_reprompts(self, max_reprompts):
        p, q = 0.4, 0.63
        backend = ScriptedBackend(
            ScriptedPolicy(kind="flip", p_wrong_first=p, p_correct_on_feedback=q, seed=11)
        )
        episodes = 10_000
        first_pass = 0
        rescued = 0
        for _ in range(episodes):
            reply = backend.complete("s", "u", ctx(24.0, OFF, has_feedback=False))
            if reply.response_text == "ACTION: ON":
                first_pass += 1
                continue
            for _ in range(max_reprompts):
                reply = backend.complete("s", "u", ctx(24.0, OFF, has_feedback=True))
                if reply.response_text == "ACTION: ON":
                    rescued += 1
                    break
        assert first_pass / episodes == pytest.approx(1.0 - p, abs=0.02)
        expected_with = 1.0 - p * (1.0 - q) ** max_reprompts
        assert (first_pass + rescued) / episodes == pytest.approx(expected_with, abs=0.02)

    def test_identical_seeds_identical_streams(self):
        def stream(seed):
            backend = ScriptedBackend(
                ScriptedPolicy(kind="flip", p_wrong_first=0.5, p_correct_on_feedback=0.5, seed=seed)
            )
            return [
                backend.complete("s", "u", ctx(24.0, OFF, has_feedback=i % 3 == 0)).response_text
                for i in range(200)
            ]

        assert stream(42) == stream(42)
        assert stream(42) != stream(43)

    def test_latency_injection_never_alters_decisions(self):
        policy = ScriptedPolicy(kind="flip", p_wrong_first=0.5, p_correct_on_feedback=0.5, seed=5)
        silent = ScriptedBackend(policy)
        delayed = ScriptedBackend(policy, LatencySpec(kind="lognormal", mu=1.0, sigma=0.5, seed=99))
        for i in range(500):
            c = ctx(28.0 if i % 2 else 24.0, OFF, has_feedback=i % 5 == 0)
            a = silent.complete("s", "u", c)
            b = delayed.complete("s", "u", c)
            assert a.response_text == b.response_text
            assert a.latency == 0.0
            assert b.latency > 0.0

    def test_probability_bounds_checked(self):
        with pytest.raises(InvalidInput):
            ScriptedPolicy(kind="flip", p_wrong_first=1.2)
        with pytest.raises(InvalidInput):
            ScriptedPolicy(kind="maybe")


class TestLatencySampler:
    """Injected latency, as a scripted backend draws it for each exchange."""

    def test_fixed(self):
        assert latencies(LatencySpec(kind="fixed", seconds=5.67)) == [5.67, 5.67, 5.67]

    def test_none(self):
        assert latencies(LatencySpec()) == latencies(None) == [0.0, 0.0, 0.0]

    def test_lognormal_seeded(self):
        draws = latencies(LatencySpec(kind="lognormal", mu=1.5, sigma=0.3, seed=3), 50)
        assert draws == latencies(LatencySpec(kind="lognormal", mu=1.5, sigma=0.3, seed=3), 50)
        assert all(d > 0 for d in draws)
        assert draws != latencies(LatencySpec(kind="lognormal", mu=1.5, sigma=0.3, seed=4), 50)

    def test_model_profiles_cover_forty_minute_throughput(self):
        # 2400 s / samples-per-run for each emulated model
        assert MODEL_LATENCY_PROFILES["gpt-3.5"] == pytest.approx(2400 / 423, abs=0.01)
        assert MODEL_LATENCY_PROFILES["gpt-4o-mini"] == pytest.approx(2400 / 394, abs=0.01)
        assert MODEL_LATENCY_PROFILES["gpt-4o"] == pytest.approx(2400 / 554, abs=0.01)
        assert MODEL_LATENCY_PROFILES["gpt-4"] == pytest.approx(2400 / 128, abs=0.01)

    def test_negative_latency_rejected(self):
        with pytest.raises(InvalidInput):
            Exchange("s", "u", "r", -0.1, "m", 0.0)

    def test_an_infinite_fixed_latency_is_refused_with_the_config(self):
        # not at the run's first call, where the exchange refuses it
        with pytest.raises(InvalidInput):
            LatencySpec(kind="fixed", seconds=math.inf)
        LatencySpec(kind="fixed", seconds=1e308)

    def test_lognormal_that_can_overflow_rejected(self):
        # log(max float) is about 709.78: 30 sigma above mu must stay below it
        latencies(LatencySpec(kind="lognormal", mu=700.0, sigma=0.3), 1)
        for mu, sigma in ((700.0, 0.4), (1000.0, 1.0), (709.8, 0.0), (float("nan"), 0.5)):
            with pytest.raises(InvalidInput, match="mu \\+ 30 \\* sigma"):
                LatencySpec(kind="lognormal", mu=mu, sigma=sigma)
        LatencySpec(kind="fixed", mu=1000.0)  # mu is read by the lognormal kind only


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append((self.path, body))
        kind, payload = self.server.script.pop(0) if self.server.script else ("ok", "ACTION: OFF")
        try:
            if kind == "sleep":
                time.sleep(payload)
                kind, payload = "ok", "ACTION: OFF"
            if kind == "ok":
                reply = {"choices": [{"message": {"content": payload}}]}
                raw = json.dumps(reply).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)
            elif kind == "status":
                self.send_response(payload)
                self.send_header("Content-Length", "0")
                self.end_headers()
            elif kind == "garbage":
                raw = payload.encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def http_config(server, timeout=5.0):
    host, port = server.server_address
    return BackendConfig(
        kind="http", base_url=f"http://{host}:{port}", model="test-model", timeout=timeout
    )


class TestHttpBackend:
    def test_returns_stubbed_content(self, stub_server, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        stub_server.script.append(("ok", "ACTION: OFF"))
        backend = HttpBackend(http_config(stub_server))
        exchange = backend.complete("sys text", "user text", ctx(28.0, ON))
        assert exchange.response_text == "ACTION: OFF"
        assert exchange.latency >= 0.0
        assert exchange.model == "test-model"
        path, body = stub_server.requests[0]
        assert path == "/v1/chat/completions"
        assert body["model"] == "test-model"
        assert body["max_tokens"] == 512
        assert body["messages"][0] == {"role": "system", "content": "sys text"}
        assert body["messages"][1] == {"role": "user", "content": "user text"}

    def test_http_error_statuses_are_not_retried(self, stub_server, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        stub_server.script.extend([("status", 500), ("status", 500)])
        backend = HttpBackend(http_config(stub_server))
        with pytest.raises(BackendError) as excinfo:
            backend.complete("s", "u", ctx(28.0, ON))
        assert excinfo.value.status == 500
        assert len(stub_server.requests) == 1

    def test_timeout_retries_exactly_once(self, stub_server, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        stub_server.script.extend([("sleep", 1.5), ("ok", "ACTION: ON")])
        backend = HttpBackend(http_config(stub_server, timeout=0.4))
        exchange = backend.complete("s", "u", ctx(24.0, OFF))
        assert exchange.response_text == "ACTION: ON"
        assert len(stub_server.requests) == 2

    def test_second_timeout_raises(self, stub_server, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        stub_server.script.extend([("sleep", 1.5), ("sleep", 1.5)])
        backend = HttpBackend(http_config(stub_server, timeout=0.4))
        with pytest.raises(BackendError):
            backend.complete("s", "u", ctx(24.0, OFF))
        assert len(stub_server.requests) == 2

    def test_a_refused_connection_is_one_attempt_and_a_transport_failure(self, monkeypatch):
        # urlopen wraps the refused connect in a URLError
        monkeypatch.setenv("LLM_API_KEY", "k")
        opened, urlopen = [], urllib.request.urlopen

        def counted(*args, **kwargs):
            opened.append(1)
            return urlopen(*args, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", counted)
        with socket.socket() as unheard:  # bound, not listening: a connect is refused
            unheard.bind(("127.0.0.1", 0))
            host, port = unheard.getsockname()
            backend = HttpBackend(BackendConfig(kind="http", base_url=f"http://{host}:{port}", model="m"))
            with pytest.raises(BackendError, match="^transport failure: <urlopen error ") as excinfo:
                backend.complete("s", "u", ctx(24.0, OFF))
        assert isinstance(excinfo.value.__cause__, urllib.error.URLError)
        assert excinfo.value.status is None
        assert opened == [1]

    def test_a_connect_timeout_is_retried_once(self, monkeypatch):
        # urlopen wraps a connect timeout in a URLError whose reason is the TimeoutError
        monkeypatch.setenv("LLM_API_KEY", "k")
        opened = []

        def times_out(*args, **kwargs):
            opened.append(1)
            raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr(urllib.request, "urlopen", times_out)
        backend = HttpBackend(BackendConfig(kind="http", base_url="http://127.0.0.1:9", model="m"))
        with pytest.raises(BackendError, match="^request timed out after one retry$"):
            backend.complete("s", "u", ctx(24.0, OFF))
        assert opened == [1, 1]

    def test_malformed_body_raises(self, stub_server, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        stub_server.script.append(("garbage", "not json at all"))
        backend = HttpBackend(http_config(stub_server))
        with pytest.raises(BackendError):
            backend.complete("s", "u", ctx(24.0, OFF))

    @pytest.mark.parametrize(
        "body, detail",
        [
            ("[" * 100000, "JSON nested too deeply"),
            ('{"choices": [{"message": {"content": "ACTION: ON"}}], "usage": {"total_tokens": NaN}}',
             "NaN is not a finite JSON number"),
        ],
        ids=["deep-nesting", "NaN"],
    )
    def test_a_body_of_deep_nesting_or_nan_is_a_malformed_reply(self, stub_server, monkeypatch, body, detail):
        # decoded as every other JSON input: a failed call, never a RecursionError
        monkeypatch.setenv("LLM_API_KEY", "k")
        stub_server.script.append(("garbage", body))
        backend = HttpBackend(http_config(stub_server))
        with pytest.raises(BackendError, match=f"^malformed response body: {detail}$"):
            backend.complete("s", "u", ctx(24.0, OFF))

    def test_a_number_beyond_a_float_in_a_field_never_read_is_no_failure(self, stub_server, monkeypatch):
        # the body reads as every JSON text does: 1e999 is an infinity, refused only where a field holds it
        monkeypatch.setenv("LLM_API_KEY", "k")
        body = '{"choices": [{"message": {"content": "ACTION: ON"}}], "usage": {"total_tokens": 1e999}}'
        stub_server.script.append(("garbage", body))
        backend = HttpBackend(http_config(stub_server))
        assert backend.complete("s", "u", ctx(24.0, OFF)).response_text == "ACTION: ON"

    def test_a_reply_whose_content_is_not_text_is_malformed(self, stub_server, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        stub_server.script.append(("ok", 7))
        backend = HttpBackend(http_config(stub_server))
        with pytest.raises(BackendError, match="^malformed response body: content is not text$"):
            backend.complete("s", "u", ctx(24.0, OFF))

    def test_missing_api_key(self, stub_server, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        with pytest.raises(ConfigError):
            HttpBackend(http_config(stub_server))

    @pytest.mark.parametrize("key", ["sk-abc\n", "sk-\tabc", "sk-abc\u00e9"], ids=["newline", "tab", "non-ascii"])
    def test_an_api_key_that_is_not_printable_ascii_is_refused(self, stub_server, monkeypatch, key):
        # a header may not carry it, so it is refused with the config, not at the first call
        monkeypatch.setenv("LLM_API_KEY", key)
        with pytest.raises(ConfigError, match=r"^API key in \$LLM_API_KEY must be printable ASCII$"):
            HttpBackend(http_config(stub_server))
        assert stub_server.requests == []

    def test_api_key_env_override(self, stub_server, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        monkeypatch.setenv("OTHER_KEY", "k2")
        config = BackendConfig(
            kind="http",
            base_url=f"http://{stub_server.server_address[0]}:{stub_server.server_address[1]}",
            model="m",
            api_key_env="OTHER_KEY",
        )
        stub_server.script.append(("ok", "ACTION: OFF"))
        backend = HttpBackend(config)
        assert backend.complete("s", "u", ctx(28.0, ON)).response_text == "ACTION: OFF"

    def test_an_infinite_temperature_is_refused_with_the_config(self):
        # a request body cannot carry it: JSON has no Infinity
        with pytest.raises(InvalidInput):
            BackendConfig(kind="http", base_url="http://x", model="m", temperature=math.inf)
        BackendConfig(kind="http", base_url="http://x", model="m", temperature=1e308)

    def test_config_requires_base_url_and_model(self):
        with pytest.raises(InvalidInput):
            BackendConfig(kind="http", model="m")
        with pytest.raises(InvalidInput):
            BackendConfig(kind="http", base_url="http://x")


# A value other than the default for every field a kind may read, by the kind that reads it.
FIELDS_READ = {
    "http": {"base_url": "http://x", "model": "m", "temperature": 0.5, "timeout": 5.0, "api_key_env": "KEY"},
    "scripted": {"script": ScriptedPolicy(kind="flip"), "latency": LatencySpec(kind="fixed", seconds=1.0)},
    "replay": {"transcript_path": "t.jsonl"},
}


@pytest.mark.parametrize("kind", list(FIELDS_READ))
def test_a_backend_kind_refuses_a_value_in_a_field_it_does_not_read(kind):
    own = FIELDS_READ[kind]
    assert BackendConfig(kind=kind, **own).kind == kind
    for other in FIELDS_READ.keys() - {kind}:
        for name, value in FIELDS_READ[other].items():
            with pytest.raises(InvalidInput, match=f"^'{name}' does not apply to a {kind} backend$"):
                BackendConfig(kind=kind, **own, **{name: value})
            # at its default a field is no setting
            BackendConfig(kind=kind, **own, **{name: getattr(BackendConfig(), name)})


class TestRecordReplay:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "session.jsonl"
        inner = ScriptedBackend(ScriptedPolicy(kind="oracle"), LatencySpec(kind="fixed", seconds=2.5))
        recorder = TranscriptRecorder(inner, path)
        contexts = [ctx(28.0, ON, timestamp=0.0), ctx(24.0, OFF, timestamp=2.5), ctx(26.0, ON, timestamp=5.0)]
        recorded = [recorder.complete("s", f"u{i}", c).response_text for i, c in enumerate(contexts)]
        recorder.close()

        replay = load_replay(path)
        replayed = [replay.complete("s2", f"v{i}", c) for i, c in enumerate(contexts)]
        assert [e.response_text for e in replayed] == recorded
        assert all(e.latency == 2.5 for e in replayed)
        assert_spent(replay, 3)

    def test_exhaustion(self, tmp_path):
        path = tmp_path / "short.jsonl"
        recorder = TranscriptRecorder(ScriptedBackend(ScriptedPolicy(kind="oracle")), path)
        recorder.complete("s", "u", ctx(28.0, ON))
        recorder.close()
        replay = load_replay(path)
        replay.complete("s", "u", ctx(28.0, ON))
        with pytest.raises(ConfigError):
            replay.complete("s", "u", ctx(28.0, ON))

    def test_replay_ignores_prompt_content(self, tmp_path):
        path = tmp_path / "session.jsonl"
        recorder = TranscriptRecorder(ScriptedBackend(ScriptedPolicy(kind="oracle")), path)
        recorder.complete("s", "u", ctx(28.0, ON))
        recorder.close()
        replay = load_replay(path)
        exchange = replay.complete("completely", "different", ctx(20.0, OFF))
        assert exchange.response_text == "ACTION: OFF"

    def test_missing_transcript_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_replay(tmp_path / "nope.jsonl")

    def test_malformed_transcript_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"response_text": "ACTION: ON", "latency": 1.0}\nnot json\n')
        with pytest.raises(LogFormatError) as excinfo:
            load_replay(path)
        assert excinfo.value.line_number == 2

    def test_a_latency_beyond_a_float_is_refused_with_its_line(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text(
            '{"response_text": "ACTION: ON", "latency": 1.0}\n{"response_text": "ACTION: ON", "latency": 1e999}\n'
        )
        with pytest.raises(LogFormatError) as excinfo:
            load_replay(path)
        assert excinfo.value.line_number == 2

    def test_a_blank_line_between_two_entries_is_skipped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text(
            '{"response_text": "ACTION: ON", "latency": 1.0}\n \t\r\n'
            '{"error": "stub outage", "elapsed": 0.5, "status": 503}\n'
        )
        replay = load_replay(path)
        assert replay.complete("s", "u", ctx(24.0, OFF)).response_text == "ACTION: ON"
        with pytest.raises(BackendError, match="^stub outage$"):
            replay.complete("s", "u", ctx(24.0, OFF))
        assert_spent(replay, 2)

    def test_direct_replay_entries(self):
        replay = ReplayBackend([{"response_text": "ACTION: ON", "latency": 0.5}])
        assert replay.complete("s", "u", ctx(24.0, OFF)).latency == 0.5

    def test_failed_call_is_recorded_and_raised_again(self, tmp_path):
        path = tmp_path / "session.jsonl"
        recorder = TranscriptRecorder(FailingEvery(1, ScriptedBackend(ScriptedPolicy(kind="oracle"))), path)
        with pytest.raises(BackendError) as recorded:
            recorder.complete("s", "u", ctx(28.0, ON))
        recorder.close()
        replay = load_replay(path)
        with pytest.raises(BackendError) as replayed:
            replay.complete("s", "u", ctx(28.0, ON))
        for exc in (recorded.value, replayed.value):
            assert (str(exc), exc.status, exc.elapsed) == ("stub outage", 503, 1.25)
        assert_spent(replay, 1)

    def test_transcript_line_without_reply_or_error_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"error": "stub outage", "status": 503}\n')
        with pytest.raises(LogFormatError):
            load_replay(path)

    def test_replay_of_a_run_with_failed_calls_gives_the_same_log(self, tmp_path):
        config = RunConfig(duration=600.0)

        def run(backend, log_path):
            with RunLogWriter(log_path, config) as writer:
                return run_loop(TwinPlant(TwinParams()), backend, config, on_episode=writer.write_episode)

        flip = ScriptedBackend(
            ScriptedPolicy(kind="flip", p_wrong_first=0.4, p_correct_on_feedback=0.63, seed=3),
            LatencySpec(kind="fixed", seconds=5.67),
        )
        recorder = TranscriptRecorder(FailingEvery(7, flip), tmp_path / "session.jsonl")
        episodes = run(recorder, tmp_path / "recorded.jsonl")
        recorder.close()
        assert any(a.error == "backend_error" for e in episodes for a in e.attempts)

        replay = load_replay(tmp_path / "session.jsonl")
        run(replay, tmp_path / "replayed.jsonl")
        assert_spent(replay, len((tmp_path / "session.jsonl").read_bytes().splitlines()))
        assert (tmp_path / "replayed.jsonl").read_bytes() == (tmp_path / "recorded.jsonl").read_bytes()


class FailingEvery:
    """Wraps a backend; every ``n``-th call fails after 1.25 s with HTTP 503."""

    def __init__(self, n, inner):
        self.n = n
        self.inner = inner
        self.calls = 0

    def complete(self, system_text, user_text, ctx):
        self.calls += 1
        if self.calls % self.n == 0:
            raise BackendError("stub outage", status=503, elapsed=1.25)
        return self.inner.complete(system_text, user_text, ctx)
