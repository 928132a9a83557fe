"""Workloads ``serve`` and ``serve-resume``: learning dialogues served by
``repro serve`` over loopback, and their in-process per-layer replay.

The server runs in its own process (``python -m repro serve``) over a
file-backed session store in a temporary directory, so the program has a
core of its own and the load generator's event loop is not part of the
measured rounds.  The load generator is a closed loop: two connections,
each running pre-generated dialogues back to back with no think time.

Every dialogue is answered from a transcript computed in-process before
the timer starts, through the step-driven ``LearningSession`` with a
``QueryOracle`` over the dialogue's intent.  The client checks each
served round against that reference, so a transcript that drifts, a
dialogue that does not finish, a learned query that is not equivalent to
its intent, or a question count beyond the paper's bound is a failed
operation, never a timed one.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import uuid
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.generators import random_qhorn1, random_role_preserving
from repro.core.normalize import equivalent
from repro.core.query import QhornQuery
from repro.core.serialize import query_from_dict
from repro.enumerate import role_preserving_bound, theorem_31_bound
from repro.interactive.session import LearningSession
from repro.oracle import QueryOracle
from repro.protocol import Finished, Round, answer_round
from repro.protocol.stdio import finished_to_dict, round_to_dict
from repro.protocol.wire import decode_answers, payload_to_dict
from repro.server import LEARNERS, SessionStore, StoredSession
from repro.server.store import ACTIVE, FINISHED, owner_token

from perfbench.measure import (
    median,
    metric,
    percentile,
    process_peak_rss_mb,
)
from perfbench.spans import Tracer

#: The dialogue mix, cycled in order so every run has the same share of
#: each (learner, n): qhorn-1 at three widths, role-preserving at two.
MIX = (
    ("qhorn1", 16),
    ("qhorn1", 24),
    ("qhorn1", 32),
    ("role-preserving", 8),
    ("role-preserving", 12),
)

#: Closed-loop connections, sized for a two-core host: one core for the
#: server, one for the load generator.
CONNECTIONS = 2

#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 7

#: Seconds to wait for the server's ``listening`` line or its exit.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Dialogue:
    """One seeded intent and the reference transcript the server must
    reproduce round by round."""

    learner: str
    intent: QhornQuery
    #: Expected wire ``questions`` list of each round, JSON-normalised.
    questions: list
    #: JSON-encoded answer list of each round.
    answers: list
    #: Questions the reference session asked.
    asked: int
    #: The paper's question bound for this intent.
    bound: float

    @property
    def n(self) -> int:
        return self.intent.n

    @property
    def open_line(self) -> bytes:
        return (
            json.dumps({"type": "open", "n": self.n, "learner": self.learner})
            + "\n"
        ).encode()

    def answers_line(self, session: str, index: int) -> bytes:
        return b'{"type": "answers", "session": "%s", "answers": %s}\n' % (
            session.encode(),
            self.answers[index],
        )


def reference_dialogue(learner: str, intent: QhornQuery) -> Dialogue:
    """Run ``intent``'s dialogue in-process through the step-driven
    session, recording what the server must send and the client answer."""
    session = LearningSession(LEARNERS[learner], n=intent.n)
    truth = QueryOracle(intent)
    questions: list = []
    answers: list = []
    event = session.start()
    while isinstance(event, Round):
        wire = [payload_to_dict(q) for q in event.questions]
        questions.append(wire)
        reply = answer_round(truth, event)
        answers.append(json.dumps(reply).encode())
        event = session.feed(reply)
    if learner == "qhorn1":
        bound = theorem_31_bound(intent.n)
    else:
        bound = role_preserving_bound(intent.n, intent.size)
    return Dialogue(
        learner=learner,
        intent=intent,
        questions=questions,
        answers=answers,
        asked=len(session.transcript),
        bound=bound,
    )


def make_dialogues(seed: int, count: int) -> list[Dialogue]:
    """``count`` seeded dialogues cycling through :data:`MIX`."""
    rng = random.Random(seed)
    dialogues = []
    for index in range(count):
        learner, n = MIX[index % len(MIX)]
        if learner == "qhorn1":
            intent = random_qhorn1(n, rng)
        else:
            intent = random_role_preserving(n, rng)
        dialogues.append(reference_dialogue(learner, intent))
    return dialogues


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` on an ephemeral loopback port over a
    file-backed store.  A context manager: leaving it always stops and
    reaps the process, whatever happened inside."""

    def __init__(self, root: str, workdir: str, name: str) -> None:
        self.root = root
        self.store_path = os.path.join(workdir, f"{name}.sqlite")
        self.log_path = os.path.join(workdir, f"{name}.log")
        self.process: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> float:
        """Start the server; returns seconds until it was listening."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--store",
            self.store_path,
        ]
        with open(self.log_path, "wb") as log:
            started = perf_counter()
            self.process = subprocess.Popen(
                command,
                cwd=self.root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        line = self._read_line(START_TIMEOUT)
        elapsed = perf_counter() - started
        message = json.loads(line)
        if message.get("type") != "listening":
            raise RuntimeError(f"unexpected server greeting: {line!r}")
        self.port = int(message["port"])
        return elapsed

    def _read_line(self, timeout: float) -> bytes:
        stdout = self.process.stdout
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("server did not start listening in time")
        line = stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited before listening: {self.log_tail()}"
            )
        return line

    def log_tail(self) -> str:
        try:
            with open(self.log_path, encoding="utf-8", errors="replace") as h:
                return h.read()[-2000:]
        except OSError:
            return ""

    def peak_rss_mb(self) -> float | None:
        if self.process is None or self.process.poll() is not None:
            return None
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> int | None:
        """SIGTERM, then SIGKILL if it lingers; always waits for exit."""
        process = self.process
        if process is None:
            return None
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            if process.stdout is not None:
                process.stdout.close()
        return process.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """What the client saw: per-op latencies of successful ops and the
    failures, counted against ops attempted."""

    round_s: list = field(default_factory=list)
    open_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    #: (dialogue, learned query JSON, reported questions, last-op seconds)
    finished: list = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


async def _read(reader) -> dict:
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


def _round_matches(message: dict, dialogue: Dialogue, index: int) -> bool:
    return (
        message.get("type") == "round"
        and message.get("index") == index
        and message.get("questions") == dialogue.questions[index]
    )


class _Connection:
    """One closed-loop client connection."""

    def __init__(self, port: int, resume: bool, tally: Tally) -> None:
        self.port = port
        self.resume = resume
        self.tally = tally
        self.reader = None
        self.writer = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None

    async def send(self, line: bytes) -> None:
        self.writer.write(line)
        await self.writer.drain()

    async def exchange(self, line: bytes) -> dict:
        await self.send(line)
        return await _read(self.reader)

    async def park_and_resume(self, session: str) -> dict:
        """quit→closed, drop the connection, connect+reconnect→round.
        Any other reply to the quit is returned for the caller's round
        check to reject."""
        closed = await self.exchange(
            b'{"type": "quit", "session": "%s"}\n' % session.encode()
        )
        if closed.get("type") != "closed":
            return closed
        await self.close()
        await self.connect()
        return await self.exchange(
            b'{"type": "reconnect", "session": "%s"}\n' % session.encode()
        )

    async def dialogue(self, dialogue: Dialogue) -> None:
        tally = self.tally
        if self.writer is None:
            await self.connect()
        started = perf_counter()
        tally.attempted += 1
        message = await self.exchange(dialogue.open_line)
        latency = perf_counter() - started
        session = message.get("session", "")
        is_open = True
        for index in range(len(dialogue.questions)):
            if not _round_matches(message, dialogue, index):
                tally.fail(
                    f"dialogue {dialogue.intent.shorthand()!r} round "
                    f"{index}: got {str(message)[:200]}"
                )
                await self.close()  # the session stays parked
                return
            (tally.open_s if is_open else tally.round_s).append(latency)
            is_open = False
            started = perf_counter()
            tally.attempted += 1
            message = await self.exchange(
                dialogue.answers_line(session, index)
            )
            if self.resume and message.get("type") == "round":
                if not _round_matches(message, dialogue, index + 1):
                    latency = perf_counter() - started
                    continue  # reported by the check above
                message = await self.park_and_resume(session)
            latency = perf_counter() - started
        if message.get("type") != "finished":
            tally.fail(
                f"dialogue {dialogue.intent.shorthand()!r} did not finish: "
                f"{str(message)[:200]}"
            )
            await self.close()
            return
        tally.finished.append(
            (dialogue, message.get("query_json"), message.get("questions"),
             latency)
        )


async def _drive(
    port: int, dialogues: list, resume: bool, connections: int
) -> tuple:
    tally = Tally()
    queue = iter(dialogues)

    async def worker() -> None:
        connection = _Connection(port, resume, tally)
        try:
            for dialogue in queue:
                await connection.dialogue(dialogue)
        finally:
            await connection.close()

    started = perf_counter()
    await asyncio.gather(*(worker() for _ in range(connections)))
    return tally, perf_counter() - started


def check_finished(tally: Tally) -> list:
    """Post-run checks of every finished dialogue (outside the timer):
    learned query equivalent to the intent, question count equal to the
    reference and within the bound.  Returns the ok ops' latencies."""
    ok = []
    for dialogue, learned_json, questions, latency in tally.finished:
        learned = query_from_dict(learned_json) if learned_json else None
        if learned is None or not equivalent(learned, dialogue.intent):
            tally.fail(
                f"learned {learned_json!r} for {dialogue.intent.shorthand()!r}"
            )
        elif questions != dialogue.asked or questions > dialogue.bound:
            tally.fail(
                f"{questions} questions for {dialogue.intent.shorthand()!r} "
                f"(reference {dialogue.asked}, bound {dialogue.bound:.1f})"
            )
        else:
            ok.append(latency)
    return ok


def serve_dialogues(
    port: int, dialogues: list, resume: bool, connections: int = CONNECTIONS
) -> tuple:
    """Drive ``dialogues`` through a running server; returns
    ``(tally, wall_s)`` with every post-run check applied."""
    tally, wall = asyncio.run(_drive(port, dialogues, resume, connections))
    tally.round_s.extend(check_finished(tally))
    return tally, wall


# ----------------------------------------------------------------------
# Timed run
# ----------------------------------------------------------------------
def dialogue_count(seconds: int, resume: bool) -> int:
    """Fixed op counts: dialogues per run scale with ``--seconds`` only,
    never with measured speed."""
    per_second = 30 if resume else 200
    return max(100, per_second * seconds)


def run(root: str, workdir: str, seed: int, seconds: int, resume: bool) -> dict:
    count = dialogue_count(seconds, resume)
    dialogues = make_dialogues(seed, count)
    warmup = make_dialogues(seed + 7919, 2 * len(MIX))
    setups = []
    for attempt in range(SETUPS):
        server = ServerProcess(root, workdir, f"server{attempt}")
        with server:
            setups.append(server.start())
            if attempt < SETUPS - 1:
                continue
            serve_dialogues(server.port, warmup, resume)
            tally, wall = serve_dialogues(server.port, dialogues, resume)
            rss = server.peak_rss_mb()
            code = server.stop()
    problems = list(tally.problems)
    failed = tally.failed
    if code != 0:
        failed += 1
        problems.append(f"server exited {code}: {server.log_tail()}")
    finished = len(tally.finished)
    questions = [q for _, _, q, _ in tally.finished]
    ops = tally.round_s + tally.open_s
    metrics = {
        "ops_per_s": metric(tally.attempted / wall, "1/s"),
        "op_ms_p50": metric(percentile(ops, 0.50) * 1e3, "ms"),
        "op_ms_p99": metric(percentile(ops, 0.99) * 1e3, "ms"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(rss, "MiB"),
        "dialogues_per_s": metric(finished / wall, "1/s"),
        "questions_per_dialogue": metric(sum(questions) / len(questions), "count"),
        "ingest_ms_p50": metric(percentile(tally.open_s, 0.50) * 1e3, "ms"),
        "ingest_ms_p90": metric(percentile(tally.open_s, 0.90) * 1e3, "ms"),
    }
    return {
        "attempted": tally.attempted,
        "failed": failed,
        "correct": failed == 0 and finished == count,
        "metrics": metrics,
        "samples": {
            "op_ms": len(ops),
            "ingest_ms": len(tally.open_s),
            "dialogues": finished,
        },
        "problems": problems,
    }


# ----------------------------------------------------------------------
# Traced replay
# ----------------------------------------------------------------------
def replay(
    dialogues: list,
    store: SessionStore,
    tracer: Tracer,
    resume: bool,
    count_bytes: bool = False,
) -> dict:
    """Serve ``dialogues`` in-process through the public functions
    ``RoundServer`` calls, in its order, with a span around each call.

    The client's side (building answer lines) stays outside every span.
    Returns the counts the per-layer table divides by, and the dialogues
    whose question count differs from the reference; ``count_bytes``
    adds the snapshot bytes each save writes, at the cost of encoding
    every snapshot once more."""
    worker = uuid.uuid4().hex[:8]
    token = owner_token(worker)
    counts = dict(ops=0, wire_bytes=0, saves=0, save_bytes=0, resumes=0,
                  replayed=0, mismatched=0)
    span = tracer.span

    def decode(line: bytes):
        with span("wire.decode"):
            return json.loads(line)

    def encode(build) -> None:
        with span("wire.encode"):
            line = json.dumps(build()) + "\n"
        counts["wire_bytes"] += len(line)

    def framed(message: dict, session_id: str) -> dict:
        message["session"] = session_id
        message["worker"] = worker
        return message

    for request, dialogue in enumerate(dialogues):
        tracer.request = request
        factory = LEARNERS[dialogue.learner]
        session_id = uuid.uuid4().hex[:12]
        counts["ops"] += 1
        decode(dialogue.open_line)
        with span("session.start"):
            session = LearningSession(factory, n=dialogue.n)
            event = session.start()
        rounds = 0
        index = 0
        while True:
            status = FINISHED if isinstance(event, Finished) else ACTIVE
            if status == ACTIVE:
                rounds += 1
            with span("session.snapshot"):
                snapshot = session.snapshot()
            record = StoredSession(
                session_id=session_id,
                learner=dialogue.learner,
                n=session.n,
                status=status,
                rounds=rounds,
                questions=len(session.transcript),
                snapshot=snapshot,
                owner=token if status == ACTIVE else None,
            )
            with span("store.save"):
                store.save(record)
            counts["saves"] += 1
            if count_bytes:
                counts["save_bytes"] += len(json.dumps(snapshot.to_dict()))
            if status == FINISHED:
                if len(session.transcript) != dialogue.asked:
                    counts["mismatched"] += 1
                encode(
                    lambda: framed(finished_to_dict(session, rounds), session_id)
                )
                break
            pending = event
            encode(
                lambda: framed(round_to_dict(pending, rounds - 1), session_id)
            )
            if resume and index > 0:
                # Park and resume: quit → release → "closed"; reconnect →
                # load, claim, replay the log, re-send the pending round.
                decode(b'{"type": "quit", "session": "%s"}' % session_id.encode())
                with span("store.release"):
                    store.release(session_id, token)
                encode(lambda: {"type": "closed", "session": session_id})
                decode(
                    b'{"type": "reconnect", "session": "%s"}'
                    % session_id.encode()
                )
                with span("store.load"):
                    stored = store.load(session_id)
                with span("store.claim"):
                    claimed = store.claim(session_id, token)
                if not claimed:
                    raise RuntimeError(f"replay could not claim {session_id}")
                with span("session.resume"):
                    session = LearningSession(factory, n=stored.n)
                    event = session.resume(stored.snapshot)
                counts["resumes"] += 1
                counts["replayed"] += len(stored.snapshot.responses)
                pending = event
                encode(
                    lambda: framed(round_to_dict(pending, rounds - 1), session_id)
                )
            line = dialogue.answers_line(session_id, index)
            counts["ops"] += 1
            with span("wire.decode"):
                answers = decode_answers(json.loads(line))
            with span("session.feed"):
                event = session.feed(answers)
            index += 1
    return counts
