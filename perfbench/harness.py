"""The closed-loop question runner shared by every workload.

A workload is a fixed list of questions.  A run asks them in order, one
at a time, and always finishes the pass it is in: it stops after the
first whole pass that ends ``seconds`` or more after the first pass
began, once it has asked ``min_passes`` passes.  So every run asks the
same mix of questions, whatever its length, and percentiles never
depend on where a clock happened to cut a pass.

Only the fdkit call is timed.  Checking an answer is the benchmark's own
work and runs with the clock stopped, and so does a full garbage
collection before every call: each call then starts from the same
collector state and pays only for the collections its own allocations
trigger, not for garbage an earlier question or check left behind.

Every answer's time is kept by question (see :meth:`Outcome.typical`).
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from reference import Mismatch

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env() -> dict:
    """Environment for child interpreters: fdkit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Question:
    """One call into fdkit and the check of its answer.

    ``label`` names the question class; ``check`` raises
    :class:`reference.Mismatch` on a wrong answer.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Outcome:
    by_label: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    timed: float = 0.0
    pass_seconds: list = field(default_factory=list)
    pass_answers: list = field(default_factory=list)
    answers: list = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_seconds)

    @property
    def median_questions_per_s(self) -> float:
        """Answers per second of the median pass."""
        return self.pass_answers[0] / statistics.median(self.pass_seconds)

    def absorb(self, other: "Outcome") -> None:
        """Count ``other``'s questions, failures and wrong answers in this
        outcome, leaving its times out."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.wrong += other.wrong

    def pooled(self) -> list:
        """Every answer's time, from every pass."""
        return [t for times in self.answers for t in times]

    def typical(self) -> list:
        """Each answered question's median time over the passes.

        The machine's speed changes from second to second and from
        minute to minute.  A question's median over the passes of a run
        follows the run's usual speed; its fastest answer follows the
        rare moments when nothing else ran, and moves far more from run
        to run.
        """
        return [statistics.median(times) for times in self.answers if times]


def run_passes(
    questions: list,
    seconds: float,
    min_passes: int = 1,
    on_question: Optional[Callable[[str], None]] = None,
) -> Outcome:
    """Ask whole passes over ``questions`` until both the time since the
    first pass began and the number of passes reach their floors."""
    out = Outcome(answers=[[] for _ in questions])
    clock = time.perf_counter
    began = clock()
    while True:
        before = out.timed
        answered = 0
        for index, q in enumerate(questions):
            if on_question is not None:
                on_question(f"{out.passes}:{index}")
            out.attempted += 1
            gc.collect()
            start = clock()
            try:
                answer = q.call()
            except Exception as exc:  # an fdkit failure is counted, not fatal
                out.timed += clock() - start
                out.failed += 1
                out.failures.append(f"{q.label}: {exc!r}")
                continue
            elapsed = clock() - start
            out.timed += elapsed
            answered += 1
            out.answers[index].append(elapsed)
            out.by_label.setdefault(q.label, []).append(elapsed)
            try:
                q.check(answer)
            except Mismatch as exc:
                out.wrong.append(f"{q.label}: {exc}")
            except Exception as exc:  # a malformed answer is a wrong answer
                out.wrong.append(f"{q.label}: unreadable answer: {exc!r}")
        out.pass_seconds.append(out.timed - before)
        out.pass_answers.append(answered)
        if clock() - began >= seconds and out.passes >= min_passes:
            return out


def percentile(values: list, p: int) -> float:
    """The ``p``-th percentile (``p`` in 1..99) by the exclusive method of
    :func:`statistics.quantiles`."""
    return statistics.quantiles(values, n=100, method="exclusive")[p - 1]
