"""Spans and Spark job counters recorded from outside the program.

A span holds a name, start, end, the index of the span that encloses it
and the id of the call (one pattern x planner) it belongs to. Spans live
in memory and are written as JSON when the run ends. Job and task counts
come from a Spark job group set around an engine call and read back from
``SparkContext.statusTracker()``.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, call: int | None = None, **attrs):
        if not self.enabled:
            yield {}
            return
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "call": call,
            **attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({**header, "spans": self.spans}, f)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s)
    return [duration(s) - c for s, c in zip(spans, child)]


class JobCounter:
    """Counts the Spark jobs and tasks that one engine call issues."""

    def __init__(self, sc):
        self.sc = sc
        self.tracker = sc.statusTracker()

    @contextmanager
    def group(self, group_id: str):
        self.sc.setJobGroup(group_id, group_id)
        try:
            yield
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    def count(self, group_id: str) -> tuple[int, int]:
        jobs = self.tracker.getJobIdsForGroup(group_id)
        tasks = 0
        for jid in jobs:
            info = self.tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                stage = self.tracker.getStageInfo(sid)
                tasks += stage.numTasks if stage else 0
        return len(jobs), tasks
