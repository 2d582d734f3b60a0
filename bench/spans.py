"""Spans around calls into kraussphere's public functions.

The traced child process replaces module attributes with wrappers that
record one span per call: id, name, start, end and the id of the
enclosing span (-1 at top level); the spans of one learn share its run
id.  Spans stay in memory until the learn is over, are written out
once, and are reduced to per-layer totals and self times.  The wrappers
keep one span stack, so they assume the program runs on one thread; the
benchmark unsets KRAUS_SPHERE_THREADS for exactly that reason.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # One column per field rather than one list per span: floats and
        # ints are not tracked by the garbage collector, so a long run's
        # spans do not make every collection slower.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        A missing attribute raises AttributeError: a layer that the
        program no longer has must fail the traced run, not read as zero.
        """
        inner = getattr(owner, attr)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = inner(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer table reports.

        Each function is wrapped where its caller looks it up: the
        optimizer and the CLI import names from their sibling modules.
        """
        from kraussphere import cli, optimizer, sampling, transforms

        self.wrap(cli, "run_single", "cli.run")
        self.wrap(sampling.SampleConfig, "draw", "sampling.draw")
        self.wrap(cli, "learn_quasi_inverse", "optimizer.learn")
        self.wrap(optimizer, "apply_channel_batch", "channels.corrupt")
        self.wrap(optimizer.LossContext, "__init__", "optimizer.context")
        self.wrap(optimizer, "generator_basis", "transforms.basis", _count_basis)
        self.wrap(optimizer.LossContext, "loss", "optimizer.loss")
        self.wrap(optimizer.LossContext, "gradient", "optimizer.grad")
        self.wrap(optimizer, "finite_transform", "transforms.finite_transform")
        self.wrap(transforms, "finite_transform", "transforms.finite_transform")
        self.wrap(optimizer, "channel_from_angles", "transforms.channel_from_angles")

    @property
    def spans(self) -> list[list]:
        """Every span as [id, name, start, end, parent]."""
        columns = (self.names, self.starts, self.ends, self.parents)
        return [[i, *fields] for i, fields in enumerate(zip(*columns))]


def _count_basis(tracer: Tracer, basis) -> None:
    tracer.counters["transforms.basis_bytes"] += sum(
        g.matrix.nbytes + g.projector.nbytes for g in basis
    )


def reduce_spans(spans) -> dict[str, dict]:
    """Per span name: call count, total seconds, and self seconds.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.  Spans named transforms.finite_transform whose
    parent is a gradient are also totalled under the name
    ``transforms.finite_transform@grad``.
    """
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for sid, name, start, end, parent in spans:
        keys = [name]
        if parent >= 0 and spans[parent][1] == "optimizer.grad":
            keys.append(name + "@grad")
        for key in keys:
            row = table[key]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child_time[sid]
    return dict(table)
