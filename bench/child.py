"""One learn to completion in a fresh process: the unit the benchmark times.

    python3 child.py SRC_DIR CONFIG_JSON SPAWN_TIME MODE RUN_ID

SPAWN_TIME is the parent's time.perf_counter() just before it started
this process.  On Linux perf_counter reads CLOCK_MONOTONIC, which is
shared by all processes, so times taken here can be measured from it.
The config goes through the public CLI layer (config_from_dict, then
run_single), which writes result.json, states.json and manifest.json
into the config's output_dir.  The last stdout line is one JSON record
of the timings.  MODE is "plain", "traced" (the spans are also written
to spans.json and reduced to the per-layer metrics) or "setup" (the
process stops at the first loss evaluation and reports only setup_s).
"""

import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer, reduce_spans


class SetUpDone(Exception):
    """Raised at the first loss evaluation when only set-up is timed."""


def main(argv: list[str]) -> int:
    src, config_path, spawn_time, mode, run_id = argv[1:6]
    spawn_time = float(spawn_time)
    sys.path.insert(0, src)
    import kraussphere
    from kraussphere import cli, optimizer

    package = Path(kraussphere.__file__).resolve()
    if not package.is_relative_to(Path(src).resolve()):
        print(f"kraussphere imported from {package}, not {src}", file=sys.stderr)
        return 1

    stamps: dict[str, float] = {}
    loss = optimizer.LossContext.loss
    learn = cli.learn_quasi_inverse

    def loss_stamped(self, *args, **kwargs):
        if "first_loss" not in stamps:
            stamps["first_loss"] = time.perf_counter()
            if mode == "setup":
                raise SetUpDone
        return loss(self, *args, **kwargs)

    def learn_stamped(*args, **kwargs):
        result = learn(*args, **kwargs)
        stamps["learn_return"] = time.perf_counter()
        return result

    optimizer.LossContext.loss = loss_stamped
    cli.learn_quasi_inverse = learn_stamped
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()

    config = cli.config_from_dict(json.loads(Path(config_path).read_text()))
    try:
        result = cli.run_single(config)
    except SetUpDone:
        print(json.dumps({"run_id": run_id, "setup_s": stamps["first_loss"] - spawn_time}))
        return 0
    done = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    descent_s = stamps["learn_return"] - stamps["first_loss"]
    record = {
        "run_id": run_id,
        "wall_s": done - spawn_time,
        "setup_s": stamps["first_loss"] - spawn_time,
        "descent_s": descent_s,
        "iter_ms": 1e3 * descent_s / result.iterations_used,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    if tracer is not None:
        spans = tracer.spans
        trace_file = Path(config.output_dir) / "spans.json"
        trace_file.write_text(json.dumps({"run_id": run_id, "spans": spans}))
        record["layers"] = layer_metrics(spans, tracer.counters, record)
    print(json.dumps(record))
    return 0


def layer_metrics(spans, counters, record: dict) -> dict[str, float]:
    """Per-layer numbers of one traced learn, from its spans.

    A wrapped layer that recorded no call raises KeyError, which fails
    the traced run.
    """
    table = reduce_spans(spans)

    def ms(name, kind="total"):
        return 1e3 * table[name][kind]

    def calls(name):
        return table[name]["calls"]

    grads = calls("optimizer.grad")
    basis_mb = counters["transforms.basis_bytes"] / 2**20
    return {
        "sampling.draw_ms": ms("sampling.draw"),
        "channels.corrupt_ms": ms("channels.corrupt"),
        "transforms.basis_ms": ms("transforms.basis"),
        "transforms.basis_mb": basis_mb,
        "optimizer.context_ms": ms("optimizer.context", "self"),
        "optimizer.loss_ms": ms("optimizer.loss") / calls("optimizer.loss"),
        "optimizer.loss_calls": calls("optimizer.loss"),
        "optimizer.grad_ms": ms("optimizer.grad") / grads,
        "optimizer.grad_calls": calls("optimizer.grad"),
        "transforms.finite_transform_ms": ms("transforms.finite_transform@grad") / grads,
        "transforms.finite_transform_calls": calls("transforms.finite_transform@grad")
        / grads,
        "optimizer.grad_self_ms": ms("optimizer.grad", "self") / grads,
        "optimizer.learn_self_ms": ms("optimizer.learn", "self"),
        "transforms.channel_from_angles_ms": ms("transforms.channel_from_angles"),
        "cli.run_self_ms": ms("cli.run", "self"),
        "optimizer.grad_share": ms("optimizer.grad") / 1e3 / record["descent_s"],
        "transforms.basis_setup_share": ms("transforms.basis") / 1e3 / record["setup_s"],
        "transforms.basis_rss_share": basis_mb / record["peak_rss_mb"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
