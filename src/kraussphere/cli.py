"""Experiment front end.

Config-driven runs: sample an ensemble, corrupt it through a noise
channel, learn the quasi-inverse, and persist results.  Subcommands:

    learn     one quasi-inverse run -> result.json, states.json, manifest.json
    curve     one run per noise strength in p_grid -> curve.csv
    validate  report completeness/unitarity of a saved channel file
    sample    emit a state ensemble -> states.json

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import ChannelSpec
from .geometry import KrausSet
from .optimizer import (
    NonFiniteLossError,
    OptimizerConfig,
    QuasiInverseResult,
    dominant_kraus_report,
    learn_quasi_inverse,
)
from .sampling import SampleConfig, states_from_lists, states_to_lists

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

CSV_HEADER = "p,fidelity_before,fidelity_after,iterations_used,wall_time_seconds"

# optimizer fields of older configs that no longer mean anything (the
# central-difference step and its thread count): read, dropped, and
# listed in the manifest as ignored
RETIRED_OPTIMIZER_FIELDS = ("epsilon", "threads")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class CurveRow:
    p: float
    fidelity_before: float
    fidelity_after: float
    iterations_used: int
    wall_time_seconds: float

    def to_csv_line(self) -> str:
        return ",".join(
            [
                _sig6(self.p),
                _sig6(self.fidelity_before),
                _sig6(self.fidelity_after),
                str(self.iterations_used),
                _sig6(self.wall_time_seconds),
            ]
        )


def _sig6(x: float) -> str:
    return f"{x:.6g}"


@dataclass
class ExperimentConfig:
    channel: ChannelSpec
    sample: SampleConfig
    optimizer: OptimizerConfig
    output_dir: str
    p_grid: list[float] | None = None
    format_version: int = FORMAT_VERSION
    ignored_fields: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.format_version != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported format_version {self.format_version}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        if self.channel.n_qubits != self.sample.n_qubits:
            raise ConfigError(
                f"channel n_qubits={self.channel.n_qubits} does not match "
                f"sample n_qubits={self.sample.n_qubits}"
            )
        if self.p_grid is not None:
            if not self.p_grid:
                raise ConfigError("p_grid must be non-empty in curve mode")
            for p in self.p_grid:
                if not 0.0 <= p <= 1.0:
                    raise ConfigError(f"p_grid value {p} outside [0, 1]")

    def to_dict(self) -> dict:
        channel = {
            "kind": self.channel.kind,
            "p": self.channel.p,
            "n_qubits": self.channel.n_qubits,
        }
        if self.channel.custom_kraus is not None:
            channel["custom_kraus"] = self.channel.custom_kraus.to_dict()
        data = {
            "format_version": self.format_version,
            "channel": channel,
            "sample": {
                "n_qubits": self.sample.n_qubits,
                "count": self.sample.count,
                "seed": self.sample.seed,
                "measure": self.sample.measure,
            },
            "optimizer": {
                "eta0": self.optimizer.eta0,
                "max_iters": self.optimizer.max_iters,
                "loss_tol": self.optimizer.loss_tol,
                "patience": self.optimizer.patience,
                "init": self.optimizer.init,
                "init_scale": self.optimizer.init_scale,
                "m": self.optimizer.m,
                "seed": self.optimizer.seed,
            },
            "output_dir": self.output_dir,
        }
        if self.p_grid is not None:
            data["p_grid"] = list(self.p_grid)
        return data


def _take_fields(section: dict, allowed: dict, where: str) -> dict:
    """Pull known keys out of a config section, rejecting typos."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {sorted(unknown)}")
    taken = {}
    for key, convert in allowed.items():
        if key in section:
            taken[key] = convert(section[key])
    return taken


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    top = _take_fields(
        data,
        {
            "format_version": int,
            "channel": dict,
            "sample": dict,
            "optimizer": dict,
            "p_grid": list,
            "output_dir": str,
        },
        "config",
    )
    for required in ("channel", "sample", "output_dir"):
        if required not in top:
            raise ConfigError(f"config is missing required field {required!r}")
    try:
        channel_fields = _take_fields(
            top["channel"],
            {
                "kind": str,
                "p": float,
                "n_qubits": int,
                "custom_kraus": KrausSet.from_dict,
            },
            "channel",
        )
        channel = ChannelSpec(**channel_fields)
        sample_fields = _take_fields(
            top["sample"],
            {"n_qubits": int, "count": int, "seed": int, "measure": str},
            "sample",
        )
        sample = SampleConfig(**sample_fields)
        section = top.get("optimizer", {})
        ignored = [
            f"optimizer.{key}" for key in RETIRED_OPTIMIZER_FIELDS if key in section
        ]
        optimizer_fields = _take_fields(
            {k: v for k, v in section.items() if k not in RETIRED_OPTIMIZER_FIELDS},
            {
                "eta0": float,
                "max_iters": int,
                "loss_tol": float,
                "patience": int,
                "init": str,
                "init_scale": float,
                "m": int,
                "seed": int,
            },
            "optimizer",
        )
        optimizer = OptimizerConfig(**optimizer_fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        channel=channel,
        sample=sample,
        optimizer=optimizer,
        output_dir=top["output_dir"],
        p_grid=[float(p) for p in top["p_grid"]] if "p_grid" in top else None,
        format_version=top.get("format_version", FORMAT_VERSION),
        ignored_fields=ignored,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_manifest(out_dir: Path, config: ExperimentConfig) -> None:
    _write_json(
        out_dir / "manifest.json",
        {
            "format_version": FORMAT_VERSION,
            "config": config.to_dict(),
            "sample_seed": config.sample.seed,
            "optimizer_seed": config.optimizer.seed,
            "ignored_fields": config.ignored_fields,
        },
    )


def run_single(config: ExperimentConfig) -> QuasiInverseResult:
    """One sampling -> corruption -> learning run, persisted to disk."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    states = config.sample.draw()
    result = learn_quasi_inverse(config.channel.build(), states, config.optimizer)
    _write_json(out_dir / "states.json", states_to_lists(states))
    _write_json(out_dir / "result.json", result.to_dict())
    _write_manifest(out_dir, config)
    return result


def run_curve(config: ExperimentConfig) -> list[CurveRow]:
    """One learning run per noise strength in p_grid; emits curve.csv.

    Every grid point samples a fresh ensemble with seed (base seed +
    grid index), so points are independent but reproducible.
    """
    if config.p_grid is None:
        raise ConfigError("curve mode requires p_grid")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for index, p in enumerate(config.p_grid):
        spec = ChannelSpec(
            kind=config.channel.kind,
            p=p,
            n_qubits=config.channel.n_qubits,
            custom_kraus=config.channel.custom_kraus,
        )
        states = config.sample.draw(seed=config.sample.seed + index)
        start = time.perf_counter()
        result = learn_quasi_inverse(spec.build(), states, config.optimizer)
        elapsed = time.perf_counter() - start
        rows.append(
            CurveRow(
                p=p,
                fidelity_before=result.fidelity_before,
                fidelity_after=result.fidelity_after,
                iterations_used=result.iterations_used,
                wall_time_seconds=elapsed,
            )
        )
    lines = [CSV_HEADER] + [row.to_csv_line() for row in rows]
    (out_dir / "curve.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out_dir, config)
    return rows


def validate_channel_file(path, quiet: bool = False) -> dict:
    """Load a serialized Kraus set and report its health.

    Returns the report dict; raises ConfigError on malformed files.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read channel file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    try:
        kraus = KrausSet.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid channel structure in {path}: {exc}") from exc
    deviation = kraus.completeness_deviation()
    complete = deviation <= 1e-6
    report = {
        "d": kraus.d,
        "m": kraus.m,
        "completeness_deviation": deviation,
        "complete": complete,
    }
    if complete:
        weights, unitary = dominant_kraus_report(kraus)
        report["weights"] = [float(w) for w in weights]
        report["effectively_unitary"] = unitary
    if not quiet:
        print(f"d={kraus.d} m={kraus.m}")
        print(f"completeness deviation: {deviation:.3e}")
        if complete:
            print("weights: " + " ".join(_sig6(w) for w in report["weights"]))
            print(f"effectively unitary: {report['effectively_unitary']}")
        else:
            print("channel is NOT complete within 1e-6")
    return report


def run_sample(config: ExperimentConfig) -> list:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    states = config.sample.draw()
    _write_json(out_dir / "states.json", states_to_lists(states))
    _write_manifest(out_dir, config)
    return states


def load_states(path) -> list[np.ndarray]:
    with open(path) as handle:
        return states_from_lists(json.load(handle))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kraussphere",
        description="Learn quasi-inverse quantum channels on the Kraus sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("learn", "run one quasi-inverse optimization"),
        ("curve", "sweep noise strengths and emit curve.csv"),
        ("sample", "emit a sampled state ensemble"),
    ]:
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="experiment config JSON")
        cmd.add_argument("--out", help="override the config output_dir")
        cmd.add_argument("--seed", type=int, help="override the sampling seed")
        cmd.add_argument("--quiet", action="store_true")
    validate = sub.add_parser("validate", help="check a saved channel file")
    validate.add_argument("path", help="channel JSON to validate")
    validate.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            report = validate_channel_file(args.path, quiet=args.quiet)
            return EXIT_OK if report["complete"] else EXIT_NUMERIC
        config = load_config(args.config)
        if args.out is not None:
            config.output_dir = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"seed must be non-negative, got {args.seed}")
            config.sample.seed = args.seed
        if args.command == "learn":
            result = run_single(config)
            if not args.quiet:
                print(
                    f"fidelity {result.fidelity_before:.4f} -> "
                    f"{result.fidelity_after:.4f} "
                    f"in {result.iterations_used} iterations"
                )
        elif args.command == "curve":
            rows = run_curve(config)
            if not args.quiet:
                for row in rows:
                    print(row.to_csv_line())
        elif args.command == "sample":
            states = run_sample(config)
            if not args.quiet:
                print(f"wrote {len(states)} states to {config.output_dir}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteLossError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
