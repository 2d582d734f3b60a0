"""Experiment front end.

Config-driven runs: sample an ensemble, corrupt it through a noise
channel, learn the quasi-inverse, and persist results.  Subcommands:

    learn     one quasi-inverse run -> result.json, states.json, manifest.json
    curve     one run per noise strength in p_grid -> curve.csv
    validate  report completeness/unitarity of a saved channel file
    sample    emit a state ensemble -> states.json

learn, curve and sample also write manifest.json: the format version, the
config the run used and the environment it ran in (``{"format_version",
"config", "environment"}``).  Configs and Kraus files are read by one
typed reader (:func:`geometry.json_section`).

Exit codes: 0 success, 1 usage/config error (also a config whose arrays
do not fit in memory: one "out of memory" line), 2 numerical failure.
The output directory is made when the first file is written, so a run
that fails before then leaves none.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARIABLES, __version__
from .channels import ChannelSpec
from .geometry import (
    FRAME_TOL_LOOSE,
    KrausSet,
    json_section,
    json_value,
)
from .optimizer import (
    NonFiniteLossError,
    OptimizerConfig,
    QuasiInverseResult,
    dominant_kraus_report,
    learn_quasi_inverse,
)
from .sampling import SampleConfig

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


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
        """The fields in order, floats at 6 significant digits."""
        return ",".join(
            _sig6(value) if isinstance(value, float) else str(value)
            for value in _fields(self).values()
        )


CSV_HEADER = ",".join(f.name for f in fields(CurveRow))


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _fields(record) -> dict:
    """A dataclass's fields by name, in declaration order (shallow)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass(kw_only=True)
class ExperimentConfig:
    channel: ChannelSpec
    sample: SampleConfig
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    output_dir: str
    p_grid: list[float] | None = None

    def __post_init__(self):
        if self.channel.n_qubits != self.sample.n_qubits:
            raise ConfigError(
                f"channel n_qubits={self.channel.n_qubits} does not match "
                f"sample n_qubits={self.sample.n_qubits}"
            )
        d = 2**self.channel.n_qubits
        if self.optimizer.m is not None and self.optimizer.m > d * d:
            raise ConfigError(
                f"optimizer.m={self.optimizer.m} exceeds the limit d^2={d * d} "
                f"for n_qubits={self.channel.n_qubits}"
            )
        if self.p_grid is not None:
            if not self.p_grid:
                raise ConfigError("p_grid must be non-empty in curve mode")
            for p in self.p_grid:
                if not 0.0 <= p <= 1.0:
                    raise ConfigError(f"p_grid value {p} outside [0, 1]")

    def to_dict(self) -> dict:
        """The config as JSON, each section by its own fields in order; an
        unset optional field (``p_grid``, ``channel.custom_kraus``) is
        left out."""
        data = {"format_version": FORMAT_VERSION}
        for name, value in _fields(self).items():
            if value is not None:
                data[name] = _fields(value) if is_dataclass(value) else value
        kraus = data["channel"].pop("custom_kraus")
        if kraus is not None:
            data["channel"]["custom_kraus"] = kraus.to_dict()
        return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of :meth:`ExperimentConfig.to_dict`, every section read from
    its dataclass's fields (:func:`geometry.json_section`)."""
    try:
        json_value(data, dict, "config")
        data = dict(data)
        version = json_value(
            data.pop("format_version", FORMAT_VERSION), int, "format_version"
        )
        if version != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported format_version {version}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        return json_section(ExperimentConfig, data, "")
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError too
        raise ConfigError(str(exc)) from exc


def _read_json(path, what: str):
    """The JSON document in ``path`` (a ``what``); ConfigError if the file
    cannot be read or parsed, with the line and column of a JSON error."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer over Python's digit limit, bad UTF-8
        raise ConfigError(f"cannot parse {what} {path}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path, "config"))


def _write_json(path: Path, obj) -> None:
    """``json.dumps(obj, indent=2) + "\\n"``, streamed into the file, so the
    document is never held whole in memory."""
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def _write_states(path: Path, states: np.ndarray) -> None:
    """``json.dumps(geometry.matrices_to_pairs(states), indent=2) + "\\n"``,
    written one matrix at a time from a ``%r`` template of one matrix's
    [re, im] pairs: ``repr`` is how json writes a finite float.  A NaN or
    infinite entry, which json writes as ``NaN`` or ``Infinity``, raises
    ValueError before the file is opened."""
    rows = np.ascontiguousarray(states, dtype=complex).view(float)
    rows = rows.reshape(len(rows), -1)
    if not np.isfinite(rows).all():
        raise ValueError(f"non-finite entry in the states for {path}")
    pair = "[\n      %r,\n      %r\n    ]"
    matrix = "[\n    " + ",\n    ".join([pair] * (rows.shape[1] // 2)) + "\n  ]"
    lead = "[\n  "
    with open(path, "w") as handle:
        for row in rows:
            handle.write(lead + matrix % tuple(row.tolist()))
            lead = ",\n  "
        handle.write("\n]\n")


def _write_manifest(out_dir: Path, config: ExperimentConfig) -> None:
    """The format version, the config, and the environment a rerun needs
    to reproduce the run's bytes, since Philox streams repeat only on the
    same platform.  (``platform.platform()`` is left out: its first call
    scans the interpreter binary for its libc.)"""
    manifest = {"format_version": FORMAT_VERSION, "config": config.to_dict()}
    manifest["environment"] = {
        "kraussphere": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        **{key: getattr(platform, key)() for key in ("system", "release", "machine")},
        **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }
    _write_json(out_dir / "manifest.json", manifest)


def run_single(config: ExperimentConfig) -> QuasiInverseResult:
    """One sampling -> corruption -> learning run, persisted to disk."""
    states = config.sample.draw()
    result = learn_quasi_inverse(config.channel.build(), states, config.optimizer)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_states(out_dir / "states.json", states)
    _write_json(out_dir / "result.json", result.to_dict())
    _write_manifest(out_dir, config)
    return result


def run_curve(config: ExperimentConfig) -> list[CurveRow]:
    """One learning run per noise strength in p_grid; emits curve.csv.

    Every grid point samples a fresh ensemble with seed (base seed +
    grid index), so points are independent but reproducible.  A
    ``custom`` channel has no noise strength to sweep and raises
    ConfigError before anything is written.
    """
    if config.p_grid is None:
        raise ConfigError("curve mode requires p_grid")
    if config.channel.kind == "custom":
        raise ConfigError("curve mode sweeps p, which channel.kind 'custom' ignores")
    rows = []
    for index, p in enumerate(config.p_grid):
        spec = replace(config.channel, p=p)
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
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "curve.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out_dir, config)
    return rows


def validate_channel_file(path) -> dict:
    """Load a serialized Kraus set and report its health.

    Returns the report dict; raises ConfigError on malformed files.
    """
    data = _read_json(path, "channel file")
    try:
        kraus = KrausSet.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid channel structure in {path}: {exc}") from exc
    deviation = kraus.completeness_deviation()
    complete = deviation <= FRAME_TOL_LOOSE
    report = {
        "d": kraus.d,
        "m": kraus.m,
        "completeness_deviation": deviation,
        "complete": complete,
    }
    if complete:
        weights, spectrum, unitary = dominant_kraus_report(kraus)
        report["weights"] = weights.tolist()
        report["spectrum"] = spectrum.tolist()
        report["effectively_unitary"] = unitary
    return report


def run_sample(config: ExperimentConfig) -> np.ndarray:
    states = config.sample.draw()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_states(out_dir / "states.json", states)
    _write_manifest(out_dir, config)
    return states


def _build_parser():
    import argparse  # the CLI's alone: the library never loads it

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
            report = validate_channel_file(args.path)
            if not args.quiet:
                print(f"d={report['d']} m={report['m']}")
                print(f"completeness deviation: {report['completeness_deviation']:.3e}")
                if report["complete"]:
                    print("weights: " + " ".join(map(_sig6, report["weights"])))
                    print("spectrum: " + " ".join(map(_sig6, report["spectrum"])))
                    print(f"effectively unitary: {report['effectively_unitary']}")
                else:
                    tol = np.format_float_scientific(
                        FRAME_TOL_LOOSE, trim="-", exp_digits=1
                    )
                    print(f"channel is NOT complete within {tol}")
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteLossError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
