import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kraussphere
from kraussphere.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    config_from_dict,
    load_config,
    main,
    run_curve,
    run_single,
    validate_channel_file,
)
from kraussphere.channels import flip_channel
from kraussphere.geometry import KrausSet, matrices_from_pairs
from kraussphere.linalg import PAULIS
from kraussphere.optimizer import LossContext, OptimizerConfig
from kraussphere.sampling import SampleConfig


def base_config(out_dir, **overrides):
    data = {
        "format_version": 1,
        "channel": {"kind": "bit_flip", "p": 0.8, "n_qubits": 1},
        "sample": {
            "n_qubits": 1,
            "count": 25,
            "seed": 60,
            "measure": "bloch_ball_uniform",
        },
        "optimizer": {"max_iters": 20, "m": 2},
        "output_dir": str(out_dir),
    }
    data.update(overrides)
    return data


MANIFEST = """{
  "format_version": 1,
  "config": {
    "format_version": 1,
    "channel": {
      "kind": "bit_flip",
      "p": 0.8,
      "n_qubits": 1
    },
    "sample": {
      "n_qubits": 1,
      "count": 25,
      "seed": 60,
      "measure": "bloch_ball_uniform"
    },
    "optimizer": {
      "eta0": 0.1,
      "max_iters": 20,
      "loss_tol": 1e-07,
      "patience": 25,
      "init": "small_random",
      "init_scale": 0.1,
      "m": null,
      "seed": 5
    },
    "output_dir": "OUT",
    "p_grid": [
      0.2,
      0.8
    ]
  },
ENVIRONMENT
}
"""


def five_operator_channel():
    """A complete qubit channel with m = 5 > d^2 Kraus operators."""
    weights = np.array([0.3, 0.2, 0.2, 0.2, 0.1])
    paulis = np.concatenate([PAULIS, PAULIS[:1]])
    return KrausSet(np.sqrt(weights)[:, None, None] * paulis)


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        config = load_config(path)
        assert config.channel.kind == "bit_flip"
        assert config.sample.count == 25
        assert config.optimizer.max_iters == 20

    def test_unknown_top_level_field(self, tmp_path):
        data = base_config(tmp_path / "run")
        data["learning_rate"] = 0.5
        with pytest.raises(ConfigError, match="learning_rate"):
            config_from_dict(data)

    def test_unknown_section_field(self, tmp_path):
        data = base_config(tmp_path / "run")
        data["optimizer"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            config_from_dict(data)

    def test_missing_required(self, tmp_path):
        data = base_config(tmp_path / "run")
        del data["channel"]
        with pytest.raises(ConfigError, match="channel"):
            config_from_dict(data)

    def test_qubit_mismatch(self, tmp_path):
        data = base_config(tmp_path / "run")
        data["channel"]["n_qubits"] = 2
        with pytest.raises(ConfigError, match="n_qubits"):
            config_from_dict(data)

    def test_hilbert_schmidt_measure(self, tmp_path):
        data = base_config(tmp_path / "run")
        data["channel"]["n_qubits"] = 2
        data["sample"].update(n_qubits=2, measure="hilbert_schmidt")
        config = config_from_dict(data)
        assert config.sample.measure == "hilbert_schmidt"
        assert config.sample.draw()[0].shape == (4, 4)

    def test_wrong_format_version(self, tmp_path):
        data = base_config(tmp_path / "run", format_version=2)
        with pytest.raises(ConfigError, match="format_version"):
            config_from_dict(data)

    def test_bad_p_grid(self, tmp_path):
        data = base_config(tmp_path / "run", p_grid=[0.5, 1.5])
        with pytest.raises(ConfigError, match="p_grid"):
            config_from_dict(data)

    def test_bad_probability(self, tmp_path):
        data = base_config(tmp_path / "run")
        data["channel"]["p"] = 1.7
        with pytest.raises(ConfigError, match="outside"):
            config_from_dict(data)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1,')
        with pytest.raises(ConfigError, match="malformed JSON in .* at line 1, column 22"):
            load_config(path)

    def test_negative_sample_seed(self, tmp_path, capsys):
        data = base_config(tmp_path / "run")
        data["sample"]["seed"] = -1
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(data)
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_custom_channel_with_a_noise_strength(self, tmp_path, capsys):
        # the run ignored p, and the manifest recorded it as the noise strength
        channel = {
            "kind": "custom",
            "p": 0.3,
            "n_qubits": 1,
            "custom_kraus": flip_channel("bit_flip", 0.8).to_dict(),
        }
        data = base_config(tmp_path / "run", channel=channel)
        with pytest.raises(ConfigError, match="channel.p=0.3 is ignored by kind 'custom'"):
            config_from_dict(data)
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "channel,match",
        [
            # used to pass parsing and exit 2 from build()
            ({"kind": "depolarizing", "p": 0.5, "n_qubits": 2}, "single-qubit"),
            # used to exit 2 from a raw einsum shape error
            (
                {
                    "kind": "custom",
                    "n_qubits": 2,
                    "custom_kraus": flip_channel("bit_flip", 0.8).to_dict(),
                },
                "d=2, but n_qubits=2 needs d=4",
            ),
        ],
    )
    def test_inconsistent_channel(self, tmp_path, capsys, channel, match):
        data = base_config(tmp_path / "run", channel=channel)
        data["sample"].update(n_qubits=2, measure="hilbert_schmidt")
        with pytest.raises(ConfigError, match=match):
            config_from_dict(data)
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestOptimizerFieldChecks:
    """Each out-of-range optimizer field is a config error (exit 1), caught
    before any learn starts; the boundary values still load."""

    @staticmethod
    def check(tmp_path, capsys, field, bad, good):
        for value in bad:
            data = base_config(tmp_path / "run")
            data["optimizer"][field] = value
            with pytest.raises(ConfigError, match=field):
                config_from_dict(data)
            path = write_config(tmp_path, data)
            assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()
        for value in good:
            data = base_config(tmp_path / "run")
            data["optimizer"][field] = value
            assert getattr(config_from_dict(data).optimizer, field) == value

    def test_m(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "m", [0, -3, 1.5, 2.0, True, "2"], [1, None])

    @pytest.mark.parametrize("n_qubits,m", [(1, 5), (2, 17)])
    def test_m_above_d_squared(self, tmp_path, capsys, n_qubits, m):
        # m = 5 on one qubit used to run its whole descent and then exit 2
        data = base_config(tmp_path / "run")
        data["channel"]["n_qubits"] = n_qubits
        data["sample"].update(n_qubits=n_qubits, measure="hilbert_schmidt")
        data["optimizer"]["m"] = m
        limit = 4**n_qubits
        message = rf"optimizer\.m={m} exceeds .*d\^2={limit}"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "optimizer.m" in err
        assert not (tmp_path / "run").exists()
        data["optimizer"]["m"] = limit
        assert config_from_dict(data).optimizer.m == limit

    def test_max_iters(self, tmp_path, capsys):
        # 2.7 used to load as 2
        self.check(tmp_path, capsys, "max_iters", [0, 2.7, 20.0, True], [1])

    def test_eta0(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            "eta0",
            [0.0, -0.1, float("nan"), float("inf"), True, "0.1", None],
            [1e-9, 1],
        )

    def test_init_scale(self, tmp_path, capsys):
        self.check(
            tmp_path, capsys, "init_scale", [-0.1, float("nan"), float("inf")], [0.0]
        )

    def test_patience(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "patience", [0, -1, 3.9, True], [1])

    def test_loss_tol(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            "loss_tol",
            [-1e-9, float("nan"), float("inf"), False, "1e-7"],
            [0.0, 0],
        )

    def test_seed(self, tmp_path, capsys):
        # a negative seed used to reach Philox and exit 2
        self.check(tmp_path, capsys, "seed", [-1, True, "7", 5.0], [0])


class TestFieldTypes:
    """Numbers of the wrong JSON type are config errors naming the field:
    integer fields take integers only, real fields numbers only, and
    neither takes a boolean or a string.  They used to be coerced."""

    @pytest.mark.parametrize(
        "path,value,field",
        [
            (("sample", "count"), 20.9, "sample.count"),
            (("sample", "count"), True, "sample.count"),
            (("sample", "seed"), "7", "sample.seed"),
            (("sample", "seed"), True, "sample.seed"),
            (("sample", "n_qubits"), 1.0, "sample.n_qubits"),
            (("channel", "n_qubits"), 1.99, "channel.n_qubits"),
            (("channel", "p"), "0.8", "channel.p"),
            (("channel", "p"), True, "channel.p"),
            (("format_version",), 1.7, "format_version"),
            (("format_version",), True, "format_version"),
            (("p_grid",), [0.1, None], r"p_grid\[1\]"),
            (("p_grid",), [0.1, "0.2"], r"p_grid\[1\]"),
            (("p_grid",), [True], r"p_grid\[0\]"),
            (("p_grid",), 0.5, "p_grid"),
            (("sample",), [1], "sample"),
        ],
    )
    def test_rejected(self, tmp_path, capsys, path, value, field):
        data = base_config(tmp_path / "run")
        *section, key = path
        (data[section[0]] if section else data)[key] = value
        with pytest.raises(ConfigError, match=field):
            config_from_dict(data)
        config = write_config(tmp_path, data)
        assert main(["learn", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert re.search(field, err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field,value", [("d", 2.0), ("m", True), ("m", "2")])
    def test_custom_kraus_dimensions(self, tmp_path, field, value):
        kraus = flip_channel("bit_flip", 0.8).to_dict()
        kraus[field] = value
        channel = {"kind": "custom", "n_qubits": 1, "custom_kraus": kraus}
        data = base_config(tmp_path / "run", channel=channel)
        expected = rf"channel\.custom_kraus\.{field} must be a JSON int"
        with pytest.raises(ConfigError, match=expected):
            config_from_dict(data)

    @pytest.mark.parametrize("field", ["d", "m", "operators"])
    def test_custom_kraus_missing_field(self, tmp_path, capsys, field):
        # used to print only "config error: 'd'", then "Kraus set is
        # missing required field 'd'" without the set's place
        kraus = flip_channel("bit_flip", 0.8).to_dict()
        del kraus[field]
        channel = {"kind": "custom", "n_qubits": 1, "custom_kraus": kraus}
        data = base_config(tmp_path / "run", channel=channel)
        message = f"config is missing required field 'channel.custom_kraus.{field}'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(data)
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_custom_kraus_non_finite(self, tmp_path, capsys, value):
        # NaN passed the completeness check; the learn then exited 2 with
        # "non-finite loss nan at iteration 0"
        kraus = flip_channel("bit_flip", 0.8).to_dict()
        kraus["operators"][1][2][0] = value
        channel = {"kind": "custom", "n_qubits": 1, "custom_kraus": kraus}
        path = write_config(tmp_path, base_config(tmp_path / "run", channel=channel))
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert "Kraus operators [1] have non-finite entries" in err
        assert not (tmp_path / "run").exists()

    def test_integral_reals_still_load(self, tmp_path):
        data = base_config(tmp_path / "run", p_grid=[0, 1])
        data["channel"]["p"] = 1
        config = config_from_dict(data)
        assert config.channel.p == 1.0 and isinstance(config.channel.p, float)
        assert config.p_grid == [0.0, 1.0]


class TestRunSingle:
    def test_identity_run_and_outputs(self, tmp_path):
        data = base_config(tmp_path / "run")
        data["channel"]["p"] = 0.0
        config = config_from_dict(data)
        result = run_single(config)
        assert result.fidelity_after >= 0.999
        out = tmp_path / "run"
        assert (out / "result.json").exists()
        assert (out / "states.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["config"]["sample"]["seed"] == 60
        states = matrices_from_pairs(json.loads((out / "states.json").read_text()))
        assert len(states) == 25 and states[0].shape == (2, 2)

    def test_result_reports_stop_reason_and_best_iteration(self, tmp_path):
        result = run_single(config_from_dict(base_config(tmp_path / "run")))
        saved = json.loads((tmp_path / "run" / "result.json").read_text())
        assert saved["stop_reason"] == result.stop_reason
        assert saved["stop_reason"] in ("loss_tol", "patience", "max_iters")
        assert saved["best_iteration"] == result.best_iteration
        assert saved["history"][saved["best_iteration"]]["loss"] == pytest.approx(
            1.0 - saved["fidelity_after"], abs=1e-15
        )

    def test_result_file_layout(self, tmp_path):
        # result.json lists the result's fields in declaration order, each
        # history record its own
        run_single(config_from_dict(base_config(tmp_path / "run")))
        saved = json.loads((tmp_path / "run" / "result.json").read_text())
        assert list(saved) == [
            "channel",
            "angles",
            "history",
            "fidelity_before",
            "fidelity_after",
            "stop_reason",
            "best_iteration",
            "loss_evaluations",
            "gradient_evaluations",
        ]
        assert list(saved["channel"]) == ["d", "m", "operators"]
        for record in saved["history"]:
            assert list(record) == ["iteration", "loss", "avg_fidelity", "grad_norm"]

    def test_retired_optimizer_fields_are_rejected(self, tmp_path, capsys):
        # the central-difference step and its thread count mean nothing
        # now, so they are unknown fields like any other
        for key, value in (("epsilon", 1e-6), ("threads", 2)):
            data = base_config(tmp_path / "run")
            data["optimizer"][key] = value
            path = write_config(tmp_path, data)
            assert main(["learn", "--config", str(path), "--quiet"]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: unknown field(s) in optimizer: ['{key}']\n"
            )
            assert not (tmp_path / "run").exists()

    def test_rerun_bit_identical(self, tmp_path):
        for name in ("a", "b"):
            config = config_from_dict(base_config(tmp_path / name))
            run_single(config)
        blob_a = (tmp_path / "a" / "result.json").read_bytes()
        blob_b = (tmp_path / "b" / "result.json").read_bytes()
        assert blob_a == blob_b

    def test_learned_channel_reloads(self, tmp_path):
        config = config_from_dict(base_config(tmp_path / "run"))
        result = run_single(config)
        saved = json.loads((tmp_path / "run" / "result.json").read_text())
        decoded = matrices_from_pairs(saved["channel"]["operators"])
        assert decoded.tobytes() == result.channel.operators.tobytes()
        channel = KrausSet.from_dict(saved["channel"])
        assert channel.operators.tobytes() == result.channel.operators.tobytes()


class TestRunCurve:
    def test_zero_noise_point(self, tmp_path):
        data = base_config(tmp_path / "curve", p_grid=[0.0])
        rows = run_curve(config_from_dict(data))
        assert len(rows) == 1
        assert abs(rows[0].fidelity_after - rows[0].fidelity_before) <= 1e-6
        content = (tmp_path / "curve" / "curve.csv").read_text().splitlines()
        assert content[0] == CSV_HEADER == (
            "p,fidelity_before,fidelity_after,iterations_used,wall_time_seconds"
        )
        assert len(content) == 2

    def test_csv_round_trip_at_printed_precision(self, tmp_path):
        data = base_config(tmp_path / "curve", p_grid=[0.2, 0.6])
        data["sample"]["count"] = 15
        data["optimizer"]["max_iters"] = 10
        rows = run_curve(config_from_dict(data))
        lines = (tmp_path / "curve" / "curve.csv").read_text().splitlines()[1:]
        for row, line in zip(rows, lines):
            p, before, after, iters, wall = line.split(",")
            assert float(p) == pytest.approx(row.p, rel=1e-5)
            assert float(before) == pytest.approx(row.fidelity_before, rel=1e-5)
            assert float(after) == pytest.approx(row.fidelity_after, rel=1e-5)
            assert int(iters) == row.iterations_used
            assert float(wall) == pytest.approx(row.wall_time_seconds, rel=1e-5)

    def test_monotone_rows(self, tmp_path):
        data = base_config(tmp_path / "curve", p_grid=[0.1, 0.8])
        rows = run_curve(config_from_dict(data))
        for row in rows:
            assert row.fidelity_after >= row.fidelity_before - 1e-9

    def test_requires_grid(self, tmp_path):
        config = config_from_dict(base_config(tmp_path / "curve"))
        with pytest.raises(ConfigError, match="p_grid"):
            run_curve(config)

    def test_refuses_a_custom_channel(self, tmp_path, capsys):
        # a custom channel ignores p: every row was the same channel
        channel = {
            "kind": "custom",
            "n_qubits": 1,
            "custom_kraus": flip_channel("bit_flip", 0.8).to_dict(),
        }
        data = base_config(tmp_path / "curve", channel=channel, p_grid=[0.1, 0.9])
        with pytest.raises(ConfigError, match="channel.kind 'custom'"):
            run_curve(config_from_dict(data))
        path = write_config(tmp_path, data)
        assert main(["curve", "--config", str(path)]) == EXIT_CONFIG
        assert "channel.kind 'custom'" in capsys.readouterr().err
        assert not (tmp_path / "curve").exists()


class TestValidateChannelFile:
    def test_identity_channel(self, tmp_path):
        path = tmp_path / "identity.json"
        ops = [np.eye(2, dtype=complex)] + [np.zeros((2, 2), dtype=complex)] * 3
        path.write_text(json.dumps(KrausSet(ops).to_dict()))
        report = validate_channel_file(path, quiet=True)
        assert report["complete"]
        assert report["completeness_deviation"] <= 1e-12
        assert report["effectively_unitary"]

    def test_bit_flip_weights(self, tmp_path):
        path = tmp_path / "bf.json"
        path.write_text(json.dumps(flip_channel("bit_flip", 0.8).to_dict()))
        report = validate_channel_file(path, quiet=True)
        assert np.allclose(report["weights"], [0.2, 0.8])
        assert np.allclose(report["spectrum"], [0.8, 0.2])
        assert not report["effectively_unitary"]

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 2, "m": 2, "operators": [[')
        with pytest.raises(ConfigError, match="malformed JSON in .* at line 1, column 33"):
            validate_channel_file(path, quiet=True)

    @pytest.mark.parametrize(
        "change,match",
        [
            (
                {"operators": [[[1, 0], [0, 0], [0, 0], [1, 0]], [[0, 0]]]},
                r"operators\[1\]",
            ),
            ({"m": 1, "operators": [[[1, 0], [0, 0], [0, 0]]]}, "square"),
            ({"d": 4}, r"expected \(2, 4, 4\)"),
            ({"m": 1}, r"expected \(1, 2, 2\)"),
            ({"d": 2.0}, "d must be a JSON int"),
            ({"m": True}, "m must be a JSON int"),
        ],
    )
    def test_malformed_operators_are_config_errors(
        self, tmp_path, capsys, change, match
    ):
        path = tmp_path / "bad.json"
        data = {**flip_channel("bit_flip", 0.8).to_dict(), **change}
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=match):
            validate_channel_file(path, quiet=True)
        assert main(["validate", str(path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err

    @pytest.mark.parametrize("field", ["d", "m", "operators"])
    def test_missing_field_is_named(self, tmp_path, capsys, field):
        path = tmp_path / "bad.json"
        data = flip_channel("bit_flip", 0.8).to_dict()
        del data[field]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"missing required field '{field}'"):
            validate_channel_file(path, quiet=True)
        assert main(["validate", str(path), "--quiet"]) == EXIT_CONFIG
        assert f"missing required field '{field}'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "inf"])
    def test_non_finite_operators_are_config_errors(self, tmp_path, capsys, value):
        # used to print "completeness deviation: nan", warn and exit 2
        path = tmp_path / "bad.json"
        data = flip_channel("bit_flip", 0.8).to_dict()
        data["operators"][0][3][1] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=r"Kraus operators \[0\] have non-finite"):
            validate_channel_file(path, quiet=True)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error") and captured.out == ""

    def test_more_operators_than_d_squared(self, tmp_path, capsys):
        # m <= d^2 bounds the learner's ansatz, not a channel
        path = tmp_path / "five.json"
        path.write_text(json.dumps(five_operator_channel().to_dict()))
        assert main(["validate", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("d=2 m=5\n")
        report = validate_channel_file(path, quiet=True)
        assert report["complete"] is True

    def test_non_object_file(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="Kraus set must be a JSON dict"):
            validate_channel_file(path, quiet=True)


class TestMainExitCodes:
    def test_learn_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["learn", "--config", str(path)]) == EXIT_OK
        assert "fidelity" in capsys.readouterr().out

    def test_learn_reports_one_evaluation_per_iterate(self, tmp_path):
        # zeros start: the identity's loss is the first gradient's start
        data = base_config(tmp_path / "run")
        data["optimizer"].update({"init": "zeros", "loss_tol": 0.0, "patience": 20})
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path), "--quiet"]) == EXIT_OK
        saved = json.loads((tmp_path / "run" / "result.json").read_text())
        assert len(saved["history"]) == 20
        assert saved["loss_evaluations"] == saved["gradient_evaluations"] == 20

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["learn", "--config", str(path), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_non_finite_gradient_exit(self, tmp_path, capsys, monkeypatch):
        def nan_gradient(ctx, angles):
            return 0.5, np.full(ctx.n_angles, np.nan)

        monkeypatch.setattr(LossContext, "gradient", nan_gradient)
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["learn", "--config", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure: non-finite gradient" in err
        assert "at iteration 0" in err

    def test_learn_with_more_noise_operators_than_d_squared(self, tmp_path):
        channel = {
            "kind": "custom",
            "n_qubits": 1,
            "custom_kraus": five_operator_channel().to_dict(),
        }
        path = write_config(tmp_path, base_config(tmp_path / "run", channel=channel))
        assert main(["learn", "--config", str(path), "--quiet"]) == EXIT_OK
        saved = json.loads((tmp_path / "run" / "result.json").read_text())
        assert saved["channel"]["m"] == 2  # the ansatz's m, within d^2

    def test_config_error_exit(self, tmp_path, capsys):
        data = base_config(tmp_path / "run")
        data["typo_field"] = 1
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["learn", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_CONFIG
        assert "cannot read channel file" in capsys.readouterr().err

    def test_validate_incomplete_channel_exit(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        half = KrausSet([0.5 * np.eye(2, dtype=complex)])
        path.write_text(json.dumps(half.to_dict()))
        assert main(["validate", str(path), "--quiet"]) == EXIT_NUMERIC
        assert main(["validate", str(path)]) == EXIT_NUMERIC
        assert "channel is NOT complete within 1e-6\n" in capsys.readouterr().out

    def test_validate_ok_exit(self, tmp_path):
        path = tmp_path / "bf.json"
        path.write_text(json.dumps(flip_channel("bit_flip", 0.3).to_dict()))
        assert main(["validate", str(path), "--quiet"]) == EXIT_OK

    def test_seed_and_out_override(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "ignored"))
        out = tmp_path / "overridden"
        assert (
            main(
                [
                    "sample",
                    "--config",
                    str(path),
                    "--out",
                    str(out),
                    "--seed",
                    "61",
                    "--quiet",
                ]
            )
            == EXIT_OK
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sample"]["seed"] == 61
        assert (out / "states.json").exists()

    def test_curve_ok(self, tmp_path, capsys):
        data = base_config(tmp_path / "curve", p_grid=[0.0])
        path = write_config(tmp_path, data)
        assert main(["curve", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("0,")
        header = (tmp_path / "curve" / "curve.csv").read_text().splitlines()[0]
        assert header == CSV_HEADER

    def test_curve_without_grid(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "curve"))
        assert main(["curve", "--config", str(path)]) == EXIT_CONFIG
        assert "p_grid" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        code = main(["learn", "--config", str(path), "--seed", "-3", "--quiet"])
        assert code == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "missing.json"), "--quiet"])
        assert code == EXIT_CONFIG

    def test_manifest_bytes(self, tmp_path, monkeypatch):
        # the manifest is the format version, the config as read, each
        # section with every field, and the environment the run had; an
        # unset thread variable is null
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        data = base_config(tmp_path / "out", p_grid=[0.2, 0.8])
        data["optimizer"] = {"max_iters": 20, "init": "small_random", "seed": 5}
        path = write_config(tmp_path, data)
        assert main(["sample", "--config", str(path), "--quiet"]) == EXIT_OK
        environment = {
            "kraussphere": kraussphere.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "system": platform.system(),
            "release": platform.release(),
            "machine": platform.machine(),
            "OMP_NUM_THREADS": "3",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "MKL_NUM_THREADS": None,
        }
        stamp = json.dumps({"environment": environment}, indent=2)[2:-2]
        expected = MANIFEST.replace("OUT", str(tmp_path / "out"))
        expected = expected.replace("ENVIRONMENT", stamp)
        assert (tmp_path / "out" / "manifest.json").read_text() == expected

    def test_out_of_memory_exit(self, tmp_path, capsys, monkeypatch):
        # a 10^12-state ensemble cannot be allocated; the draw is replaced
        # so the test allocates nothing
        def unable(config, seed=None):
            raise MemoryError(f"Unable to allocate an array of {config.count} states")

        monkeypatch.setattr(SampleConfig, "draw", unable)
        config = base_config(tmp_path / "samples")
        config["sample"]["count"] = 10**12
        path = write_config(tmp_path, config)
        assert main(["sample", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            "out of memory: Unable to allocate an array of 1000000000000 states\n"
        )
        assert captured.out == ""

    def test_count_beyond_any_array_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # used to exit 2 with numpy's "Maximum allowed dimension exceeded"
        # and leave an empty output directory; the draw is replaced so the
        # test allocates nothing
        def refuse(config, seed=None):
            raise AssertionError("an ensemble too large for any array was drawn")

        monkeypatch.setattr(SampleConfig, "draw", refuse)
        config = base_config(tmp_path / "run")
        config["sample"]["count"] = 10**30
        path = write_config(tmp_path, config)
        for command in ("learn", "sample"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: sample.count 10000000000")
            assert not (tmp_path / "run").exists()

    def test_sample_outputs_states(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "samples"))
        assert main(["sample", "--config", str(path)]) == EXIT_OK
        saved = tmp_path / "samples" / "states.json"
        states = matrices_from_pairs(json.loads(saved.read_text()))
        assert len(states) == 25


def _set_entry(kraus, value):
    kraus["operators"][1][2][0] = value


BAD_KRAUS = {
    # true and "1" used to load as 1.0 and null as NaN, a short pair or a
    # ragged operator gave numpy's message naming no field, and an unknown
    # key was ignored
    "true": (
        lambda kraus: _set_entry(kraus, True),
        "{at}operators[1][2][0] must be a JSON number, got True",
    ),
    "string": (
        lambda kraus: _set_entry(kraus, "1"),
        "{at}operators[1][2][0] must be a JSON number, got '1'",
    ),
    "null": (
        lambda kraus: _set_entry(kraus, None),
        "{at}operators[1][2][0] must be a JSON number, got None",
    ),
    "short-pair": (
        lambda kraus: kraus["operators"][1][2].pop(),
        "{at}operators[1][2] is not an [re, im] pair",
    ),
    "ragged": (
        lambda kraus: kraus["operators"][1].pop(),
        "{at}operators[1] and {at}operators[0] differ in length",
    ),
    "unknown-key": (
        lambda kraus: kraus.update(p=0.8),
        "unknown field(s) in {set}: ['p']",
    ),
    "missing-d": (
        lambda kraus: kraus.pop("d"),
        "{document} is missing required field '{at}d'",
    ),
    "401-digits": (
        lambda kraus: _set_entry(kraus, 10**400),
        "{at}operators[1][2][0] is out of the float range",
    ),
}


class TestKrausReader:
    """A Kraus set is read by the config's reader in both places it comes
    from: ``channel.custom_kraus`` in a config, named from there, and a
    channel file given to ``validate``, named from its root."""

    @pytest.mark.parametrize("row", BAD_KRAUS, ids=list(BAD_KRAUS))
    def test_bad_input_is_a_named_config_error(self, tmp_path, capsys, row):
        edit, message = BAD_KRAUS[row]
        kraus = flip_channel("bit_flip", 0.8).to_dict()
        edit(kraus)
        channel = {"kind": "custom", "n_qubits": 1, "custom_kraus": kraus}
        config = write_config(tmp_path, base_config(tmp_path / "run", channel=channel))
        assert main(["learn", "--config", str(config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        where = {"at": "channel.custom_kraus.", "set": "channel.custom_kraus"}
        expected = message.format(document="config", **where)
        assert captured.err == f"config error: {expected}\n"
        assert captured.out == "" and not (tmp_path / "run").exists()

        channel_file = tmp_path / "channel.json"
        channel_file.write_text(json.dumps(kraus))
        assert main(["validate", str(channel_file)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        expected = message.format(document="Kraus set", at="", set="Kraus set")
        assert captured.err == (
            f"config error: invalid channel structure in {channel_file}: "
            f"{expected}\n"
        )
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "channel.json",
            "config.json",
        ]

    def test_integer_entries_read_as_floats(self):
        # a hand-written file may give 1 for 1.0
        data = {"d": 2, "m": 1, "operators": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}
        kraus = KrausSet.from_dict(data)
        assert np.array_equal(kraus.operators, [np.eye(2)])
        assert data["operators"][0][0] == [1, 0]  # the input is not changed


class TestBlasThreads:
    def test_result_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # BLAS reads its thread count when numpy loads, so each count gets
        # its own process: a small two-qubit learn must write the same bytes
        data = base_config(tmp_path / "run")
        data["channel"] = {"kind": "bit_flip", "p": 0.8, "n_qubits": 2}
        data["sample"] = {"n_qubits": 2, "count": 40, "seed": 21, "measure": "bures"}
        data["optimizer"] = {"max_iters": 100, "m": 2}
        path = write_config(tmp_path, data)
        paths = [str(Path(kraussphere.__file__).parents[1])]
        paths += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = {
                **os.environ,
                "OMP_NUM_THREADS": threads,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(paths),
            }
            command = [sys.executable, "-m", "kraussphere.cli", "learn"]
            command += ["--config", str(path), "--out", str(out), "--quiet"]
            subprocess.run(command, env=env, check=True, timeout=300)
            blobs.append((out / "result.json").read_bytes())
        assert blobs[0] == blobs[1]


CUSTOM_CHANNEL = {
    "kind": "custom",
    "n_qubits": 1,
    "custom_kraus": flip_channel("bit_flip", 0.8).to_dict(),
}


class TestSchemaReader:
    """Each config section is read from its dataclass's own fields."""

    @pytest.mark.parametrize("section,field", [("sample", "count"), ("channel", "kind")])
    def test_missing_section_field_is_named(self, tmp_path, capsys, section, field):
        # used to be "SampleConfig.__init__() missing 1 required positional
        # argument: 'count'"
        data = base_config(tmp_path / "run")
        del data[section][field]
        message = f"config is missing required field '{section}.{field}'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(data)
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_null_optional_fields_load_as_unset(self, tmp_path):
        data = base_config(tmp_path / "run", p_grid=None)
        data["channel"]["custom_kraus"] = None
        config = config_from_dict(data)
        assert config.p_grid is None and config.channel.custom_kraus is None
        unset = config_from_dict(base_config(tmp_path / "run"))
        assert config.to_dict() == unset.to_dict()

    def test_optimizer_section_may_be_left_out(self, tmp_path):
        data = base_config(tmp_path / "run")
        del data["optimizer"]
        assert config_from_dict(data).optimizer == OptimizerConfig()

    @pytest.mark.parametrize(
        "command,overrides,dropped",
        [
            ("learn", {}, "optimizer"),
            ("curve", {"p_grid": [0.2, 0.8]}, None),
            ("learn", {"channel": CUSTOM_CHANNEL}, None),
        ],
        ids=["learn-without-optimizer", "curve", "custom-channel"],
    )
    def test_manifest_config_round_trips(self, tmp_path, command, overrides, dropped):
        data = base_config(tmp_path / "run", **overrides)
        data.pop(dropped, None)
        path = write_config(tmp_path, data)
        assert main([command, "--config", str(path), "--quiet"]) == EXIT_OK
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert config_from_dict(manifest["config"]).to_dict() == manifest["config"]

    def test_readme_config_example_loads(self):
        # a config field renamed or dropped fails here instead of leaving
        # the README's example stale
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
        (example,) = re.findall(r"```json\n(.*?)```", cli_section, re.DOTALL)
        config_from_dict(json.loads(example))  # ConfigError names a stale field


class TestHugeIntegers:
    """Integers that JSON can hold but a float or Python's digit limit
    cannot are config errors (exit 1) naming where they are; they used to
    give a traceback or a "numerical failure" (exit 2)."""

    @pytest.mark.parametrize(
        "path,value,field",
        [
            (("channel", "p"), 10**400, "channel.p"),
            (("optimizer", "eta0"), -(10**400), "optimizer.eta0"),
            (("p_grid",), [0.5, 10**400], "p_grid[1]"),
        ],
        ids=["channel.p", "optimizer.eta0", "p_grid"],
    )
    def test_real_field_beyond_the_float_range(
        self, tmp_path, capsys, path, value, field
    ):
        data = base_config(tmp_path / "run")
        *section, key = path
        (data[section[0]] if section else data)[key] = value
        config = write_config(tmp_path, data)
        assert main(["learn", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {field} is out of the float range\n"
        assert not (tmp_path / "run").exists()

    def test_operator_entry_beyond_the_float_range(self, tmp_path, capsys):
        kraus = flip_channel("bit_flip", 0.8).to_dict()
        kraus["operators"][1][2][0] = 10**400
        channel = {"kind": "custom", "n_qubits": 1, "custom_kraus": kraus}
        config = write_config(tmp_path, base_config(tmp_path / "run", channel=channel))
        assert main(["learn", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "config error: channel.custom_kraus.operators[1][2][0] "
            "is out of the float range\n"
        )
        assert not (tmp_path / "run").exists()
        channel_file = tmp_path / "channel.json"
        channel_file.write_text(json.dumps(kraus))
        assert main(["validate", str(channel_file)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: invalid channel structure in {channel_file}: "
            f"operators[1][2][0] is out of the float range\n"
        )
        assert captured.out == ""

    def test_integer_over_the_digit_limit(self, tmp_path, capsys):
        # json.load refuses integers of more than 4300 digits with a plain
        # ValueError
        huge = "9" * 5000
        data = base_config(tmp_path / "run")
        data["sample"]["count"] = 123456789
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data).replace("123456789", huge))
        assert main(["learn", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot parse config {config}: ")
        assert "4300" in err and not (tmp_path / "run").exists()
        channel_file = tmp_path / "channel.json"
        text = json.dumps(flip_channel("bit_flip", 0.8).to_dict())
        channel_file.write_text(text.replace('"d": 2', f'"d": {huge}'))
        assert main(["validate", str(channel_file)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        prefix = f"config error: cannot parse channel file {channel_file}: "
        assert err.startswith(prefix)
