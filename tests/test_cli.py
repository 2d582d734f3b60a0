import json
import re

import numpy as np
import pytest

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
  "sample_seed": 60,
  "optimizer_seed": 5,
  "ignored_fields": [
    "optimizer.epsilon"
  ]
}
"""


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
        with pytest.raises(ConfigError, match="malformed JSON"):
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
        with pytest.raises(ConfigError, match=f"{field} must be a JSON int"):
            config_from_dict(data)

    @pytest.mark.parametrize("field", ["d", "m", "operators"])
    def test_custom_kraus_missing_field(self, tmp_path, capsys, field):
        # used to print only "config error: 'd'"
        kraus = flip_channel("bit_flip", 0.8).to_dict()
        del kraus[field]
        channel = {"kind": "custom", "n_qubits": 1, "custom_kraus": kraus}
        data = base_config(tmp_path / "run", channel=channel)
        with pytest.raises(ConfigError, match=f"missing required field '{field}'"):
            config_from_dict(data)
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"Kraus set is missing required field '{field}'" in err

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

    def test_retired_optimizer_fields_load_and_are_listed(self, tmp_path):
        # older configs carried the central-difference step and thread count
        data = base_config(tmp_path / "run")
        data["optimizer"].update({"epsilon": 1e-6, "threads": 2})
        config = config_from_dict(data)
        assert config.ignored_fields == ["optimizer.epsilon", "optimizer.threads"]
        assert set(config.to_dict()["optimizer"]).isdisjoint({"epsilon", "threads"})
        run_single(config)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["ignored_fields"] == ["optimizer.epsilon", "optimizer.threads"]
        assert "epsilon" not in manifest["config"]["optimizer"]

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
        assert content[0] == CSV_HEADER
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


class TestValidateChannelFile:
    def test_identity_channel(self, tmp_path):
        path = tmp_path / "identity.json"
        ops = [np.eye(2, dtype=complex)] + [np.zeros((2, 2), dtype=complex)] * 3
        path.write_text(json.dumps(KrausSet(d=2, m=4, operators=ops).to_dict()))
        report = validate_channel_file(path, quiet=True)
        assert report["complete"]
        assert report["completeness_deviation"] <= 1e-12
        assert report["effectively_unitary"]

    def test_bit_flip_weights(self, tmp_path):
        path = tmp_path / "bf.json"
        path.write_text(json.dumps(flip_channel("bit_flip", 0.8).to_dict()))
        report = validate_channel_file(path, quiet=True)
        assert np.allclose(report["weights"], [0.2, 0.8])
        assert not report["effectively_unitary"]

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 2, "m": 2, "operators": [[')
        with pytest.raises(ConfigError, match="line"):
            validate_channel_file(path, quiet=True)

    @pytest.mark.parametrize(
        "change,match",
        [
            ({"operators": [[[1, 0], [0, 0], [0, 0], [1, 0]], [[0, 0]]]}, "shape"),
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

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["learn", "--config", str(path), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_config_error_exit(self, tmp_path, capsys):
        data = base_config(tmp_path / "run")
        data["typo_field"] = 1
        path = write_config(tmp_path, data)
        assert main(["learn", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["learn", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_validate_incomplete_channel_exit(self, tmp_path):
        path = tmp_path / "half.json"
        half = KrausSet(d=2, m=1, operators=[0.5 * np.eye(2, dtype=complex)])
        path.write_text(json.dumps(half.to_dict()))
        assert main(["validate", str(path), "--quiet"]) == EXIT_NUMERIC

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
        assert manifest["sample_seed"] == 61
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

    def test_manifest_bytes(self, tmp_path):
        # the manifest as written before the sections came from asdict
        data = base_config(tmp_path / "out", p_grid=[0.2, 0.8])
        data["optimizer"] = {
            "max_iters": 20, "init": "small_random", "seed": 5, "epsilon": 1e-4
        }
        path = write_config(tmp_path, data)
        assert main(["sample", "--config", str(path), "--quiet"]) == EXIT_OK
        expected = MANIFEST.replace("OUT", str(tmp_path / "out"))
        assert (tmp_path / "out" / "manifest.json").read_text() == expected

    def test_sample_outputs_states(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "samples"))
        assert main(["sample", "--config", str(path)]) == EXIT_OK
        saved = tmp_path / "samples" / "states.json"
        states = matrices_from_pairs(json.loads(saved.read_text()))
        assert len(states) == 25
