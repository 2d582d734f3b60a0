import json

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
    load_states,
    main,
    run_curve,
    run_single,
    validate_channel_file,
)
from kraussphere.channels import flip_channel
from kraussphere.geometry import KrausSet


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
        states = load_states(out / "states.json")
        assert len(states) == 25 and states[0].shape == (2, 2)

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
        channel = KrausSet.from_dict(saved["channel"])
        for a, b in zip(channel.operators, result.channel.operators):
            assert np.array_equal(a, b)


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

    def test_sample_outputs_states(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "samples"))
        assert main(["sample", "--config", str(path)]) == EXIT_OK
        states = load_states(tmp_path / "samples" / "states.json")
        assert len(states) == 25
