import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reachtrack.config import (
    ConfigError,
    config_from_dict,
    default_config,
    default_config_dict,
)
from reachtrack.reachability import ReachabilityMap, save_map

SRC = Path(__file__).resolve().parents[1] / "src"


def _with_planner(planner: dict) -> dict:
    data = default_config_dict()
    data["planner"] = {"profile": "paper-table1", **planner}
    return data


def test_default_config_accepted():
    cfg = config_from_dict(default_config_dict())
    assert cfg.planner.w_d.w0 > 0.0


def test_short_weight_vector_rejected():
    with pytest.raises(ConfigError, match="^planner: "):
        config_from_dict(_with_planner({"w_d": [1, 2]}))


@pytest.mark.parametrize("key", ["w_d", "w_theta", "w_occl", "w_col", "w_reach"])
@pytest.mark.parametrize("value", [[1, 2], [1, 2, 3, 4], "abc", 3, [1, "x", 2]])
def test_bad_weight_vectors_rejected(key, value):
    with pytest.raises(ConfigError):
        config_from_dict(_with_planner({key: value}))


@pytest.mark.parametrize("key", ["delta_lower", "delta_upper"])
@pytest.mark.parametrize("value", [[0.1, 0.2], [[0.1], [0.2, 0.3]], "abc", [0.1] * 7])
def test_bad_delta_vectors_rejected(key, value):
    with pytest.raises(ConfigError):
        config_from_dict(_with_planner({key: value}))


@pytest.mark.parametrize("key, value", [("cone_base_radius", 0), ("fd_step", 0),
                                        ("max_evaluations", "x"), ("step_tolerance", 0)])
def test_bad_planner_scalars_rejected(key, value):
    with pytest.raises(ConfigError, match=f"^planner: {key} "):
        config_from_dict(_with_planner({key: value}))


@pytest.mark.parametrize("section, key, value", [
    ("ik", "damping", "x"),
    ("ik", "max_iterations", 2.5),
    ("scenario", "grid_resolution", 0),
    ("reachability", "resolution", 0),
    ("reachability", "orientations", 0),
])
def test_bad_section_values_rejected(section, key, value):
    data = default_config_dict()
    data[section] = {key: value}
    with pytest.raises(ConfigError, match=f"^{section}: {key} "):
        config_from_dict(data)


def _cli(tmp_path, config: dict | None, *args):
    """Run the CLI in tmp_path with `config` as its config file; with None
    the file does not exist."""
    path = tmp_path / "bad.json"
    if config is not None:
        path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run(
        [sys.executable, "-m", "reachtrack", *args, "--config", str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def _assert_error_line(done, code, error_class, prefix=""):
    """The CLI failed with exit `code` and printed one `error-class: message` line."""
    assert done.returncode == code
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{error_class}: {prefix}")


def _assert_config_error(done, prefix):
    _assert_error_line(done, 2, "config-error", prefix)


def test_cli_reports_config_error_in_one_line(tmp_path):
    done = _cli(tmp_path, _with_planner({"w_d": [1, 2]}),
                "export-slice", "--z", "1.0", "--map", str(tmp_path / "none.bin"))
    _assert_config_error(done, "planner: ")


@pytest.mark.parametrize("key, value", [("cone_base_radius", 0), ("fd_step", 0),
                                        ("max_evaluations", "x")])
def test_cli_run_rejects_bad_planner_values(tmp_path, key, value):
    done = _cli(tmp_path, _with_planner({key: value}),
                "run", "--runs", "1", "--ablation", "track+occl+col", "--out", str(tmp_path))
    _assert_config_error(done, f"planner: {key} ")


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_cli_run_rejects_runs_below_one(tmp_path, runs):
    done = _cli(tmp_path, default_config_dict(),
                "run", "--runs", runs, "--ablation", "track", "--out", str(tmp_path))
    _assert_config_error(done, "runs must be an integer >= 1")
    assert not (tmp_path / "aggregate.csv").exists()


def test_cli_missing_config(tmp_path):
    done = _cli(tmp_path, None, "run", "--runs", "1", "--ablation", "track",
                "--out", str(tmp_path))
    _assert_error_line(done, 3, "missing-config", f"no such file: {tmp_path / 'bad.json'}")
    assert not (tmp_path / "aggregate.csv").exists()


def test_cli_missing_map(tmp_path):
    done = _cli(tmp_path, default_config_dict(),
                "export-slice", "--z", "1.0", "--map", str(tmp_path / "none.bin"))
    _assert_error_line(done, 3, "missing-map", f"{tmp_path / 'none.bin'} not found")


def test_cli_bad_map_file(tmp_path):
    (tmp_path / "junk.bin").write_bytes(b"not a map\n")
    done = _cli(tmp_path, default_config_dict(),
                "export-slice", "--z", "1.0", "--map", str(tmp_path / "junk.bin"))
    _assert_error_line(done, 2, "bad-map-file", "not a reachability map file")


def test_cli_map_chain_mismatch(tmp_path):
    rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.5, dims=(2, 2, 2),
                           scores=np.zeros((2, 2, 2)), chain_hash="another-chain")
    save_map(rmap, tmp_path / "map.bin")
    done = _cli(tmp_path, default_config_dict(),
                "export-slice", "--z", "1.0", "--map", str(tmp_path / "map.bin"))
    _assert_error_line(done, 2, "map-chain-mismatch", "map was built for chain another-chain")


def _desk_map(tmp_path):
    """A 2 × 2 × 2 map of 0.5 m cells built for the default config's chain."""
    rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.5, dims=(2, 2, 2),
                           scores=np.arange(8.0).reshape(2, 2, 2) / 8,
                           chain_hash=default_config().chain.hash())
    save_map(rmap, tmp_path / "map.bin")
    return tmp_path / "map.bin"


@pytest.mark.parametrize("z", ["nan", "inf"])
def test_cli_export_slice_rejects_non_finite_z(tmp_path, z):
    done = _cli(tmp_path, default_config_dict(),
                "export-slice", "--z", z, "--map", str(_desk_map(tmp_path)))
    _assert_config_error(done, f"--z must be a finite height, got {z}")
    assert not (tmp_path / "slice.csv").exists()


def test_cli_export_slice_creates_the_out_file_directory(tmp_path):
    out_file = tmp_path / "missing" / "dir" / "s.csv"
    done = _cli(tmp_path, default_config_dict(), "export-slice", "--z", "0.7",
                "--map", str(_desk_map(tmp_path)), "--out-file", str(out_file))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(out_file)
    lines = out_file.read_text().splitlines()
    assert lines[1] == "x,y,z,score"
    assert [float(row.split(",")[2]) for row in lines[2:]] == [0.75] * 4
    assert [float(row.split(",")[3]) for row in lines[2:]] == [0.125, 0.375, 0.625, 0.875]
