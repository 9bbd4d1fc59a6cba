"""Config parsing and batch subcommands: exit codes, artifacts, determinism."""

import hashlib
import json
from fractions import Fraction

import pytest

from starflow.cli import main
from starflow.config import ConfigError, parse_config

SMALL = """
N = 3
alpha = 1/2, 1/3, 1/6
seed = 42
replicas = 300
length = 200
n_list = 100, 400
"""


def test_parse_defaults_and_overrides():
    cfg = parse_config(SMALL)
    assert cfg.N == 3
    assert cfg.alpha == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert cfg.replicas == 300
    assert cfg.n_list == (100, 400)
    assert cfg.T == 1.0  # untouched default


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# comment\n\nseed = 7  # trailing\n")
    assert cfg.seed == 7


def test_parse_bad_alpha_names_key():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha = 1/2, nope, 1/6\n")


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config("mystery = 3\n")


def test_parse_bad_int():
    with pytest.raises(ConfigError, match="replicas"):
        parse_config("replicas = many\n")


def test_parse_bad_n_list():
    with pytest.raises(ConfigError, match="n_list"):
        parse_config("n_list = 100, x\n")


def test_parse_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_alpha_must_sum_to_one():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha = 1/2, 1/3, 1/3\n").ray_params()


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(SMALL)
    return path


def test_cv_check_subcommand(small_config, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["cv-check", "--config", str(small_config),
                 "--output-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pass" in stdout and "fail" not in stdout
    manifest = json.loads((out / "cv-check_manifest.json").read_text())
    assert manifest["subcommand"] == "cv-check"
    assert len(manifest["input_hash"]) == 64
    assert all(row["status"] == "pass" for row in manifest["checks"])
    assert (out / "cv_check.csv").exists()


def test_cv_check_reproducible(small_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["cv-check", "--config", str(small_config),
                     "--output-dir", str(out)]) == 0
    assert (out1 / "cv_check.csv").read_bytes() == \
        (out2 / "cv_check.csv").read_bytes()
    # manifests echo the (differing) output_dir, which the hash leaves out;
    # everything else is identical
    m1 = json.loads((out1 / "cv-check_manifest.json").read_text())
    m2 = json.loads((out2 / "cv-check_manifest.json").read_text())
    for m in (m1, m2):
        m["config"].pop("output_dir")
    assert m1 == m2


def test_flow_check_subcommand(small_config, tmp_path):
    out = tmp_path / "artifacts"
    assert main(["flow-check", "--config", str(small_config),
                 "--output-dir", str(out)]) == 0
    assert (out / "flow-check_manifest.json").exists()


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text("alpha = broken\n")
    code = main(["cv-check", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("length", "1"),
    ("replicas", "99"),
    ("n_list", "0"),
    ("n_list", "100, 10"),
    ("x_ray", "7"),
    ("x_radius", "-0.5"),
    ("T", "0"),
])
def test_out_of_range_value_exit_code(key, value, tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text(f"{SMALL}{key} = {value}\n")
    code = main(["convergence", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


def test_workers_key_removed():
    with pytest.raises(ConfigError, match="workers"):
        parse_config("workers = 1\n")


def test_unknown_subcommand_rejected(small_config):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", str(small_config)])


# SHA-256 of every CSV and SVG that `starflow all` writes at SMALL with
# x_radius = 0.5.  Manifests are left out: they echo the version and the
# output directory.
GOLDEN_DIGESTS = {
    "chain_donsker.csv": "966efbdcef0d74409bd2357215a657ec0de1e3be2e19cce8ee109b84d87e7be5",
    "convergence_beta.csv": "33d5a7a368cd00d0ecd42b0397682cff6dc1360fd9d201dab7b9d03adafb5940",
    "convergence_distance.csv": "f62ba8f4760c5560d54adec36f3522428a8b9ee1bbde2120a9e9d8bc932f30a8",
    "cv_check.csv": "85ecbf7ad265b79843a04b7329e6df4e348eaf3259cbf39236b9ddcfdd2ac1ab",
    "flip_check.csv": "b0eb3279a113adcd602dbd09c39506f45fd824c27235bf0a3611c3e73330aa2e",
    "flow_check.csv": "cf43f04203ef4091f673708a7025b68445e5058ca9670c05b176dec8c38a3511",
    "convergence.svg": "473e2a2656fbc5dde04ef57dca69457bb759a3b78ed722a6ca1f6ea0c23ead17",
}


def test_all_artifacts_golden(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(SMALL + "x_radius = 0.5\n")
    out = tmp_path / "artifacts"
    assert main(["all", "--config", str(path), "--output-dir", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir() if p.suffix in (".csv", ".svg"))
    assert written == sorted(GOLDEN_DIGESTS)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in written}
    assert digests == GOLDEN_DIGESTS
