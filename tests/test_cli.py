"""Config parsing and batch subcommands: exit codes, artifacts, determinism."""

import contextlib
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import starflow
from starflow import chain, cli
from starflow.chain import flip_batch, ray_mark_rows
from starflow.cli import (STREAM_FLIP, STREAM_WALK, _flip_totals, convergence_chunks,
                          flip_stream_ids, main, run_flip_check)
from starflow.config import (PASS_BYTES_PER_STEP, WALK_BYTES_MAX, ConfigError, RunConfig,
                             parse_config)
from starflow.cv import transform
from starflow.errors import SparseCellsError
from starflow.flows import FlowRealization
from starflow.graph import RayParams, junction, point
from starflow.limit import convergence_profiles
from starflow.oracles import tau_sequence
from starflow.walk import generate_walk

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


@pytest.mark.parametrize("text, keys", [
    ("N = 0\n", "N"),
    ("N = -2\nalpha = 1\n", "N"),
    ("N = 2\n", "N, alpha"),  # the default alpha has 3 entries
    ("alpha = 1/2, 1/2\n", "N, alpha"),
    ("N = 4\nalpha = 1/2, 1/3, 1/6\n", "N, alpha"),
])
def test_parse_n_errors_name_n(text, keys):
    # the message opens with the offending keys: "alpha" alone would blame
    # the weights for a bad ray count
    with pytest.raises(ConfigError, match=f"^{keys}: "):
        parse_config(text)


def test_parse_n_with_matching_alpha():
    cfg = parse_config("N = 2\nalpha = 1/4, 3/4\nx_ray = 2\n")
    assert cfg.ray_params().alpha == (Fraction(1, 4), Fraction(3, 4))


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
    # manifests echo the (differing) output_dir, which the hash leaves out,
    # and the wall time; everything else is identical
    m1 = json.loads((out1 / "cv-check_manifest.json").read_text())
    m2 = json.loads((out2 / "cv-check_manifest.json").read_text())
    for m in (m1, m2):
        m["config"].pop("output_dir")
        m.pop("elapsed_s")
    assert m1 == m2


def test_seeds_at_or_above_2_63_have_their_own_streams(tmp_path):
    # a float-valued Philox key once folded 2**63 + 1 onto 2**63 and
    # 2**64 - 1 onto 0
    def cv_csv(seed):
        path = tmp_path / f"config_{seed}.txt"
        path.write_text(f"{SMALL}seed = {seed}\n")
        out = tmp_path / str(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cv-check", "--config", str(path), "--output-dir", str(out)]) == 0
        return (out / "cv_check.csv").read_bytes()

    assert cv_csv(2**63) != cv_csv(2**63 + 1)
    assert cv_csv(2**64 - 1) != cv_csv(0)


def test_flow_check_subcommand(small_config, tmp_path):
    out = tmp_path / "artifacts"
    assert main(["flow-check", "--config", str(small_config),
                 "--output-dir", str(out)]) == 0
    assert (out / "flow-check_manifest.json").exists()


@pytest.mark.parametrize("length", range(2, 13))
def test_flow_check_short_walks(length, tmp_path):
    # the exhaustive kernel and law windows are clamped to the walk
    path = tmp_path / "config.txt"
    path.write_text(f"{SMALL}length = {length}\n")
    out = tmp_path / "artifacts"
    assert main(["flow-check", "--config", str(path), "--output-dir", str(out)]) == 0
    assert (out / "flow_check.csv").exists()


@pytest.mark.parametrize("subcommand, ray_check", [("chain-donsker", "chain_q_chi2"),
                                                    ("chain-donsker", "chain_lazy_chi2"),
                                                    ("flip-check", "flip_exit_chi2")])
def test_one_ray_passes_its_ray_check(subcommand, ray_check, tmp_path):
    # with N = 1 every exit takes the one ray: the ray chi-square has one
    # category, and passes with p = 1 instead of failing on dof 0
    path = tmp_path / "config.txt"
    path.write_text("N = 1\nalpha = 1\nseed = 42\nreplicas = 300\nlength = 200\n")
    out = tmp_path / "artifacts"
    assert main([subcommand, "--config", str(path), "--output-dir", str(out)]) == 0
    rows = json.loads((out / f"{subcommand}_manifest.json").read_text())["checks"]
    assert all(row["status"] == "pass" for row in rows)
    assert [row["value"] for row in rows if row["name"] == ray_check] == [1.0]


def test_flip_check_keeps_one_batch_alive(tmp_path, monkeypatch):
    # each batch is reduced before the next one is built: 10 short replicas
    # and 5 long paths of 70,000 steps, one row per row block; rows that
    # stop early share a batch
    built = []
    flip_batch = chain.flip_batch

    def tracked(*args):
        assert sum(ref() is not None for ref in built) == 0
        batch = flip_batch(*args)
        built.append(weakref.ref(batch))
        return batch

    monkeypatch.setattr(chain, "flip_batch", tracked)
    monkeypatch.setattr(cli, "_cpus", lambda: 1)  # the calls are recorded here
    cfg = parse_config(f"{SMALL}replicas = 100\nlength = 70000\n")
    work = run_flip_check(cfg, tmp_path).work
    assert len(built) == sum(w["batches"] for w in work) == 7


def test_flip_check_builds_rays_only_for_the_short_replicas(tmp_path, monkeypatch):
    # the long paths count only up and down moves, which never read the ray;
    # 30 short replicas make one batch and 5 long paths of 6,000 steps another
    batches = []
    flip_batch = chain.flip_batch
    monkeypatch.setattr(chain, "flip_batch",
                        lambda *args: batches.append(flip_batch(*args)) or batches[-1])
    monkeypatch.setattr(cli, "_cpus", lambda: 1)  # the calls are recorded here
    run_flip_check(parse_config(SMALL), tmp_path)
    assert [(len(b.n_end), "rays" in vars(b)) for b in batches] == [(30, True), (5, False)]


def test_flip_check_manifest_work_counts(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["flip-check", "--config", str(small_config), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "flip-check_manifest.json").read_text())
    work = manifest["work"]
    # 30 short replicas of 200 steps and 5 long paths of 20 * 300 steps
    short, long = STREAM_FLIP * 1000, STREAM_FLIP * 7919
    streams = {"short replicas": range(short, short + 300, 10),
               "long paths": range(long, long + 50, 10)}
    assert flip_stream_ids(300, 200) == (*streams.values(), 6000)
    assert [(w["population"], w["replicas"], w["length"]) for w in work] == [
        ("short replicas", 30, 200), ("long paths", 5, 6000)]
    for w in work:
        assert w["steps"] == w["replicas"] * w["length"]
        assert sorted(w["blocks"]) == sorted(chain.CASES)
        # timed in the process that flipped the population
        assert 0 < w["elapsed_s"] < manifest["elapsed_s"]
        # each walk counts the transitions up to its last tau <= length - 1,
        # over the blocks that end there, each at least 2 steps long
        taus = [tau_sequence(generate_walk(0, w["length"], 42, k).values)
                for k in streams[w["population"]]]
        assert w["live_transitions"] == sum(int(t[-1]) for t in taus if len(t))
        assert w["live_transitions"] <= w["replicas"] * (w["length"] - 1)
        assert sum(w["blocks"].values()) == sum(len(t) for t in taus)
        assert 0 < 2 * sum(w["blocks"].values()) <= w["live_transitions"]
        # one window and, below ROW_BLOCK_STEPS, one batch, as wide as the
        # last stop + 2
        stops = [int(t[-1]) if len(t) else 0 for t in taus]
        assert w["batches"] == 1
        assert w["flipped_columns"] == w["replicas"] * min(w["length"], max(stops) + 2)
    # the short replicas name the least stream at the worst bound deviation,
    # found by flipping each stream alone
    params = RayParams(3, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    dev = {k: int(flip_batch(transform(generate_walk(0, 200, 42, k).increments[None]),
                             *(ray_mark_rows(params, 200, 42, [k + j]) for j in (1, 2)))
                  .bound_deviation()[0]) for k in streams["short replicas"]}
    worst = max(dev.values())
    assert work[0]["worst_stream"] == min(k for k, d in dev.items() if d == worst)
    assert "worst_stream" not in work[1]
    checks = json.loads((out / "flip-check_manifest.json").read_text())["checks"]
    assert checks[0]["name"] == "flip_bound_max_deviation" and checks[0]["value"] == worst


def _flip_results(cfg, out):
    """flip-check's _flip_totals of both populations, with the radius counts
    cut after their last nonzero cell, its CSV written under out, and the
    batches of each population."""
    params = cfg.ray_params()
    short_ids, long_ids, long_len = flip_stream_ids(cfg.replicas, cfg.length)
    results, batches = [], []
    for length, ids, short in ((cfg.length, short_ids, True), (long_len, long_ids, False)):
        worst, counts, work = _flip_totals(params, cfg.seed, length, ids, short)
        batches.append(work.pop("batches"))
        work.pop("flipped_columns")
        # a batch's radius counts run to the largest radius any of its rows
        # reaches by the batch's last stop, so only zero cells can differ
        results.append((worst, {k: np.trim_zeros(v, "b").tolist() for k, v in counts.items()},
                        work))
    out.mkdir()
    run_flip_check(cfg, out)
    return results, (out / "flip_check.csv").read_bytes(), batches


@pytest.mark.parametrize("block_steps, window", [(2_000, 1), (2_000, 3), (650, 2), (10, 16)])
def test_flip_results_do_not_depend_on_the_batching(block_steps, window, tmp_path,
                                                   monkeypatch):
    # 30 short replicas of 200 steps and 5 long paths of 6,000, in windows
    # of one row block up to all of them; the bound, the counts, the cases,
    # the live transitions and the worst stream are those of one batch each
    cfg = parse_config(SMALL)
    results, csv, batches = _flip_results(cfg, tmp_path / "one")
    assert batches == [1, 1]
    monkeypatch.setattr(starflow.walk, "ROW_BLOCK_STEPS", block_steps)
    monkeypatch.setattr(chain, "FLIP_WINDOW_BLOCKS", window)
    got = _flip_results(cfg, tmp_path / "many")
    assert got[:2] == (results, csv)
    assert min(got[2]) > 1


@pytest.mark.parametrize("length", [2, 20])
def test_flip_check_sparse_exits_name_the_test_and_keys(length, tmp_path, capsys):
    # 100 replicas leave 10 short flip replicas, whose few junction exits
    # cannot fill the exit test's cells
    path = tmp_path / "config.txt"
    path.write_text(f"{SMALL}replicas = 100\nlength = {length}\nseed = 7\n")
    code = main(["flip-check", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("flip-check: error: replicas, length: the short-replica exit test ")
    assert f"over 10 replicas of {length} steps" in err and "expected cell counts" in err


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text("alpha = broken\n")
    code = main(["cv-check", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, keys", [("N = 0\n", "N"), ("N = 2\n", "N, alpha")])
def test_bad_ray_count_exit_code(text, keys, tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text(text)
    code = main(["cv-check", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {keys}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("length", "1"),
    ("replicas", "99"),
    ("n_list", "0"),
    ("n_list", "100, 10"),
    ("x_ray", "7"),
    ("x_radius", "-0.5"),
    ("T", "0"),
    ("seed", "-1"),
    ("seed", str(2**64)),
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


@pytest.mark.parametrize("key, value", [
    ("T", "inf"),
    ("s", "nan"),
    ("s", "inf"),
    ("x_radius", "inf"),
    ("s", "1e308"),  # finite, but n (s + T) overflows
    ("n_list", "1" + "0" * 400),  # too large for a float
])
def test_non_finite_value_exit_code(key, value, tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text(f"{SMALL}{key} = {value}\n")
    code = main(["convergence", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, keys", [
    # round(sqrt(10^4) x_radius) and the window's steps overflow int64
    ("x_radius", "1e17", "x_radius"),
    ("x_radius", "1e300", "x_radius"),
    # n (s + T) is finite, but the window [p_min, p_max] is not int64
    ("s", "1e300", "n_list, s, T"),
    ("T", "1e300", "n_list, s, T"),
    ("s", "-1e300", "n_list, s, T"),
])
def test_oversized_window_exit_code(key, value, keys, tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text(f"{SMALL}n_list = 100, 10000\n{key} = {value}\n")
    code = main(["convergence", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {keys}: ") and "does not fit int64" in err
    assert f"{key} = {float(value)}" in err
    assert not (tmp_path / "out").exists()


def test_window_past_the_walk_memory_budget_exit_code(tmp_path, capsys):
    # 2 10^17 steps fit int64, but not in memory: refused before any walk
    path = tmp_path / "config.txt"
    path.write_text(f"{SMALL}n_list = 1, 2\ns = 1e17\n")
    code = main(["convergence", "--config", str(path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: n_list, s, T: ") and "WALK_BYTES_MAX" in err
    assert "s = 1e+17" in err
    assert not (tmp_path / "out").exists()


def test_walk_memory_budget_edge():
    # at n = 1 from s = 0 the window has ceil(T) + 1 steps, each held by up
    # to PASS_BYTES_PER_STEP bytes of the pass
    steps = WALK_BYTES_MAX // PASS_BYTES_PER_STEP
    parse_config(f"{SMALL}n_list = 1\nT = {steps - 1}\n")
    with pytest.raises(ConfigError, match="WALK_BYTES_MAX"):
        parse_config(f"{SMALL}n_list = 1\nT = {steps}\n")


@pytest.mark.parametrize("s, x", [(0.0, junction(3)), (0.0, point(1, 0.5, 3)),
                                  (-0.25, point(2, 0.3, 3))])
def test_pass_peak_stays_under_the_per_step_bound(s, x):
    # the traced peak of each chunk's draws and pass, per window step of its
    # replicas: one replica a chunk at n = 20,000, several at n = 1,000
    params = RunConfig().ray_params()
    for n, replicas in ((20_000, 1), (1_000, 12)):
        tracemalloc.start()
        try:
            for reps, fr in convergence_chunks(params, 42, s, 1.0, n, replicas):
                convergence_profiles(fr, params, s, 1.0, x, n)
                steps = len(reps) * (fr.walk.p_max - fr.walk.p_min)
                assert tracemalloc.get_traced_memory()[1] <= steps * PASS_BYTES_PER_STEP
                del fr
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("route", ["flag", "key"])
def test_output_dir_on_a_file_exit_code(route, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    path = tmp_path / "config.txt"
    path.write_text(SMALL + (f"output_dir = {taken}\n" if route == "key" else ""))
    argv = ["cv-check", "--config", str(path)]
    code = main(argv + (["--output-dir", str(taken)] if route == "flag" else []))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: output_dir: {taken}: ")


def test_config_on_a_directory_exit_code(tmp_path, capsys):
    code = main(["cv-check", "--config", str(tmp_path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: config file {tmp_path}: ")
    assert not (tmp_path / "out").exists()


def test_config_not_utf8_exit_code(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_bytes(SMALL.encode() + b"output_dir = \xff\n")
    code = main(["cv-check", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: config file {path}: not UTF-8")
    assert not (tmp_path / "out").exists()


def test_config_as_dict_keys_and_values():
    # the manifests' config block and input_hash read this dict, key order included
    want = {"N": 3, "alpha": "1/2,1/3,1/6", "seed": 20260826, "replicas": 10_000,
            "length": 1_000, "n_list": "100,1000,10000", "T": 1.0, "s": 0.0, "x_ray": 1,
            "x_radius": 0.0, "output_dir": "artifacts"}
    assert list(RunConfig().as_dict().items()) == list(want.items())
    parsed = parse_config(SMALL + "T = 2\nx_radius = 1.5\n").as_dict()
    assert list(parsed) == list(want)
    assert (parsed["alpha"], parsed["n_list"], parsed["T"], parsed["x_radius"]) == \
        ("1/2,1/3,1/6", "100,400", 2.0, 1.5)


def test_convergence_manifest_work_counts(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(small_config),
                 "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "convergence_manifest.json").read_text())
    work = manifest["work"]
    assert [w["n"] for w in work] == [100, 400]
    assert [w["replicas"] for w in work] == [15, 15]
    # 15 replicas over the default mesh of 2n + 1 times
    assert [w["times"] for w in work] == [15 * 201, 15 * 801]
    assert all(0 < w["beta_evaluations"] <= w["beta_pairs"] < w["times"] for w in work)
    # the replicas share their solves: each distinct pair is solved once
    assert all(0 < w["beta_solves"] < w["beta_evaluations"] for w in work)


def test_convergence_chunk_boundaries_keep_the_rows(small_config, tmp_path, monkeypatch):
    # 15 replicas at n = 100 in chunks of 11 and 4: every row field equals
    # that of one-realization calls that share one dict in replica order,
    # and every field but beta_solves that of calls with a fresh dict each
    params = RunConfig().ray_params()
    x = point(2, 0.5, 3)
    monkeypatch.setattr(starflow.walk, "ROW_BLOCK_STEPS", 16 * 401 * 3)
    ones = [FlowRealization.generate(params, 0, 101, 42, 10_000 + r, 20_000 + r)
            for r in range(15)]
    betas = {}
    chunks = []
    for reps, fr in convergence_chunks(params, 42, 0.0, 1.0, 100, 15):
        # each chunk row is its replica's realization
        assert np.array_equal(fr.walk.increments, [ones[r].walk.increments for r in reps])
        assert np.array_equal(fr.eta, [ones[r].eta for r in reps])
        chunks.append((reps, convergence_profiles(fr, params, 0.0, 1.0, x, 100, betas=betas)))
    assert [len(reps) for reps, _ in chunks] == [11, 4]
    rows = [row for _, part in chunks for row in part]
    betas = {}
    assert rows == [convergence_profiles(fr, params, 0.0, 1.0, x, 100, betas=betas)[0]
                    for fr in ones]
    fresh = [convergence_profiles(fr, params, 0.0, 1.0, x, 100)[0] for fr in ones]
    for row in rows + fresh:
        row.pop("beta_solves")
    assert rows == fresh
    # the CLI: chunks of 3 at n = 400 and of 11 at n = 100, and of one
    # replica each, write the files and work counts of the default chunks
    outputs = []
    for block in (None, 16 * 401 * 3, 1):
        if block:
            monkeypatch.setattr(starflow.walk, "ROW_BLOCK_STEPS", block)
        else:
            monkeypatch.undo()
        out = tmp_path / f"out_{block}"
        assert main(["convergence", "--config", str(small_config), "--output-dir", str(out)]) == 0
        work = json.loads((out / "convergence_manifest.json").read_text())["work"]
        outputs.append([work, *((out / name).read_bytes() for name in
                                ("convergence_beta.csv", "convergence_distance.csv",
                                 "convergence.svg"))])
    assert outputs[0] == outputs[1] == outputs[2]


def test_convergence_negative_fractional_start(tmp_path):
    # n * s = -2.5 at n = 10: the window has to start at floor(-2.5) = -3
    # for the rescaled path to cover s
    path = tmp_path / "config.txt"
    path.write_text(f"{SMALL}s = -0.25\nn_list = 10, 100, 1000\n")
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(path), "--output-dir", str(out)]) == 0
    assert (out / "convergence_beta.csv").exists()


def test_workers_key_removed():
    with pytest.raises(ConfigError, match="workers"):
        parse_config("workers = 1\n")


def test_unknown_subcommand_rejected(small_config):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", str(small_config)])


# SHA-256 of every CSV and SVG that `starflow all` writes at SMALL with
# x_radius = 0.5.  Manifests are left out: they echo the package, Python and
# numpy versions and the output directory.
GOLDEN_DIGESTS = {
    "chain_donsker.csv": "ac122f1af2ac7d0c185d185a142ae51fa1b09ba2b44b2491febf616922c3d173",
    "convergence_beta.csv": "e294013f10d4056aada53be078c56de81fed390c61792b61ec506f8bf2b81eff",
    "convergence_distance.csv": "44117692b8fb5d7c83f2cc7cd8698d1060913a6cbc383ec80182544434b596bc",
    "cv_check.csv": "85ecbf7ad265b79843a04b7329e6df4e348eaf3259cbf39236b9ddcfdd2ac1ab",
    "flip_check.csv": "26420d78d9e9753527ed0b6f5677bab2b57a2ef5bd1bdb0e5622b26817782456",
    "flow_check.csv": "cf43f04203ef4091f673708a7025b68445e5058ca9670c05b176dec8c38a3511",
    "convergence.svg": "847ef0223c61a86e2cae071d6746d6242cb03de99557f7f642c5de28ad86ac16",
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


def _run_python(code: str) -> str:
    """Standard output of a fresh interpreter running code on this package."""
    src = str(Path(starflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    # the CLI needs no scipy; the LP oracle imports scipy.optimize when it is
    # called
    assert _run_python(
        "import sys, starflow.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    ) == "[]"


def test_cli_import_leaves_out_scipy():
    # the p-values and the half-normal CDF are closed forms over math
    assert _run_python("import sys, starflow.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
                       ) == "[]"


def test_cli_import_leaves_out_the_oracles():
    # the oracles are for tests; the CLI never loads them
    assert _run_python("import sys, starflow.cli; "
                       "print('starflow.oracles' in sys.modules)") == "False"


def test_runs_import_nothing_after_the_cli(tmp_path):
    # every module a run needs is loaded with starflow.cli, so a timed run
    # pays for no import: numpy loads numpy.random and numpy.ma lazily, and
    # argparse the locale module
    config = tmp_path / "config.txt"
    config.write_text(SMALL)
    out = tmp_path / "out"
    assert _run_python(
        "import sys, starflow.cli; before = set(sys.modules); "
        f"code = starflow.cli.main(['all', '--config', {str(config)!r}, "
        f"'--output-dir', {str(out)!r}]); "
        "print(code, sorted(set(sys.modules) - before))").splitlines()[-1] == "0 []"


def test_manifests_record_versions(small_config, tmp_path):
    out = tmp_path / "out"
    main(["all", "--config", str(small_config), "--output-dir", str(out)])
    paths = sorted(out.glob("*_manifest.json"))
    assert len(paths) == 5
    for path in paths:
        manifest = json.loads(path.read_text())
        assert (manifest["version"], manifest["python"], manifest["numpy"]) == (
            starflow.__version__, platform.python_version(), np.__version__)
        assert isinstance(manifest["elapsed_s"], float) and manifest["elapsed_s"] > 0


def test_flow_check_manifest_work_counts(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["flow-check", "--config", str(small_config), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "flow-check_manifest.json").read_text())
    # the law window is the first 10 steps of the 64-step walk; its marks
    # are enumerated at the times where S sits at its running minimum
    s = generate_walk(0, 64, 42, STREAM_WALK).values[:10]
    departures = int(np.sum(s == np.minimum.accumulate(s)))
    assert manifest["work"] == [
        {"check": "psi_cocycle_violations", "trials": 200},
        {"check": "psi_closed_form_violations", "comparisons": 200},
        {"check": "kernel_closed_form_violations", "grid_cells": 13 * 14 // 2 * 4},
        {"check": "kernel_conditional_law", "assignments": 3 ** departures}]
    assert [row["name"] for row in manifest["checks"]] == [w["check"] for w in manifest["work"]]


def test_chain_donsker_chi2_threshold_is_the_adjusted_level(small_config, tmp_path):
    out = tmp_path / "out"
    main(["chain-donsker", "--config", str(small_config), "--output-dir", str(out)])
    rows = json.loads((out / "chain-donsker_manifest.json").read_text())["checks"]
    chi2 = [row for row in rows if row["name"].endswith("_chi2")]
    assert [row["threshold"] for row in chi2] == ["> 0.005", "> 0.005"]
    assert all((row["status"] == "pass") == (row["value"] > 0.005) for row in chi2)


def test_chain_donsker_manifest_work_rows(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["chain-donsker", "--config", str(small_config), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "chain-donsker_manifest.json").read_text())
    work = manifest["work"]
    assert [{k: v for k, v in w.items() if k != "elapsed_s"} for w in work] == [
        {"chain": "chain_q", "replicas": 300, "steps": 300 * 200},
        {"chain": "chain_lazy", "replicas": 300, "steps": 300 * 200}]
    # each chain is timed in the process that ran it
    assert all(0 < w["elapsed_s"] < manifest["elapsed_s"] for w in work)


def _assert_no_worker_left():
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs past seconds,
    so that a deadlock fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _artifacts(out):
    """The CSVs and manifests under out: the manifests without the output
    directory and the timings."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            manifest = json.loads(path.read_text())
            manifest.pop("elapsed_s")
            manifest["config"].pop("output_dir")
            for row in manifest.get("work", []):
                row.pop("elapsed_s")
            found[path.name] = manifest
        else:
            found[path.name] = path.read_bytes()
    return found


@pytest.mark.parametrize("extra, block_steps, cuts", [
    ("", None, [0]),  # one row block: cv-check runs in one part
    ("length = 999\n", None, [0, 131]),  # 3 blocks of 131 rows; step 130,869
    ("length = 201\n", 201 * 7, [0, 147]),  # 43 blocks of 7 rows; step 29,547
], ids=["SMALL", "length 999", "length 201, 7-row blocks"])
def test_results_do_not_depend_on_the_process_count(extra, block_steps, cuts, tmp_path,
                                                    monkeypatch):
    # cv-check splits at a row block, which an odd length can put on an odd
    # step; chain-donsker's chains and flip-check's populations are two jobs
    if block_steps:
        monkeypatch.setattr(starflow.walk, "ROW_BLOCK_STEPS", block_steps)
    path = tmp_path / "config.txt"
    path.write_text(SMALL + extra)
    parts = tmp_path / "parts.txt"
    draw = cli.increment_blocks

    def recorded(replicas, length, seed, stream_id, first_row):
        # a file, since a worker's memory is gone when it exits
        with parts.open("a") as fh:
            fh.write(f"{first_row} {replicas} {os.getpid()}\n")
        return draw(replicas, length, seed, stream_id, first_row)

    monkeypatch.setattr(cli, "increment_blocks", recorded)
    got = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        parts.write_text("")
        out = tmp_path / str(cpus)
        for sub in ("cv-check", "chain-donsker", "flip-check"):
            assert main([sub, "--config", str(path), "--output-dir", str(out)]) == 0
        _assert_no_worker_left()
        got.append(_artifacts(out))
        drawn = sorted(tuple(map(int, line.split())) for line in parts.read_text().splitlines())
        firsts = cuts if cpus == 2 else [0]
        assert [(first, replicas) for first, replicas, _ in drawn] == list(
            zip(firsts, [*firsts[1:], 300]))
        assert len({pid for _, _, pid in drawn}) == len(firsts)
    assert len(got[0]) == 6 and got[0] == got[1]
    length = parse_config(path.read_text()).length
    assert [first * length % 2 for first in cuts[1:]] == [1] * (len(cuts) - 1)


def test_processes_are_at_most_two_and_forked_only_on_linux(monkeypatch):
    # asks for no process: only the count is read
    monkeypatch.setattr(cli.sys, "platform", "linux")
    for cpus, counts in ((1, [1, 1, 1, 1]), (2, [1, 1, 2, 2]), (8, [1, 1, 2, 2])):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        assert [cli._processes(jobs) for jobs in (0, 1, 2, 77)] == counts
    monkeypatch.setattr(cli.sys, "platform", "darwin")
    assert cli._processes(2) == 1


def test_worker_error_reaches_main_as_exit_2(small_config, tmp_path, capsys, monkeypatch):
    # the lazy chain, the second job, runs in the worker
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    parent = os.getpid()
    check = cli.walsh_marginal_check

    def failing(*args):
        if os.getpid() != parent:
            raise SparseCellsError(f"replicas: raised in process {os.getpid()}")
        return check(*args)

    monkeypatch.setattr(cli, "walsh_marginal_check", failing)
    code = main(["chain-donsker", "--config", str(small_config),
                 "--output-dir", str(tmp_path / "out")])
    _assert_no_worker_left()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("chain-donsker: error: replicas: raised in process ")
    assert int(err.split()[-1]) != parent


def test_worker_that_exits_without_a_result_raises(monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    parent = os.getpid()
    with _deadline(60), pytest.raises(RuntimeError, match="exited with code 3 and no result"):
        cli._run_jobs([lambda: 1, lambda: 2 if os.getpid() == parent else os._exit(3)])
    _assert_no_worker_left()


def test_parent_error_while_a_worker_writes_does_not_hang(monkeypatch):
    # the worker's result outgrows the 64 KiB pipe buffer, so it blocks in
    # the write until the parent gives up its read end
    monkeypatch.setattr(cli, "_cpus", lambda: 2)

    def fail():
        time.sleep(0.2)
        raise ValueError("in the parent")

    with _deadline(60), pytest.raises(ValueError, match="in the parent"):
        cli._run_jobs([fail, lambda: b"x" * 2**20])
    _assert_no_worker_left()


def test_nested_calls_run_serially(monkeypatch):
    monkeypatch.setattr(cli, "_cpus", lambda: 2)

    def nested():
        first = cli._run_jobs([os.getpid, os.getpid])
        return cli._processes(2), first + cli._run_jobs([os.getpid, os.getpid])

    with _deadline(60):
        outer = cli._run_jobs([nested, nested, os.getpid])
    _assert_no_worker_left()
    here = os.getpid()
    assert outer[0] == (1, [here] * 4) and outer[2] == here
    worker = outer[1][1][0]
    assert outer[1] == (1, [worker] * 4) and worker != here
    assert cli._processes(2) == 2
