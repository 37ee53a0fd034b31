"""End-to-end tests for the command line: config parsing, fit/transform/sweep/
table1 artifacts, exit codes, and the --seed and --jobs flags.

Everything runs on the synthetic dataset with tiny budgets so the whole file
stays fast; artifact *shape* and determinism are what matter here, not scores.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fairstack import cli
from fairstack.cli import main
from fairstack.config import (ConfigError, config_hash, load_config,
                              load_dataset, parse_config, resolve_data_path,
                              stack_spec_for)
from fairstack.data import make_synthetic, standardize, train_val_test_split
from fairstack.model import TrainedStack
from fairstack.training import DivergenceError, train_stack


def _base_config(out_dir: str) -> dict:
    return {
        "dataset": {"id": "synthetic", "n": 120, "n_noise": 1},
        "stack": {"levels": [{"hidden": [5], "latent": 3}],
                  "adv_hidden": 4, "cls_hidden": 4},
        "train": {"epochs": 2, "batch": 32},
        "loss": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0},
        "sweep": {"betas": [0.0, 1.0]},
        "seeds": [0],
        "out_dir": out_dir,
        "cv_folds": 2,
        "probe": {"hidden": 4, "epochs": 3, "batch": 32},
        "forest": {"n_trees": 3, "max_depth": 3},
    }


def _write_config(dir_path: Path, name: str = "config.json", **overrides) -> Path:
    """The base config with each section of ``overrides`` merged in; a
    dataset of another id replaces the dataset section, since each id reads
    its own keys."""
    cfg = _base_config(str(dir_path / "runs"))
    for key, value in overrides.items():
        if key == "dataset" and value.get("id", "synthetic") != "synthetic":
            cfg[key] = value
        elif isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    path = dir_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def _run_dir_from(out: str) -> Path:
    """The artifact directory a command printed on its last stdout line."""
    line = out.strip().splitlines()[-1]
    if "-> " in line:
        return Path(line.rsplit("-> ", 1)[1])
    return Path(line.rsplit(" in ", 1)[1])


def _read_csv_rows(path: Path) -> list:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# config parsing


def test_unknown_top_level_key_rejected():
    cfg = _base_config("runs")
    cfg["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(cfg)


def test_unknown_nested_key_names_dotted_path():
    cfg = _base_config("runs")
    cfg["train"]["epoch"] = 5  # typo for "epochs"
    with pytest.raises(ConfigError, match=r"train\.epoch"):
        parse_config(cfg)
    # the message should also say what would have been accepted
    with pytest.raises(ConfigError, match="allowed here"):
        parse_config(cfg)


def test_levels_required_and_nonempty():
    cfg = _base_config("runs")
    del cfg["stack"]["levels"]
    with pytest.raises(ConfigError, match=r"stack\.levels"):
        parse_config(cfg)
    cfg["stack"]["levels"] = []
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(cfg)


def test_levels_must_strictly_decrease():
    cfg = _base_config("runs")
    cfg["stack"]["levels"] = [{"hidden": [5], "latent": 4},
                              {"hidden": [], "latent": 4}]
    with pytest.raises(ConfigError, match="strictly decrease"):
        parse_config(cfg)


def test_bool_is_not_an_int():
    cfg = _base_config("runs")
    cfg["train"]["epochs"] = True
    with pytest.raises(ConfigError, match="expected int, got bool"):
        parse_config(cfg)


def test_val_frac_bounds():
    for bad in (0.0, 0.5, 0.9):
        cfg = _base_config("runs")
        cfg["val_frac"] = bad
        with pytest.raises(ConfigError, match="val_frac"):
            parse_config(cfg)


@pytest.mark.parametrize("bad", [2.0, -0.5, 1.0000001])
def test_flip_y_outside_unit_interval_exit_2(tmp_path, capsys, bad):
    path = _write_config(tmp_path, dataset={"flip_y": bad})
    assert main(["fit", "--config", str(path)]) == 2
    assert "dataset.flip_y" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("ok", [0.0, 1.0])
def test_flip_y_bounds_are_inclusive(ok):
    cfg = _base_config("runs")
    cfg["dataset"]["flip_y"] = ok
    assert parse_config(cfg).synthetic_flip_y == ok


def test_criterion_choice_names_alternatives():
    cfg = _base_config("runs")
    cfg["criterion"] = "parity"
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    for name in ("dp", "eo", "eopp"):
        assert name in str(exc.value)


def test_default_beta_schedule():
    cfg = _base_config("runs")
    del cfg["sweep"]
    parsed = parse_config(cfg)
    assert parsed.betas == (1.0, 2.0, 3.0, 5.0, 15.0)


def test_config_hash_canonical():
    a = _base_config("runs")
    b = {k: a[k] for k in reversed(list(a))}  # same content, different order
    b["criterion"] = "dp"  # matches the default, so still the same config
    assert config_hash(parse_config(a)) == config_hash(parse_config(b))
    elsewhere = _base_config("elsewhere/runs")  # where a run writes is not hashed
    assert config_hash(parse_config(elsewhere)) == config_hash(parse_config(a))
    c = _base_config("runs")
    c["val_frac"] = 0.3
    assert config_hash(parse_config(c)) != config_hash(parse_config(a))


def test_adult_config_requires_a_data_path(monkeypatch):
    monkeypatch.delenv("FAIRSTACK_DATA_DIR", raising=False)
    cfg = _base_config("runs")
    cfg["dataset"] = {"id": "adult"}
    with pytest.raises(ConfigError, match="FAIRSTACK_DATA_DIR"):
        parse_config(cfg)


def test_dataset_path_resolves_relative_to_config(tmp_path, monkeypatch):
    monkeypatch.delenv("FAIRSTACK_DATA_DIR", raising=False)
    (tmp_path / "adult.data").write_text("")
    path = _write_config(tmp_path, dataset={"id": "adult", "path": "adult.data"})
    cfg = load_config(path)
    # stored absolute at parse time, so loading no longer depends on the cwd
    assert cfg.dataset_path == str((tmp_path / "adult.data").resolve())
    assert resolve_data_path(cfg) == Path(cfg.dataset_path)


def _write_tiny_adult(path: Path, n: int = 40) -> None:
    """Adult-format rows with both sexes and both income labels."""
    rows = [f"{20 + i}, Private, {77516 + 31 * i}, Bachelors, 13, Never-married, "
            f"Adm-clerical, Not-in-family, White, {('Female', 'Male')[i % 2]}, 0, 0, "
            f"{30 + i % 7}, United-States, {('<=50K', '>50K')[(i // 2) % 2]}"
            for i in range(n)]
    path.write_text("\n".join(rows) + "\n")


def test_fit_finds_relative_dataset_path_from_another_cwd(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FAIRSTACK_DATA_DIR", raising=False)
    cfg_dir = tmp_path / "cfgdir"
    cfg_dir.mkdir()
    _write_tiny_adult(cfg_dir / "tiny.data")
    _write_config(cfg_dir, name="c.json", dataset={"id": "adult", "path": "tiny.data"})
    monkeypatch.chdir(tmp_path)  # the data path is relative to cfgdir, not to the cwd
    assert main(["fit", "--config", "cfgdir/c.json"]) == 0
    run = _run_dir_from(capsys.readouterr().out)
    record = json.loads((run / "run.json").read_text())
    assert record["config"]["dataset"]["path"] == str((cfg_dir / "tiny.data").resolve())


def test_fit_on_a_data_file_that_is_not_utf8_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FAIRSTACK_DATA_DIR", raising=False)
    data = tmp_path / "tiny.data"
    _write_tiny_adult(data)
    data.write_bytes(data.read_bytes().replace(b"Private", b"Priv\xe9", 1))
    path = _write_config(tmp_path, dataset={"id": "adult", "path": "tiny.data"})
    assert main(["fit", "--config", str(path)]) == 1
    assert f"error: {data.resolve()} is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# ---------------------------------------------------------------------------
# load_config


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_seed_override_replaces_seed_list(tmp_path):
    path = _write_config(tmp_path, seeds=[0, 1, 2])
    assert load_config(path, seed=7).seeds == (7,)
    with pytest.raises(ConfigError, match="--seed"):
        load_config(path, seed=-1)


# Each (dataset id, dataset key) pair whose id never reads the key.
UNREAD_DATASET_KEYS = [
    ("synthetic", "path", "x.data"),
    ("planted", "path", "x.data"), ("planted", "n_noise", 5), ("planted", "flip_y", 0.1),
    ("adult", "n", 50), ("adult", "n_noise", 5), ("adult", "flip_y", 0.1),
    ("german", "n", 50), ("german", "n_noise", 5), ("german", "flip_y", 0.1),
]


@pytest.mark.parametrize("dataset_id, key, value", UNREAD_DATASET_KEYS,
                         ids=[f"{i}-{k}" for i, k, _ in UNREAD_DATASET_KEYS])
def test_dataset_key_the_id_does_not_read_exit_2(tmp_path, monkeypatch, capsys,
                                                 dataset_id, key, value):
    monkeypatch.setenv("FAIRSTACK_DATA_DIR", str(tmp_path))  # adult and german find a path
    path = _write_config(tmp_path, dataset={"id": dataset_id, key: value})
    assert main(["fit", "--config", str(path)]) == 2
    assert (f"config error: dataset.{key}: dataset {dataset_id!r} does not read this key"
            in capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()


# ---------------------------------------------------------------------------
# config -> component specs


def test_stack_spec_for_both_variants():
    cfg = _base_config("runs")
    cfg["stack"]["levels"] = [{"hidden": [10], "latent": 8},
                              {"hidden": [6], "latent": 4}]
    parsed = parse_config(cfg)

    stacked = stack_spec_for(parsed, in_dim=20, variant="stacked")
    assert [(l.in_dim, l.latent, l.hidden) for l in stacked.levels] == [
        (20, 8, (10,)), (8, 4, (6,))]

    # vanilla folds the whole chain into one level: the old latent widths
    # become interior hidden layers, only the last code is adversarially shaped
    vanilla = stack_spec_for(parsed, in_dim=20, variant="vanilla")
    assert len(vanilla.levels) == 1
    assert vanilla.levels[0].in_dim == 20
    assert vanilla.levels[0].latent == 4
    assert vanilla.levels[0].hidden == (10, 8, 6)

    assert stack_spec_for(parsed, 20, beta=7.5).beta == 7.5
    assert stack_spec_for(parsed, 20).beta == parsed.beta
    with pytest.raises(ValueError, match="variant"):
        stack_spec_for(parsed, 20, variant="medium")


def test_load_dataset_subsample():
    cfg = _base_config("runs")
    cfg["dataset"] = {"id": "synthetic", "n": 50, "subsample": 20,
                      "subsample_seed": 1}
    parsed = parse_config(cfg)
    ds = load_dataset(parsed)
    assert ds.n == 20
    assert ds.meta["subsampled_from"] == 50

    cfg["dataset"]["subsample"] = 60  # larger than the dataset: no-op
    ds_full = load_dataset(parse_config(cfg))
    assert ds_full.n == 50
    assert "subsampled_from" not in ds_full.meta


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "fairstack" in capsys.readouterr().out


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path, mystery=1)
    assert main(["fit", "--config", str(path)]) == 2
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["train.freeze_previous", "train.adversary_warm_start",
                                 "loss.root_mse"])
def test_removed_training_key_exit_2(tmp_path, capsys, key):
    section, leaf = key.split(".")
    path = _write_config(tmp_path, **{section: {leaf: False}})
    assert main(["fit", "--config", str(path)]) == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_beta_and_criterion_flags_exit_2_while_fit_takes_jobs(tmp_path, capsys):
    # the config file sets loss.beta, sweep.betas and criterion; no flag does
    path = _write_config(tmp_path)
    for flag, value in (("--beta", "1"), ("--criterion", "eo")):
        assert main(["fit", "--config", str(path), flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    assert main(["fit", "--config", str(path), "--seed", "0", "--jobs", "1"]) == 0


@pytest.mark.parametrize("section", ["loss", "sweep"])
def test_null_section_exit_2(tmp_path, capsys, section):
    path = _write_config(tmp_path, **{section: None})
    assert main(["fit", "--config", str(path)]) == 2
    assert f"{section}: expected an object, got NoneType" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_float_in_config_exit_2(tmp_path, capsys, value):
    path = _write_config(tmp_path)
    path.write_text(path.read_text().replace('"batch": 32', f'"batch": 32, "lr": {value}', 1))
    assert main(["fit", "--config", str(path)]) == 2
    assert "train.lr: must be a finite number" in capsys.readouterr().err


def test_jobs_must_be_positive(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path)
    path.write_bytes(path.read_text().replace('/runs"', '/r\xe9sultats"').encode("latin-1"))
    assert main(["fit", "--config", str(path)]) == 2
    assert f"config error: config {path} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "sweep", "table1"])
@pytest.mark.parametrize("under", ["file", "file/runs", "link", "link/runs"])
def test_out_dir_at_or_under_a_file_exit_2_before_any_training(tmp_path, monkeypatch, capsys,
                                                                command, under):
    (tmp_path / "file").write_text("")
    # a dangling link: making run directories through it failed with
    # FileExistsError on every name, so picking a fresh name never ended
    (tmp_path / "link").symlink_to(tmp_path / "nowhere")
    path = _write_config(tmp_path, out_dir=str(tmp_path / under))
    before = sorted(tmp_path.rglob("*"))

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the out_dir check")

    monkeypatch.setattr(cli, "train_stack", no_training)
    assert main([command, "--config", str(path)]) == 2
    top = tmp_path / under.split("/")[0]
    assert f"config error: out_dir: {str(tmp_path / under)!r}: {top} is not a writable " \
        "directory" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before   # nothing created


# ---------------------------------------------------------------------------
# fit


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """One completed `fit` run shared by the read-only artifact tests."""
    tmp = tmp_path_factory.mktemp("cli-fit")
    cfg_path = _write_config(tmp)
    rc = main(["fit", "--config", str(cfg_path)])
    assert rc == 0
    runs = sorted((tmp / "runs").glob("fit-*"))
    assert len(runs) == 1
    return cfg_path, runs[0]


def test_fit_artifact_layout(fitted):
    cfg_path, run = fitted
    assert (run / "model.fstk").is_file()
    assert (run / "train-level0.csv").is_file()
    record = json.loads((run / "run.json").read_text())
    assert record["command"] == "fit"
    assert record["config_hash"] == config_hash(load_config(cfg_path))
    assert record["seed"] == 0
    assert record["decoder_inactive"] is False
    assert record["beta"] == 1.0
    assert set(record["probe_report"]) >= {"accuracy", "delta_dp", "delta_eo",
                                           "delta_eopp"}
    assert record["n_train"] + record["n_val"] == 120
    # the stored config re-hashes to the same value (it is fully resolved)
    assert config_hash(record["config"]) == record["config_hash"]


def test_fit_run_json_records_peak_rss(fitted):
    _, run = fitted
    peak = json.loads((run / "run.json").read_text())["peak_rss_mb"]
    assert isinstance(peak, float) and 0 < peak < 1e5


def test_fit_with_a_one_row_val_split_exit_1(tmp_path, capsys):
    # n=4 leaves one val row, so one group is empty and dp is undefined
    path = _write_config(tmp_path, dataset={"id": "synthetic", "n": 4, "n_noise": 1})
    assert main(["fit", "--config", str(path)]) == 1
    assert "error: group" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", [["fit"], ["sweep"], ["sweep", "--jobs", "2"]])
def test_an_empty_val_split_exit_2(tmp_path, capsys, command):
    # 5% of 8 rows rounds to zero validation rows
    path = _write_config(tmp_path, dataset={"id": "synthetic", "n": 8, "n_noise": 1},
                         val_frac=0.05, sweep={"betas": [1.0]})
    assert main([*command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: val_frac: 0.05 of the dataset's 8 rows leaves no validation rows" in err
    assert not (tmp_path / "runs").exists()


def test_load_split_equals_subsets_of_the_whole_standardization(tmp_path):
    cfg = load_config(_write_config(tmp_path, dataset={"id": "synthetic", "n": 90,
                                                       "n_noise": 2}, val_frac=0.3))
    summary, train, val = cli._load_split(cfg, seed=4)
    ds = load_dataset(cfg)
    plan = train_val_test_split(ds.n, seed=4, val_frac=0.3)
    whole = standardize(ds, plan.train)
    assert summary == ds.summary()
    for part, idx in ((train, plan.train), (val, plan.val)):
        ref = whole.subset(idx)
        for name in ("X", "y", "s"):
            assert getattr(part, name).tobytes() == getattr(ref, name).tobytes()
        assert part.norm_stats == ref.norm_stats


def test_fit_log_carries_hash_and_seed(fitted):
    cfg_path, run = fitted
    first = (run / "train-level0.csv").read_text().splitlines()[0]
    assert first == f"# config_hash={config_hash(load_config(cfg_path))} seed=0"


def test_fit_model_loads_and_encodes(fitted):
    _, run = fitted
    stack = TrainedStack.load(run / "model.fstk")
    assert stack.n_levels == 1
    assert stack.in_dim == 4  # synthetic: 3 signal columns + 1 noise
    assert stack.out_dim == 3
    Z = stack.encode(np.zeros((2, 4)))
    assert Z.shape == (2, 3)


def test_fit_seed_flag_lands_in_artifacts(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["fit", "--config", str(path), "--seed", "3"]) == 0
    run = _run_dir_from(capsys.readouterr().out)
    record = json.loads((run / "run.json").read_text())
    assert record["seed"] == 3
    assert record["config"]["seeds"] == [3]


def test_fit_alpha_zero_marks_decoder_inactive(tmp_path, capsys):
    path = _write_config(tmp_path, loss={"alpha": 0.0})
    assert main(["fit", "--config", str(path)]) == 0
    run = _run_dir_from(capsys.readouterr().out)
    assert json.loads((run / "run.json").read_text())["decoder_inactive"] is True


def test_fit_with_a_diverging_probe_exit_1(tmp_path, capsys):
    # probe.lr passes validation, but the probe's weights overflow
    path = _write_config(tmp_path, probe={"lr": 1e300})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["fit", "--config", str(path)]) == 1
    assert "error: non-finite value in probe" in capsys.readouterr().err


def test_fit_is_reproducible_and_never_overwrites(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["fit", "--config", str(path)]) == 0
    run_a = _run_dir_from(capsys.readouterr().out)
    assert main(["fit", "--config", str(path)]) == 0
    run_b = _run_dir_from(capsys.readouterr().out)

    assert run_a != run_b and run_a.exists() and run_b.exists()
    assert (run_a / "model.fstk").read_bytes() == (run_b / "model.fstk").read_bytes()
    assert (run_a / "train-level0.csv").read_text() == \
           (run_b / "train-level0.csv").read_text()


def test_fit_logs_are_the_same_under_another_out_dir(tmp_path, capsys):
    runs = []
    for root in (tmp_path / "a", tmp_path / "b"):
        root.mkdir()
        assert main(["fit", "--config", str(_write_config(root))]) == 0
        runs.append(_run_dir_from(capsys.readouterr().out))
    assert runs[0].parent != runs[1].parent
    assert (runs[0] / "train-level0.csv").read_bytes() == \
           (runs[1] / "train-level0.csv").read_bytes()


# ---------------------------------------------------------------------------
# transform


def test_transform_round_trips_the_encoder(fitted, tmp_path, capsys):
    _, run = fitted
    model = run / "model.fstk"
    X = make_synthetic(n=10, seed=99, n_noise=1).X
    src = tmp_path / "in.csv"
    with open(src, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(X.shape[1])])  # header row
        for row in X:
            writer.writerow([repr(float(v)) for v in row])
    dst = tmp_path / "out.csv"

    assert main(["transform", "--model", str(model), "--input", str(src),
                 "--output", str(dst)]) == 0
    capsys.readouterr()

    rows = dst.read_text().splitlines()
    assert rows[0] == "z_0,z_1,z_2"
    got = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    want = TrainedStack.load(model).encode(X)
    np.testing.assert_array_equal(got, want)  # repr round-trip is exact


def test_transform_writes_what_csv_writer_writes(fitted, tmp_path, capsys):
    _, run = fitted
    model = run / "model.fstk"
    X = make_synthetic(n=7, seed=98, n_noise=1).X
    src = tmp_path / "in.csv"
    src.write_text("\n".join(",".join(map(repr, row)) for row in X.tolist()) + "\n")
    dst = tmp_path / "out.csv"
    assert main(["transform", "--model", str(model), "--input", str(src),
                 "--output", str(dst)]) == 0
    capsys.readouterr()
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["z_0", "z_1", "z_2"])
    for row in TrainedStack.load(model).encode(X):
        writer.writerow([repr(float(v)) for v in row])
    assert dst.read_bytes() == want.getvalue().encode()


def test_transform_non_numeric_data_row_exit_1(fitted, tmp_path, capsys):
    _, run = fitted
    src = tmp_path / "text.csv"
    src.write_text("a,b,c,d\n1.0,2.0,3.0,4.0\n1.0,two,3.0,4.0\n")
    rc = main(["transform", "--model", str(run / "model.fstk"),
               "--input", str(src), "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    assert "non-numeric" in capsys.readouterr().err


def test_transform_header_only_input(fitted, tmp_path, capsys):
    _, run = fitted
    src = tmp_path / "empty.csv"
    src.write_text("a,b,c,d\n")
    dst = tmp_path / "out.csv"
    assert main(["transform", "--model", str(run / "model.fstk"),
                 "--input", str(src), "--output", str(dst)]) == 0
    capsys.readouterr()
    assert dst.read_text().splitlines() == ["z_0,z_1,z_2"]


def test_transform_width_mismatch_exit_1(fitted, tmp_path, capsys):
    _, run = fitted
    src = tmp_path / "narrow.csv"
    src.write_text("1.0,2.0\n3.0,4.0\n")
    rc = main(["transform", "--model", str(run / "model.fstk"),
               "--input", str(src), "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "width mismatch" in err and "4" in err and "2" in err


def test_transform_ragged_input_exit_1(fitted, tmp_path, capsys):
    _, run = fitted
    src = tmp_path / "ragged.csv"
    src.write_text("1.0,2.0,3.0,4.0\n1.0,2.0,3.0\n")
    rc = main(["transform", "--model", str(run / "model.fstk"),
               "--input", str(src), "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    assert "ragged" in capsys.readouterr().err


def test_transform_non_finite_input_exit_1(fitted, tmp_path, capsys):
    _, run = fitted
    src = tmp_path / "nan.csv"
    src.write_text("a,b,c,d\n1.0,2.0,3.0,4.0\n1.0,inf,3.0,4.0\nnan,2.0,3.0,4.0\n")
    dst = tmp_path / "out.csv"
    rc = main(["transform", "--model", str(run / "model.fstk"),
               "--input", str(src), "--output", str(dst)])
    assert rc == 1
    assert "data row 2" in capsys.readouterr().err  # the first bad row, not the header
    assert not dst.exists()


def _transform(model: Path, tmp_path: Path, text: str, capsys):
    """(exit code, output bytes or None, stderr) of transform on ``text``."""
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    dst.unlink(missing_ok=True)
    src.write_bytes(text.encode())
    rc = main(["transform", "--model", str(model), "--input", str(src), "--output", str(dst)])
    err = capsys.readouterr().err
    return rc, dst.read_bytes() if dst.exists() else None, err


DIALECT_ROWS = make_synthetic(n=5, seed=97, n_noise=1).X.tolist()


def _lines(fmt, rows=DIALECT_ROWS) -> list[str]:
    return [",".join(fmt(v) for v in row) for row in rows]


@pytest.mark.parametrize("text", [
    "\r\n".join(_lines(repr)) + "\r\n",                          # CRLF line ends
    "\n".join(_lines(lambda v: f'"{v!r}"')) + "\n",              # quoted fields
    "\n\n" + "\n\n".join(_lines(repr)) + "\n\n\n",               # blank lines
    "\n".join(_lines(lambda v: f" {v!r}\t")) + "\n",             # spaces around fields
    "a,b,c,d\n" + "\n".join(_lines(repr)),                       # header, no last newline
    '"#x","y",z,w\r\n' + "\r\n".join(_lines(repr)) + "\r\n",     # quoted '#' header
    "\ufeff" + "\n".join(_lines(repr)) + "\n",                   # byte-order mark, no header
    "\ufeffa,b,c,d\r\n" + "\r\n".join(_lines(repr)) + "\r\n",   # byte-order mark and header
    "a,b,c,d\r" + "\r".join(_lines(repr)) + "\r",               # CR-only line ends
], ids=["crlf", "quoted", "blank-lines", "spaces", "header-no-eol", "hash-header",
        "bom", "bom-header", "cr-only"])
def test_transform_dialect_reads_the_same_rows(fitted, tmp_path, capsys, text):
    model = fitted[1] / "model.fstk"
    _, want, _ = _transform(model, tmp_path, "\n".join(_lines(repr)) + "\n", capsys)
    assert _transform(model, tmp_path, text, capsys) == (0, want, "")


def test_transform_single_column_and_single_row(tmp_path, capsys):
    model = tmp_path / "identity.fstk"
    TrainedStack.identity(1).save(model)
    assert _transform(model, tmp_path, "x\n-1.5\n\n2\n", capsys) == \
        (0, b"z_0\r\n-1.5\r\n2.0\r\n", "")
    TrainedStack.identity(3).save(model)
    assert _transform(model, tmp_path, "1,2e-3,-0", capsys) == \
        (0, b"z_0,z_1,z_2\r\n1.0,0.002,-0.0\r\n", "")


@pytest.mark.parametrize("text", ["", "\n\n", "a,b,c,d\r\n\r\n"], ids=["0-byte", "blank", "header"])
def test_transform_no_rows_writes_the_header(fitted, tmp_path, capsys, text):
    assert _transform(fitted[1] / "model.fstk", tmp_path, text, capsys) == \
        (0, b"z_0,z_1,z_2\r\n", "")


@pytest.mark.parametrize("text", [
    "1,2,3,4\n#5,6,7,8\n",        # a '#' row is data, not a comment
    "1,2,3,4\n1_0,2,3,4\n",       # float() takes these two; the parser does not
    "1,2,3,4\n١,2,3,4\n",
])
def test_transform_non_numeric_rows_exit_1(fitted, tmp_path, capsys, text):
    rc, out, err = _transform(fitted[1] / "model.fstk", tmp_path, text, capsys)
    assert (rc, out) == (1, None)
    assert "non-numeric row" in err


@pytest.mark.parametrize("text,widths", [
    ("1,2,3,4\nx,2,3,4\n5,6\n", "[2, 4]"),   # ragged is reported before non-numeric
    ("1,2,3,4\n \n", "[1, 4]"),               # a line of spaces is a row, not a blank line
])
def test_transform_ragged_rows_exit_1(fitted, tmp_path, capsys, text, widths):
    rc, out, err = _transform(fitted[1] / "model.fstk", tmp_path, text, capsys)
    assert (rc, out) == (1, None)
    assert f"ragged CSV: row widths {widths}" in err


@pytest.mark.parametrize("body", [
    b"1,2,3,\xff4\n5,6,7,8\n",         # in the first record: the header sniff meets it
    b"1,2,3,4\n5,6,7,\xff8\n",         # in the body: the bulk parse meets it
    b"1,2,3,4\nx,y,z,w\n5,6,\xff,8\n",  # after a non-numeric row: the error re-read meets it
], ids=["first-record", "body", "after-a-bad-row"])
def test_transform_input_that_is_not_utf8_exit_1(fitted, tmp_path, capsys, body):
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_bytes(body)
    rc = main(["transform", "--model", str(fitted[1] / "model.fstk"), "--input", str(src),
               "--output", str(dst)])
    assert (rc, dst.exists()) == (1, False)
    assert f"error: {src} is not UTF-8 text: invalid start byte" in capsys.readouterr().err


def test_transform_missing_model_exit_1(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("1.0\n")
    rc = main(["transform", "--model", str(tmp_path / "absent.fstk"),
               "--input", str(src), "--output", str(tmp_path / "out.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def _layer(n_in: int, n_out: int):
    return (np.zeros((n_in, n_out)), np.zeros((1, n_out)), "identity")


@pytest.mark.parametrize("in_dim,levels,message", [
    (4, [[_layer(3, 2)]], "level 0, layer 0 takes width 3, but its input has width 4"),
    (4, [[_layer(4, 3), _layer(2, 1)]], "level 0, layer 1 takes width 2"),
    (4, [[_layer(4, 3)], []], "level 1 has no layers"),
], ids=["header-in-dim", "layer-chain", "empty-level"])
def test_transform_model_whose_widths_do_not_chain_exit_1(tmp_path, capsys, in_dim, levels,
                                                          message):
    model = tmp_path / "bad.fstk"
    TrainedStack(in_dim=in_dim, levels=levels).save(model)
    rc, out, err = _transform(model, tmp_path, "1,2,3,4\n", capsys)
    assert (rc, out) == (1, None)
    assert err.startswith("error:") and message in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid_and_means(tmp_path, capsys):
    path = _write_config(tmp_path, seeds=[0, 1], sweep={"betas": [0.0, 1.0]})
    assert main(["sweep", "--config", str(path)]) == 0
    run = _run_dir_from(capsys.readouterr().out)

    rows = _read_csv_rows(run / "sweep.csv")
    assert len(rows) == 8  # 2 betas x 2 seeds x 2 variants
    assert {(r["beta"], r["seed"], r["variant"]) for r in rows} == {
        (str(b), str(s), v)
        for b in (0.0, 1.0) for s in (0, 1) for v in ("stacked", "vanilla")}
    assert all(r["status"] == "ok" for r in rows)

    baseline = _read_csv_rows(run / "baseline.csv")
    assert [r["seed"] for r in baseline] == ["0", "1"]
    assert all(r["status"] == "ok" for r in baseline)

    # per-(beta, variant) means are plain arithmetic over the ok rows
    means = _read_csv_rows(run / "sweep_means.csv")
    assert len(means) == 4
    for m in means:
        members = [r for r in rows
                   if r["beta"] == m["beta"] and r["variant"] == m["variant"]]
        assert m["n"] == "2"
        want = np.mean([float(r["accuracy"]) for r in members])
        assert float(m["accuracy"]) == pytest.approx(want, rel=1e-12)

    record = json.loads((run / "run.json").read_text())
    assert record["n_rows"] == 8
    assert record["n_failed"] == 0


def test_sweep_failed_rows_exit_1(tmp_path, capsys):
    # an absurd learning rate overflows the forward pass on the first step,
    # which must surface as failed rows and a nonzero exit, not a crash
    path = _write_config(tmp_path, train={"lr": 1e200},
                         sweep={"betas": [1.0]})
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["sweep", "--config", str(path)])
    assert rc == 1
    out, err = capsys.readouterr()
    run = _run_dir_from(out)

    rows = _read_csv_rows(run / "sweep.csv")
    assert [r["status"] for r in rows] == ["failed", "failed"]
    assert all(r["accuracy"] == "" for r in rows)
    # the probe baseline does not use the diverging stack trainer
    assert all(r["status"] == "ok" for r in _read_csv_rows(run / "baseline.csv"))

    record = json.loads((run / "run.json").read_text())
    assert record["n_failed"] == 2
    assert all("DivergenceError" in f["error"] for f in record["failures"])
    assert "FAILED" in err


def test_sweep_with_a_diverging_probe_writes_failed_rows(tmp_path, capsys):
    path = _write_config(tmp_path, probe={"lr": 1e300}, sweep={"betas": [1.0]})
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["sweep", "--config", str(path)]) == 1
    run = _run_dir_from(capsys.readouterr().out)
    rows = _read_csv_rows(run / "sweep.csv") + _read_csv_rows(run / "baseline.csv")
    assert [(r["status"], r["accuracy"]) for r in rows] == [("failed", "")] * 3
    record = json.loads((run / "run.json").read_text())
    assert all(f["error"].startswith("DivergenceError") for f in record["failures"])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_with_a_one_row_val_split_fails_rows_not_the_run(tmp_path, capsys, jobs):
    # n=4 leaves one val row: every job's metrics are undefined, and each
    # becomes a failed row instead of a traceback that loses the sweep
    path = _write_config(tmp_path, dataset={"id": "synthetic", "n": 4, "n_noise": 1},
                         sweep={"betas": [1.0]})
    assert main(["sweep", "--config", str(path), "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    run = _run_dir_from(out)
    rows = _read_csv_rows(run / "sweep.csv")
    assert [(r["variant"], r["status"]) for r in rows] == [
        ("stacked", "failed"), ("vanilla", "failed")]
    assert [r["status"] for r in _read_csv_rows(run / "baseline.csv")] == ["failed"]
    record = json.loads((run / "run.json").read_text())
    assert record["n_failed"] == 3 and record["peak_rss_mb"] > 0
    assert all(f["error"].startswith("UndefinedMetricError") for f in record["failures"])
    assert "FAILED" in err


def test_sweep_job_errors_outside_the_run_contract_propagate(tmp_path, monkeypatch, capsys):
    cfg = load_config(_write_config(tmp_path, sweep={"betas": [1.0]}))

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a failed run")

    monkeypatch.setattr(cli, "train_stack", broken)
    with pytest.raises(TypeError, match="a bug"):
        cli.cmd_sweep(cfg)

    def diverged(*args, **kwargs):
        raise DivergenceError("non-finite value")

    monkeypatch.setattr(cli, "train_stack", diverged)
    assert cli.cmd_sweep(cfg) == 1
    run = _run_dir_from(capsys.readouterr().out)
    assert [r["status"] for r in _read_csv_rows(run / "sweep.csv")] == ["failed", "failed"]


def test_sweep_failed_baseline_rows_exit_1(tmp_path, monkeypatch, capsys):
    cfg = load_config(_write_config(tmp_path, seeds=[0, 1], sweep={"betas": [1.0]}))

    def diverged(*args, **kwargs):
        raise DivergenceError("non-finite probe")

    monkeypatch.setattr(cli, "train_probe", diverged)
    assert cli.cmd_sweep(cfg) == 1
    run = _run_dir_from(capsys.readouterr().out)
    baseline = _read_csv_rows(run / "baseline.csv")
    assert [(r["seed"], r["status"], r["accuracy"]) for r in baseline] == [
        ("0", "failed", ""), ("1", "failed", "")]
    record = json.loads((run / "run.json").read_text())
    assert record["n_failed"] == 6  # 2 seeds x 2 variants, plus the 2 baseline rows
    unfair = [f for f in record["failures"] if f["variant"] == "unfair"]
    assert [(f["beta"], f["seed"]) for f in unfair] == [(None, 0), (None, 1)]
    assert all("DivergenceError" in f["error"] for f in unfair)


def test_sweep_means_sort_betas_by_value(tmp_path, capsys):
    path = _write_config(tmp_path, sweep={"betas": [2.0, 15.0]})
    assert main(["sweep", "--config", str(path)]) == 0
    run = _run_dir_from(capsys.readouterr().out)
    means = _read_csv_rows(run / "sweep_means.csv")
    assert [(m["beta"], m["variant"]) for m in means] == [
        ("2.0", "stacked"), ("2.0", "vanilla"), ("15.0", "stacked"), ("15.0", "vanilla")]


def test_sweep_means_leave_a_metric_undefined_in_any_ok_row_empty(tmp_path, monkeypatch,
                                                                    capsys):
    # seed 1 leaves delta_eo undefined; its mean is not seed 0's value alone
    cfg = load_config(_write_config(tmp_path, seeds=[0, 1], sweep={"betas": [1.0]}))

    def job(cfg, beta, seed, variant):
        return {"beta": beta, "seed": seed, "variant": variant, "status": "ok",
                "accuracy": 0.5 + 0.25 * seed, "delta_dp": 0.1, "delta_eopp": 0.2,
                "delta_eo": None if seed == 1 else 0.3}

    monkeypatch.setattr(cli, "_sweep_job", job)
    assert cli.cmd_sweep(cfg) == 0
    run = _run_dir_from(capsys.readouterr().out)
    for name in ("sweep_means.csv", "baseline_means.csv"):
        means = _read_csv_rows(run / name)
        assert means and all(m["n"] == "2" for m in means)
        assert all(m["delta_eo"] == "" for m in means)
        assert all(float(m["accuracy"]) == 0.625 for m in means)
        assert all(float(m["delta_dp"]) == 0.1 for m in means)


def test_sweep_in_a_pool_matches_the_serial_run(tmp_path, capsys):
    path = _write_config(tmp_path, seeds=[0, 1], sweep={"betas": [0.0, 1.0]})
    names = ("sweep.csv", "baseline.csv", "sweep_means.csv", "baseline_means.csv")
    outputs = []
    for jobs in ("1", "2"):
        assert main(["sweep", "--config", str(path), "--jobs", jobs]) == 0
        run = _run_dir_from(capsys.readouterr().out)
        outputs.append({name: (run / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


def test_sweep_trains_a_one_level_spec_once_per_beta_and_seed(tmp_path, monkeypatch, capsys):
    # one level: the vanilla spec is the stacked one, so its row is a copy
    config = json.loads((Path(__file__).parents[1] / "configs" /
                         "synthetic-smoke.json").read_text())
    config["out_dir"] = str(tmp_path / "runs")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return train_stack(*args, **kwargs)

    monkeypatch.setattr(cli, "train_stack", counting)
    assert main(["sweep", "--config", str(path)]) == 0
    assert len(calls) == 3  # betas 0, 1 and 5; seed 0
    rows = _read_csv_rows(_run_dir_from(capsys.readouterr().out) / "sweep.csv")
    assert [(r["beta"], r["variant"]) for r in rows] == [
        (b, v) for b in ("0.0", "1.0", "5.0") for v in ("stacked", "vanilla")]
    # the copied row is the row a vanilla training of its own would give
    vanilla = cli._sweep_job(load_config(path), 0.0, 0, "vanilla")
    assert {k: str(v) for k, v in vanilla.items()} == rows[1]


def test_run_dir_relies_on_mkdir_not_exists(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    monkeypatch.setattr(Path, "exists", lambda self: False)
    a = cli._run_dir(str(tmp_path), "fit")
    b = cli._run_dir(str(tmp_path), "fit")
    assert a != b
    assert a.is_dir() and b.is_dir() and not any(a.iterdir()) and not any(b.iterdir())


# ---------------------------------------------------------------------------
# table1


def test_table1_grid(tmp_path, capsys):
    path = _write_config(tmp_path, dataset={"id": "synthetic", "n": 80,
                                            "n_noise": 1})
    assert main(["table1", "--config", str(path)]) == 0
    run = _run_dir_from(capsys.readouterr().out)

    table = json.loads((run / "table1.json").read_text())
    assert set(table["cells"]) == {"logreg", "forest"}
    for kind in ("logreg", "forest"):
        assert set(table["cells"][kind]) == {"unfair", "lafr", "stacked"}
        for cell in table["cells"][kind].values():
            assert set(cell) == {"delta_dp_mean", "delta_dp_std",
                                 "accuracy_mean", "accuracy_std",
                                 "delta_eo_mean", "delta_eo_std",
                                 "delta_eopp_mean", "delta_eopp_std"}
    # the tabulated protocol pins the loss weights regardless of the config
    assert table["loss_weights"] == {"alpha": 0.0, "beta": 1.0, "gamma": 1.0}
    assert table["k"] == 2
    assert table["std_kind"] == "sample (ddof=1)"

    rows = _read_csv_rows(run / "table1.csv")
    assert [(r["model"], r["variant"]) for r in rows] == [
        (kind, variant)
        for kind in ("logreg", "forest")
        for variant in ("unfair", "lafr", "stacked")]


@pytest.mark.parametrize("levels, trained", [
    (None, 1),                              # the smoke config: one level
    ([{"latent": 4}, {"latent": 2}], 2),
])
def test_table1_trains_each_distinct_stack_once(tmp_path, monkeypatch, capsys, levels,
                                                trained):
    config = json.loads((Path(__file__).parents[1] / "configs" /
                         "synthetic-smoke.json").read_text())
    config["out_dir"] = str(tmp_path / "runs")
    if levels:
        config["stack"]["levels"] = levels
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return train_stack(*args, **kwargs)

    monkeypatch.setattr(cli, "train_stack", counting)
    assert main(["table1", "--config", str(path)]) == 0
    assert len(calls) == trained


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_table1_with_an_empty_fold_group_exit_1(tmp_path, capsys, jobs):
    # 8 rows in 4 folds: a 2-row test fold misses a group
    path = _write_config(tmp_path, dataset={"id": "synthetic", "n": 8, "n_noise": 1},
                         cv_folds=4)
    assert main(["table1", "--config", str(path), "--jobs", jobs]) == 1
    assert "error: group" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_table1_more_folds_than_rows_exit_2(tmp_path, capsys):
    path = _write_config(tmp_path, dataset={"id": "synthetic", "n": 4, "n_noise": 1},
                         cv_folds=5)
    assert main(["table1", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: cv_folds" in err and "4" in err
    assert not (tmp_path / "runs").exists()


def test_table1_in_a_pool_matches_the_serial_run(tmp_path, capsys):
    path = _write_config(tmp_path, dataset={"id": "synthetic", "n": 80, "n_noise": 1})
    outputs = []
    for jobs in ("1", "2"):
        assert main(["table1", "--config", str(path), "--jobs", jobs]) == 0
        run = _run_dir_from(capsys.readouterr().out)
        cells = json.loads((run / "table1.json").read_text())["cells"]
        outputs.append(((run / "table1.csv").read_bytes(), cells))
    assert outputs[0] == outputs[1]
