"""BLAS threads: ``import fairstack`` loads no numpy, and every CLI process
(pool workers included) runs BLAS on one thread unless the caller set the
thread variables. Each check runs in a fresh interpreter, since numpy reads
the variables once, when it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairstack

SRC = Path(fairstack.__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env(**blas) -> dict:
    """This environment without the BLAS thread variables, plus ``blas``,
    with the package's sources first on the path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**env, **blas}


def _python(args: list, env: dict, cwd=None) -> str:
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


ROOT_SCRIPT = """
import json, sys
import fairstack
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "public": sorted(n for n in vars(fairstack) if not n.startswith("_"))}))
"""


def test_import_fairstack_loads_no_numpy_and_binds_only_its_version():
    out = json.loads(_python(["-c", ROOT_SCRIPT], _env()))
    assert out == {"numpy": False, "public": []}
    assert fairstack.__version__ == "0.1.0"


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        fairstack.bogus
    assert not hasattr(fairstack, "bogus")


ENV_SCRIPT = """
import json, os
import fairstack.cli
print(json.dumps({k: os.environ.get(k) for k in fairstack.cli.BLAS_THREAD_VARS}))
"""


def test_cli_sets_one_blas_thread_unless_the_caller_set_one():
    out = json.loads(_python(["-c", ENV_SCRIPT], _env()))
    assert out == dict.fromkeys(BLAS_VARS, "1")
    out = json.loads(_python(["-c", ENV_SCRIPT], _env(OPENBLAS_NUM_THREADS="3")))
    assert out == {**dict.fromkeys(BLAS_VARS, "1"), "OPENBLAS_NUM_THREADS": "3"}


THREADS_SCRIPT = """
import os
import fairstack.cli
import numpy as np

def threads(n):
    a = np.ones((n, n))
    a @ a   # above every BLAS threading threshold
    return len(os.listdir("/proc/self/task"))

if __name__ == "__main__":
    print(threads(600), *fairstack.cli._map(threads, [(600,), (600,)], 2))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_cli_process_and_pool_workers_run_one_os_thread(tmp_path):
    script = tmp_path / "threads.py"
    script.write_text(THREADS_SCRIPT)
    assert _python([str(script)], _env()).split() == ["1", "1", "1"]


def _config(path: Path) -> Path:
    # logreg folds of 1,600 x 40, training batches of 1,024 and the encode
    # of 3,200 x 40 are all above OpenBLAS's threading thresholds
    cfg = {
        "dataset": {"id": "synthetic", "n": 3200, "n_noise": 37},
        "stack": {"levels": [{"latent": 20}, {"latent": 8}], "adv_hidden": 20, "cls_hidden": 20},
        "train": {"epochs": 2, "batch": 1024},
        "loss": {"alpha": 0.0, "beta": 1.0, "gamma": 1.0},
        "seeds": [0],
        "probe": {"hidden": 8, "epochs": 2},
        "forest": {"n_trees": 2, "max_depth": 4},
        "cv_folds": 2,
        "out_dir": "runs",
    }
    path.write_text(json.dumps(cfg))
    return path


def _artifacts(work: Path, config: Path, threads: str) -> dict:
    env = _env(OPENBLAS_NUM_THREADS=threads)
    for command in ("fit", "table1"):
        _python(["-m", "fairstack.cli", command, "--config", str(config)], env, cwd=work)
    (model,) = work.glob("runs/fit-*/model.fstk")
    rows = work / "rows.csv"
    rows.write_text("\n".join(",".join(f"{(i * 7 + j) % 13 - 6.5:.2f}" for j in range(40))
                              for i in range(3200)) + "\n")
    _python(["-m", "fairstack.cli", "transform", "--model", str(model), "--input", str(rows),
             "--output", str(work / "codes.csv")], env, cwd=work)
    files = [model, *work.glob("runs/fit-*/train-level*.csv"),
             *work.glob("runs/table1-*/table1.csv"), work / "codes.csv"]
    return {f.name: f.read_bytes() for f in files}


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    runs = {}
    for threads in ("1", "2"):
        work = tmp_path / f"threads-{threads}"
        work.mkdir()
        runs[threads] = _artifacts(work, _config(work / "config.json"), threads)
    assert sorted(runs["1"]) == ["codes.csv", "model.fstk", "table1.csv",
                                 "train-level0.csv", "train-level1.csv"]
    assert runs["1"] == runs["2"]
