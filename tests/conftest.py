"""Shared fixtures.

The census / credit files are not redistributable, so anything needing them
is gated: set FAIRSTACK_DATA_DIR (or drop the files into tests/data/) to run
the full-data tests; otherwise they skip with an explanation rather than
silently passing.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from fairstack.data import ADULT, GERMAN

# the files a data directory must hold, as the loaders look for them
DATA_FILES = {"adult": ADULT.files, "german": GERMAN.files}


def _data_dir() -> Path | None:
    env = os.environ.get("FAIRSTACK_DATA_DIR")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).parent / "data")
    for cand in candidates:
        if cand.is_dir():
            return cand
    return None


def _require(dataset: str) -> Path:
    root = _data_dir()
    missing = DATA_FILES[dataset]
    if root is not None and all((root / f).is_file() for f in missing):
        return root
    pytest.skip(
        f"{dataset} source files {missing} not found; set FAIRSTACK_DATA_DIR "
        "or place them in tests/data/ (scripts/fetch_data.py downloads them "
        "when network access is available)"
    )


@pytest.fixture(scope="session")
def adult_dir() -> Path:
    return _require("adult")


@pytest.fixture(scope="session")
def german_file() -> Path:
    return _require("german") / GERMAN.files[0]


ADULT_TWO_ROWS = (
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
    " Not-in-family, White, Male, 2174, 0, 40, United-States, >50K\n"
    "50, Private, 83311, HS-grad, 9, Married-civ-spouse, Exec-managerial,"
    " Wife, Black, Female, 0, 0, 13, United-States, <=50K\n"
)


@pytest.fixture
def adult_two_row_file(tmp_path: Path) -> Path:
    path = tmp_path / "adult_two.data"
    path.write_text(ADULT_TWO_ROWS)
    return path
