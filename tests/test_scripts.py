import importlib.util
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "tolerance_study.py"
_spec = importlib.util.spec_from_file_location("tolerance_study", _PATH)
tolerance_study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tolerance_study)


@pytest.mark.parametrize(
    "ratio, label",
    [
        (0.05, "[1e-2,1e-1)"),
        (0.5, ">=1e-1"),
        (1e-8, "<1e-7"),
        (2e-8, "<1e-7"),
        (0.0, "<1e-7"),
        (3e-4, "[1e-4,1e-3)"),
        (12.0, ">=1e-1"),
        (math.inf, ">=1e-1"),
        (math.nan, ">=1e-1"),
    ],
)
def test_tolerance_study_buckets_by_decade(ratio, label):
    assert tolerance_study.BUCKET_LABELS[tolerance_study.bucket_index(ratio)] == label
