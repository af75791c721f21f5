import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


@pytest.fixture(autouse=True)
def _quiet_limit_caveat():
    # The benchmark ignores warnings while it runs ops; so do its tests.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="the growing-horizon limit")
        yield
