"""The whole ``morphisms`` and ``positivity`` suites on the rank-7 types
they can reach.

Each suite takes up to a minute or two and a few hundred MB, so the
module is skipped unless ``DESCENT_RANK7=1`` is set in the environment:

    DESCENT_RANK7=1 PYTHONPATH=src python -m pytest tests/test_rank7_suites.py
"""

import os

import pytest

from descent import verify as ve

pytestmark = pytest.mark.skipif(
    os.environ.get("DESCENT_RANK7") != "1",
    reason="rank-7 suites run only with DESCENT_RANK7=1")


@pytest.mark.parametrize("label", ["A7", "B7", "D7"])
def test_morphisms_suite_passes_at_rank_seven(label):
    report = ve.run_suite("morphisms", label, allow_rank7=True)
    assert report.passed, report.render_text()


@pytest.mark.parametrize("label", ["A7", "B7", "D7"])
def test_positivity_suite_passes_at_rank_seven(label):
    report = ve.run_suite("positivity", label, allow_rank7=True)
    assert report.passed, report.render_text()
