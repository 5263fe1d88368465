"""Every verify suite on A7, B7 and D7.

The ``morphisms`` and ``positivity`` suites take up to a minute each and a
few hundred MB, so the module is skipped unless ``DESCENT_RANK7=1`` is set
in the environment:

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


@pytest.mark.parametrize("suite", ["loewy-bounds", "bhs-symmetry",
                                   "solomon-oracle", "b-tau-question"])
@pytest.mark.parametrize("label", ["A7", "B7", "D7"])
def test_other_suites_pass_at_rank_seven(suite, label):
    report = ve.run_suite(suite, label, allow_rank7=True)
    assert report.passed, report.render_text()
