import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import pytest

import degseq
from degseq import RandomSource, SymmetricProbMatrix, seq_approx_p

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def approx_p_samples():
    """2e5 Poissonized-sampler draws shared by marginal/covariance/matching tests.

    Three mutually weighted vertices, lam=2.4, constant acceptance 0.54: the
    per-edge marginal is 1 - exp(-2.4 * 0.54 / 3) for every pair.
    """
    d = (2, 2, 2)
    lam = 2.4
    big_lambda = SymmetricProbMatrix.full(3, 0.54)
    return [
        seq_approx_p(d, lam, big_lambda, RandomSource(90210, s)) for s in range(200_000)
    ]


TESTS = Path(__file__).resolve().parent

# tests whose checks are explicit code that python -O keeps (it strips
# asserts): the graph constructor's checks, the exact kernel's
# InvariantError, both counters and the direct completion
PYTHON_O_SELECTION = (
    "test_graphs.py::TestGraphMatchesFrozensetReference::test_queries_agree",
    "test_graphs.py::TestGraphMatchesFrozensetReference::test_bad_keys_raise_the_same_error",
    "test_oracle.py::TestKernelCounters::test_candidate_counts_match_bin",
    "test_oracle.py::TestOracleCompletion::test_insert_outside_every_member_raises",
    "test_oracle.py::TestFamilyOfManyChunks::test_pair_counts_match_bit_counts",
    "test_oracle.py::TestOracleCompletion::test_complete_equals_inserting_one_at_a_time",
)


@pytest.fixture(scope="session")
def python_O_passed(tmp_path_factory):
    """Run all of `PYTHON_O_SELECTION` under python -O in one interpreter
    (start-up is most of a run's cost), and return the entries that passed."""
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "-W", "ignore", *(str(TESTS / name) for name in PYTHON_O_SELECTION)],
        env=dict(os.environ, PYTHONPATH=str(Path(degseq.__file__).resolve().parents[1])),
        cwd=tmp_path_factory.mktemp("python_O"), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "6 passed" in out.stdout, out.stdout
    return {line.split()[1].rsplit("/", 1)[-1]
            for line in out.stdout.splitlines() if line.startswith("PASSED ")}
