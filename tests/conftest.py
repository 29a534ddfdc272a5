"""Shared fixtures: small problems that are cheap to evaluate."""

import os
from pathlib import Path

import numpy as np
import pytest

from slowmo_sim import NoiseModel, ProblemConfig, QuadraticProblem, build_logistic


SRC = Path(__file__).resolve().parent.parent / "src" / "slowmo_sim"


def _header_line():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy without the dict form, or no BLAS entry
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    return (f"numpy {np.__version__}, BLAS {blas}, OPENBLAS_NUM_THREADS={threads}, "
            f"src/slowmo_sim/*.py: {lines} lines")


def pytest_report_header(config):
    """Which numpy and BLAS ran the suite (wide-d results depend on both),
    and the package's line count."""
    return _header_line()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q hides the header; say it at the end instead
        terminalreporter.write_line(_header_line())


@pytest.fixture
def identity_quadratic():
    """m=2, d=4, A=I, centers at +/- e1: every constant is known in closed form."""
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    noise = NoiseModel("additive-gaussian", sigma2=1.0)
    return QuadraticProblem(np.eye(4), [e1, -e1], noise)


@pytest.fixture
def noiseless_quadratic():
    """Same geometry but sigma^2 = 0, for bitwise-deterministic trajectories."""
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    noise = NoiseModel("additive-gaussian", sigma2=0.0)
    return QuadraticProblem(np.eye(4), [e1, -e1], noise)


@pytest.fixture
def small_logistic():
    return build_logistic(ProblemConfig(kind="logistic", m=2, dimension=3, samples_per_worker=12,
                                        noise=NoiseModel("minibatch", batch_size=4),
                                        heterogeneity=0.4), seed=3)
