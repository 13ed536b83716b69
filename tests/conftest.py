"""Shared fixtures.

The production-size solves (48^3 box, tol 1e-6) are session scoped and
share one solve cache with the energy-table fixture, so each symmetry
class is minimized exactly once per pytest run no matter how many tests
look at it.  Everything else stays small enough to run in seconds.
"""

import numpy as np
import pytest

from fracsaddle.analysis import energy_table, solve_level
from fracsaddle.coxeter import named_group
from fracsaddle.params import ModelParams
from fracsaddle.solver import SolverConfig
from fracsaddle.spectral import Grid

ACCEPT_PARAMS = ModelParams(N=3, s=0.5, alpha=2.0, p=2.0)


def base_config(grid, group):
    return SolverConfig(
        params=ACCEPT_PARAMS,
        grid=grid,
        group=group,
        max_iters=2000,
        tol=1e-6,
    )


@pytest.fixture(scope="session")
def accept_params():
    return ACCEPT_PARAMS


@pytest.fixture(scope="session")
def grid48():
    return Grid(3, 48, 24.0)


@pytest.fixture(scope="session")
def level_cache():
    return {}


@pytest.fixture(scope="session")
def groundstate48(grid48, level_cache):
    g = named_group("trivial")
    return solve_level(g, base_config(grid48, g), level_cache)


@pytest.fixture(scope="session")
def saddle_a1_48(grid48, level_cache):
    g = named_group("A1")
    return solve_level(g, base_config(grid48, g), level_cache)


@pytest.fixture(scope="session")
def saddle_a1xa1_48(grid48, level_cache):
    g = named_group("A1xA1")
    return solve_level(g, base_config(grid48, g), level_cache)


@pytest.fixture(scope="session")
def saddle_b2_48(grid48, level_cache):
    g = named_group("B2")
    return solve_level(g, base_config(grid48, g), level_cache)


@pytest.fixture(scope="session")
def groundstate64(level_cache):
    grid = Grid(3, 64, 32.0)
    g = named_group("trivial")
    return solve_level(g, base_config(grid, g), level_cache)


@pytest.fixture(scope="session")
def accept_table(grid48, level_cache):
    names = ("trivial", "A1", "A1xA1", "B2")
    configs = [base_config(grid48, named_group(n)) for n in names]
    return energy_table(configs, cache=level_cache)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
