import sys
import types
from pathlib import Path

import numpy as np
import pytest

from bergsmooth.geometry import make_domain, quadrature_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def disk():
    return make_domain("disk")


@pytest.fixture(scope="session")
def annulus():
    return make_domain("annulus", rho=0.5)


@pytest.fixture(scope="session")
def ball2():
    return make_domain("ball2")


@pytest.fixture(scope="session")
def disk_grid(disk):
    return quadrature_grid(disk, 32, 64)


@pytest.fixture(scope="session")
def annulus_grid(annulus):
    return quadrature_grid(annulus, 32, 64)


@pytest.fixture(scope="session")
def ball2_grid(ball2):
    return quadrature_grid(ball2, 12, 24)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def load_bench():
    """Loads a module of the benchmark by name, executed from its source without
    writing bytecode."""
    def load(name):
        path = PERFBENCH / f"{name}.py"
        mod = types.ModuleType(f"perfbench_{name}")
        # a dataclass looks its module up in sys.modules while the class is made
        sys.modules[mod.__name__] = mod
        try:
            exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), mod.__dict__)
        finally:
            del sys.modules[mod.__name__]
        return mod
    return load
