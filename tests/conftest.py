import threading

import numpy as np
import pytest

from shimorin_lab.measure import Atom, NuAlphaDensity, PowerDensity, RadialMeasure, catalog


def random_catalog_measure(rng: np.random.Generator, allow_atom_at_one: bool = True) -> RadialMeasure:
    """Random mixture of catalog components for property-style sweeps."""
    atoms, densities = [], []
    n = rng.integers(1, 4)
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            x = float(rng.uniform(0.0, 1.0))
            if allow_atom_at_one and rng.random() < 0.15:
                x = 1.0
            atoms.append(Atom(x, float(rng.lognormal(0.0, 0.5))))
        elif kind == 1:
            densities.append(PowerDensity(float(rng.lognormal(0.0, 0.5)),
                                          float(rng.uniform(-0.9, 1.5))))
        else:
            densities.append(NuAlphaDensity(float(rng.uniform(1.05, 1.95))))
    return RadialMeasure(tuple(atoms), tuple(densities))


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test after which a thread it started is still alive (1 s join)."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(1.0)
    alive = [t.name for t in started if t.is_alive()]
    assert not alive, f"threads still alive after the test: {alive}"


@pytest.fixture(scope="session")
def cat():
    return catalog()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
