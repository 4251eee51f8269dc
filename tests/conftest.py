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


@pytest.fixture(scope="session")
def cat():
    return catalog()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
