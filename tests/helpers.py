"""Shared random-instance generators for the test suite."""

import math

import numpy as np

from gpkrige import Dataset, KernelSpec, build_gram
from gpkrige.kernels import _LAG_BLOCK

FAMILIES = ("squared_exponential", "exponential", "matern32", "matern52")
# the largest n whose whole Gram is one row block of the assembly
ONE_BLOCK = math.isqrt(_LAG_BLOCK)


def random_instance(rng, n=None, dim=None, noise=0.0, families=FAMILIES,
                    max_cond=1e6):
    """Draw a well-conditioned (Dataset, KernelSpec, x*) triple.

    Locations are uniform over a box whose side grows with n so the Gram
    condition number stays reasonable; draws failing the condition bound
    are rejected and redrawn.
    """
    for _ in range(500):
        n_i = int(n if n is not None else rng.integers(2, 51))
        d_i = int(dim if dim is not None else rng.integers(1, 4))
        family = families[rng.integers(len(families))]
        ell = float(rng.uniform(0.5, 1.5))
        side = max(4.0, 1.8 * n_i ** (1.0 / d_i))
        x = rng.uniform(0.0, side, (n_i, d_i))
        kernel = KernelSpec(family, float(rng.uniform(0.5, 2.0)), (ell,), dim=d_i)
        gram = build_gram(kernel, x, noise)
        if np.linalg.cond(gram) > max_cond:
            continue
        y = rng.normal(size=n_i) + rng.uniform(-2.0, 2.0)
        xstar = rng.uniform(0.0, side, d_i)
        return Dataset(x, y, noise), kernel, xstar
    raise RuntimeError("could not draw a well-conditioned instance")


def counted(fn, orders):
    """``fn``, appending the order of its first argument to ``orders`` per call.

    The order is the argument's first dimension, or None if it has no
    shape.  Every argument is passed on as given, by position or keyword.
    """
    def wrapper(*args, **kwargs):
        orders.append(getattr(args[0], "shape", (None,))[0])
        return fn(*args, **kwargs)
    return wrapper


def random_spd(rng, n, jitter=0.5):
    """Random symmetric positive-definite matrix."""
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * np.eye(n)
