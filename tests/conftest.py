"""Fixtures shared by the sweep tests."""

import pytest

from gradedheat import errors, harness

NUMERICAL_ERRORS = [errors.CapabilityError, errors.StabilityError, errors.ConvergenceError,
                    errors.SupportError, errors.ResolutionError]


@pytest.fixture(params=NUMERICAL_ERRORS, ids=lambda cls: cls.__name__)
def numerical_error(request):
    """Each numerical error class in turn: the failures a sweep reports as Fail."""
    return request.param


@pytest.fixture
def plant_error(monkeypatch):
    """plant_error(exc, at_eps) makes harness.regularize_potential raise exc
    at that one eps of the net."""
    real = harness.regularize_potential

    def plant(exc, at_eps):
        def regularize(pot, eps, *rest):
            if eps == at_eps:
                raise exc
            return real(pot, eps, *rest)
        monkeypatch.setattr(harness, "regularize_potential", regularize)
    return plant


@pytest.fixture
def cores(monkeypatch):
    """cores(n) makes every sweep see n cores, which size its pool and its BLAS cap."""
    def see(n):
        monkeypatch.setattr(harness, "_cores", lambda: n)
    return see
