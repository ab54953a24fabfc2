import numpy as np
import pytest


@pytest.fixture
def matrix_norm2_calls(monkeypatch):
    """Every matrix whose 2-norm, one SVD, is taken in the test.

    That is each 2-D array of np.linalg.norm(X, 2) and each slice of a stacked
    np.linalg.svd(X, compute_uv=False).  Clear the list after set-up to count
    only the calls under test.
    """
    calls = []
    norm, svd = np.linalg.norm, np.linalg.svd

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls.append(x)
        return norm(x, ord, *args, **kwargs)

    def counted_svd(a, *args, **kwargs):
        if np.ndim(a) == 3 and not kwargs.get("compute_uv", True):
            calls.extend(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


@pytest.fixture
def matrix_svd_calls(monkeypatch):
    """Every 2-D array handed to np.linalg.svd in the test, with or without
    factors: the SVDs that matrix_norm2_calls does not list.  Clear the list
    after set-up to count only the calls under test.
    """
    calls = []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        if np.ndim(a) == 2:
            calls.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls

