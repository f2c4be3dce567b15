"""Let the `python -m mixquad` child processes of the tests import the package from src.

Also the `nnls_route` fixture of the solver tests.
"""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(params=["direct", "scipy"])
def nnls_route(request, monkeypatch):
    """mixquad._lapack.nnls on one route, installed for the test.

    "direct" calls scipy's compiled NNLS extension; "scipy" is the route of
    a build without it, scipy.optimize.nnls, forced by a probe that finds
    nothing. The route replaces the module's own for the test, so the
    solver runs on it too, with the module's iteration limit.
    """
    from mixquad import _lapack

    if request.param == "scipy":
        monkeypatch.setattr(_lapack, "_nnls_extension", lambda: None)
    elif _lapack._nnls_extension() is None:
        pytest.skip("this scipy build has no NNLS extension")
    monkeypatch.setattr(_lapack, "_route", _lapack._nnls())
    return _lapack.nnls
