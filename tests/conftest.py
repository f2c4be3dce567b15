"""Let the `python -m mixquad` child processes of the tests import the package from src.

Also the `lapack_route` fixture shared by the basis and solver tests.
"""

import os
from types import SimpleNamespace

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(params=["direct", "scipy"])
def lapack_route(request, monkeypatch):
    """The routines of mixquad._lapack bound by one route, and installed for the test.

    "direct" calls the compiled code of scipy's wheel; "scipy" is the route
    of a build without those files, forced by locators that find nothing.
    The routines replace the module's own for the test, so the basis
    constructor and the solver run on them too.
    """
    from mixquad import _lapack

    if request.param == "scipy":
        monkeypatch.setattr(_lapack, "_bundled_openblas", lambda package: ())
        monkeypatch.setattr(_lapack, "_nnls_extension", lambda: None)
    elif _lapack._lapack_functions() is None or _lapack._nnls_extension() is None:
        pytest.skip("this scipy build bundles no LAPACK symbols or NNLS extension")
    routines = dict(zip(("dpotrf", "dpotrs", "solve_triangular", "nnls"), _lapack._routines()))
    for name, fn in routines.items():
        monkeypatch.setattr(_lapack, name, fn)
    return SimpleNamespace(**routines)
