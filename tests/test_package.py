"""Package surface: what `import mixquad` loads and the names it re-exports."""

import os
import subprocess
import sys

import mixquad as mq
from mixquad import basis, collocation, distribution, quadrature, rules


def test_solver_loads_on_first_use_of_its_names():
    src = os.path.dirname(os.path.dirname(mq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, mixquad as mq\n"
        "before = 'mixquad.quadrature' in sys.modules\n"
        "mq.adaptive_rule\n"
        "print(before, 'mixquad.quadrature' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout.strip() == "False True"


def test_every_public_name_is_the_object_of_its_defining_module():
    names = [n for n in mq.__all__ if n != "__version__"]
    assert len(names) == len(set(names))
    for name in names:
        homes = [m for m in (distribution, basis, rules, quadrature, collocation)
                 if name in m.__all__]
        assert len(homes) == 1, name
        assert getattr(mq, name) is getattr(homes[0], name), name


def test_lazily_loaded_names_are_the_solver_modules_all():
    assert list(mq._SOLVER_NAMES) == quadrature.__all__
