import os
import subprocess
import sys
import textwrap

import quip


def test_all_names_resolve_once_and_star_import():
    names = quip.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(quip, name) is not None, name
    namespace: dict = {}
    exec("from quip import *", namespace)
    assert set(names) <= set(namespace)
    for name in names:
        assert namespace[name] is getattr(quip, name)


def test_scipy_linalg_loads_only_with_the_gp():
    # the maximin design, the bounds, the simulators and the bound, design
    # and simulate commands run on numpy alone, without even running
    # scipy/__init__; the first fit loads scipy.linalg, and scipy.optimize
    # too: the fit calls no minimize, but L-BFGS-B's core lives in that
    # package (scipy.optimize._lbfgsb.setulb); scipy.stats never loads, as
    # the Sobol starts are made in-house
    src = os.path.dirname(os.path.dirname(os.path.abspath(quip.__file__)))
    code = textwrap.dedent("""
        import contextlib, io, sys
        import quip
        from quip import bounds, cli, simulators

        def loaded():
            return sorted(m for m in ("scipy", "scipy.linalg", "scipy.optimize", "scipy.stats")
                          if m in sys.modules)

        quip.optimize_maximin(20, 8, 5)
        bounds.q_upper(20, 8, 5)
        simulators.snake_reward(simulators.default_snake(), quip.Point((1, 2) * 6, 5))
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["bound", "--n", "8", "--d", "10", "--M", "10"],
                         ["design", "--n", "6", "--d", "4", "--M", "3"],
                         ["simulate", "--problem", "snake", "--path", "1,2,3,4,5,1"]):
                assert cli.main(argv) == 0, argv
        print(loaded())
        D = quip.design_from_array([[1, 1, 2], [2, 2, 1], [1, 2, 3], [3, 1, 1]], 3)
        quip.gp.fit_mle(D, [0.5, 1.0, -0.3, 2.0], quip.gp.FitConfig(n_starts=4))
        print(loaded())
    """)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.split("\n")[:2] == [
        "[]", "['scipy', 'scipy.linalg', 'scipy.optimize']"]
