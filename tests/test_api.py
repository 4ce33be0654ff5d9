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


def _run(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(quip.__file__)))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout


def test_scipy_linalg_loads_only_with_the_gp():
    # the maximin design, the bounds, the simulators and the bound, design
    # and simulate commands run on numpy alone, without even running
    # scipy/__init__; a fit and a UCB solve run scipy/__init__ and load two
    # compiled modules from its files (LAPACK's scipy.linalg._flapack and
    # L-BFGS-B's scipy.optimize._lbfgsb), but neither the scipy.linalg nor
    # the scipy.optimize package; scipy.stats never loads, as the Sobol
    # starts are made in-house
    out = _run("""
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
        model = quip.gp.fit_mle(D, [0.5, 1.0, -0.3, 2.0], quip.gp.FitConfig(n_starts=4))
        print(loaded())
        quip.optimize_acquisition(model, quip.AcquisitionSpec("ucb", gap_tolerance=0.0))
        print(loaded())
    """)
    assert out.split("\n")[:3] == ["[]", "['scipy']", "['scipy']"]


def test_scipy_packages_import_after_the_gp_loads_its_routines():
    # the GP's own load of scipy's compiled modules leaves scipy.linalg and
    # scipy.optimize importable, and their wrappers give the GP's bits
    out = _run("""
        import numpy as np
        import quip

        D = quip.design_from_array([[1, 1, 2], [2, 2, 1], [1, 2, 3], [3, 1, 1]], 3)
        f = [0.5, 1.0, -0.3, 2.0]
        model = quip.gp.fit_mle(D, f, quip.gp.FitConfig(n_starts=4))
        import scipy.linalg, scipy.optimize

        X = D.as_array()
        K = quip.gp.cross_correlation(X, X, model.params.theta) + model.nugget * np.eye(4)
        L, info = scipy.linalg.lapack.dpotrf(K, lower=1)
        assert info == 0 and L.tobytes() == model.chol.tobytes()
        assert scipy.linalg.cholesky(K, lower=True).tobytes() == model.chol.tobytes()
        alpha = scipy.linalg.cho_solve((L, True), np.asarray(f) - model.params.mu)
        assert alpha.tobytes() == model.alpha.tobytes()
        res = scipy.optimize.minimize(lambda x: float((x - 1.0) @ (x - 1.0)), np.zeros(2),
                                      method="L-BFGS-B")
        assert res.success and np.allclose(res.x, 1.0)
        print("ok")
    """)
    assert out.split("\n")[0] == "ok"
