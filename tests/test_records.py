"""The result and input records: their constructors, equality and the
cost of importing them.

Every record but ParametricModel is a plain class with a hand-written
__init__.  The signatures below are those the records had as dataclasses;
a parameter that had a default_factory now defaults to None, which
stands for a fresh list or dict.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from surplex import duality, extraction, geometry, lp, models

ROOT = Path(__file__).resolve().parent.parent

SIGNATURES = {
    (lp, "LpSolution"): "status, primal=None, duals=None, "
                        "objective_value=None, ray=None, iterations=0",
    (lp, "CertificateReport"): "feasibility=0.0, dual_feasibility=0.0, "
                               "complementary_slackness=0.0, "
                               "duality_gap=0.0, passed=False, notes=''",
    (lp, "_Columns"): "runs, first, split, second, n_struct, slack_rows, "
                      "slack_cols, n_real",
    (geometry, "FiniteBeliefSet"): "labels, points, allow_duplicates=False",
    (geometry, "ExposureChain"): "target, initial_members, stages, "
                                 "margins=None, provenance='discovered'",
    (models, "TabularModel"): "labels, beliefs, values, ts=None",
    (models, "DeclaredFace"): "members, functional, description=''",
    (models, "LipschitzReport"): "max_ratio_pi, max_ratio_v, declared_pi, "
                                 "declared_v, passed",
    (extraction, "Classification"): "label, functional=None, margin=None, "
                                    "inf_margin=None, chain=None, "
                                    "witness=None, slack=0.0, "
                                    "provenance=''",
    (extraction, "Provenance"): "base_value, terms=None",
    (extraction, "Contract"): "payments, provenance=None",
    (extraction, "Menu"): "entries, ts=None",
    (extraction, "ExtractionReport"): "mode, labels, own, cross, best, "
                                      "verdict, passed, lipschitz_slack=0.0, "
                                      "notes='', ts=None",
    (extraction, "ConstructionLog"): "label, case, alphas=None, "
                                     "margins=None, deltas=None, "
                                     "residuals=None, chain_length=0, "
                                     "provenance=''",
    (duality, "VseInstance"): "tabular",
    (duality, "PrimalSolution"): "p_star, z, max_violation, solution",
    (duality, "DualMeasures"): "lam, nu",
    (duality, "DisintegrationReport"): "rows, gamma_residual, own_mass",
    (duality, "DualityReport"): "p_star, d_star, gap, primal, measures, "
                                "disintegration, verdict, diagnostics=None",
}


@pytest.mark.parametrize("module, name", list(SIGNATURES),
                         ids=[name for _, name in SIGNATURES])
def test_constructor_signature(module, name):
    params = inspect.signature(getattr(module, name)).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    shown = [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
             for p in params]
    assert ", ".join(shown) == SIGNATURES[module, name]


def test_default_lists_and_dicts_are_fresh():
    a = extraction.ConstructionLog("a", "chain")
    b = extraction.ConstructionLog("b", "chain")
    a.alphas.append(1.0)
    assert b.alphas == [] and a.margins is not a.deltas
    assert extraction.Provenance(1.0).terms == []
    assert geometry.ExposureChain(0, np.arange(2), []).margins == []
    first = extraction.Provenance(1.0)
    assert first.terms is not extraction.Provenance(1.0).terms


def test_records_with_arrays_compare_by_identity():
    sol = lp.LpSolution(status="optimal", primal=np.zeros(2))
    same = lp.LpSolution(status="optimal", primal=np.zeros(2))
    assert (sol == same) is False
    assert sol == sol
    tab = models.TabularModel(["a", "b"], [[0.5, 0.5], [0.2, 0.8]],
                              [1.0, 2.0])
    assert tab != models.TabularModel(["a", "b"], tab.beliefs, tab.values)


def test_replace_copies_a_parametric_model():
    model = models.counterexample_model(validate=False)
    models.sample(model, 5)
    copy = dataclasses.replace(model, name="copy")
    assert copy is not model and copy.name == "copy"
    assert copy.belief_fn is model.belief_fn
    assert copy.declared_faces == model.declared_faces
    assert models.sample(copy, 5) is not models.sample(model, 5)


def test_import_loads_no_argparse_and_one_dataclass():
    code = textwrap.dedent("""
        import sys, inspect
        import surplex, surplex.cli
        print('argparse' in sys.modules)
        import dataclasses
        print(sorted(f'{m}.{c.__name__}'
                     for m, mod in list(sys.modules.items())
                     if m.split('.')[0] == 'surplex'
                     for c in vars(mod).values()
                     if inspect.isclass(c) and c.__module__ == m
                     and dataclasses.is_dataclass(c)))
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False", "['surplex.models.ParametricModel']"]
