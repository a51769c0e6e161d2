"""The public surface: every exported name resolves, and the names whose work
a public path does stay gone."""

import importlib
import inspect
from pathlib import Path

import pytest

import genfit

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["base_distributions", "datasets", "family_transforms", "gof", "mps_fit", "optimizers", "selftest",
           "special_functions"]

# the deleted names, each with the public path that gives its numbers:
# base_isf(_log): family_quantile("expg", base, ln q, (1, *theta), log_p=True, lower_tail=False);
# one_minus_u/neg_log_sf: family_cdf(family, "exp", -ln(1 - u), (*induced, 1), location=False);
# chi_square_cdf: scipy.special.gammainc(df/2, x/2); spacing_sum_terms: _terms(*model.resolve(theta), ctx);
# n_total_params: chains.Model(...).k; BaseDist, FamilySpec: chains.Spec;
# spacing_objective(psi, ctx): _spacing_rows(psi[None], ctx)[0]; from_free(ctx, psi): _natural(psi[None], ctx)[0]
GONE = {
    "base_distributions": ["base_isf", "base_isf_log", "BaseDist"],
    "family_transforms": ["_complements", "n_total_params", "FamilySpec"],
    "mps_fit": ["chi_square_cdf", "spacing_sum_terms", "spacing_objective", "from_free"],
}


@pytest.mark.parametrize("module", [None] + MODULES)
def test_every_exported_name_resolves(module):
    mod = genfit if module is None else importlib.import_module(f"genfit.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("module", sorted(GONE))
def test_deleted_names_are_gone(module):
    mod = importlib.import_module(f"genfit.{module}")
    for name in GONE[module]:
        assert not hasattr(mod, name), name
        assert name not in genfit.__all__ and not hasattr(genfit, name), name


def test_internal_types_are_not_exported():
    for mod in [genfit] + [importlib.import_module(f"genfit.{module}") for module in MODULES]:
        assert "Spec" not in mod.__all__, mod.__name__


def test_deleted_arguments_and_attributes_are_gone():
    from genfit import chains, family_transforms
    from genfit.chains import Spec
    from genfit.mps_fit import SpacingContext
    from genfit.optimizers import OptimizerConfig

    for fn in (genfit.h_forward, genfit.log_h_prime):
        assert list(inspect.signature(fn).parameters) == ["name", "u", "induced"]
    assert not hasattr(Spec, "n_induced")
    assert not hasattr(SpacingContext([1.0, 2.0, 2.0], "expg", "exp"), "tie_mask")
    # a probability's triple is built and read in chains alone (_from_p, _to_p)
    assert not hasattr(chains, "_unit")
    assert not {"_unit", "_lnv", "_from_l"} & set(vars(family_transforms))
    # Nelder-Mead's tolerances are constants of its own, not options
    for option in ("f_tol", "x_tol"):
        with pytest.raises(TypeError):
            OptimizerConfig(**{option: 1e-6})


def test_the_cli_replaces_the_case_study_scripts():
    assert not (ROOT / "scripts" / "run_case_studies.py").exists()
    assert not (ROOT / "scripts" / "run_selftest.py").exists()
