"""What a process loads: each check runs in a fresh interpreter, since the
suite's own process has long since imported every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The public names of ``plucker``, by the module that defines them.
PUBLIC = {
    "errors": "BudgetError ConfigError DecompositionError EmptyIntervalError EvaluationError "
    "ParameterError ParseError ShapeError",
    "subsets": "KSubset SubsetFamily SubsetInterval avoids_window covers cyclic_shift delta "
    "enumerate_subsets epsilon i_set interval iter_comparable_pairs lower_covers p_set "
    "p_set_complement parse_subset sigma_sets subset_leq subset_rank upper_covers",
    "permutations": "Permutation bruhat_interval bruhat_leq compose grassmannian_perm identity "
    "is_positroid_bruteforce long_cycle long_element pi_k positroid_from_interval "
    "simple_transposition verify_positroidset",
    "fields": "QQ Fp PrimeField Rationals is_prime",
    "matrices": "ExactMatrix PluckerVector YShape enumerate_y format_matrix ldu maximal_minors "
    "parse_matrix phi psi sample_y w_membership y_shape_check",
    "certificates": "Certificate LaurentExpression PluckerSymbol PrecedesT evaluate "
    "format_certificate parse_certificate plucker_relation precedes_t principal_certificate "
    "relation_table unit_certificate verify_certificate verify_pivot_inverse "
    "verify_plucker_relations",
    "varieties": "GrPoint VarietySpec closed_richardson_points count_points divisor_spec "
    "enumerate_grassmannian gaussian_binomial interpolate_count_polynomial membership "
    "open_richardson_points positroid_spec richardson_buckets richardson_spec verify_complement "
    "verify_positroid_divisor verify_shifted_schubert verify_w_count w_spec",
    "config": "SweepConfig load_config",
    "reports": "ClaimReport RunReport",
    "claims": "CLAIM_IDS run_all run_claim",
}


def fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def loaded_after(statement: str) -> list[str]:
    """The modules loaded once ``statement`` has run, taken before the probe imports json."""
    return fresh(f"import sys\n{statement}\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))")


def test_the_cli_loads_neither_the_claims_nor_the_certificates():
    loaded = loaded_after("import plucker.cli")
    unwanted = ["plucker.claims", "plucker.certificates", "plucker.config", "plucker.reports",
                "plucker.permutations", "dataclasses", "json"]
    assert [m for m in unwanted if m in loaded] == []
    assert "plucker.varieties" in loaded  # the probe does see what the cli loads


def test_the_package_loads_no_submodule():
    assert [m for m in loaded_after("import plucker") if m.startswith("plucker.")] == []


def test_every_public_name_is_its_modules_object_and_star_imported():
    report = fresh(
        "import importlib, json, plucker\n"
        f"public = {PUBLIC!r}\n"
        "star = {}\n"
        "exec('from plucker import *', star)\n"
        "wrong = [n for m, names in public.items() for n in names.split()\n"
        "         if getattr(plucker, n) is not getattr(importlib.import_module('plucker.' + m), n)\n"
        "         or star.get(n) is not getattr(plucker, n) or n not in vars(plucker)]\n"
        "print(json.dumps({'wrong': wrong, 'all': sorted(plucker.__all__), 'dir': dir(plucker),\n"
        "                  'star': sorted(k for k in star if not k.startswith('__'))}))"
    )
    names = sorted(n for names in PUBLIC.values() for n in names.split())
    assert len(names) == 99
    assert report["wrong"] == []
    assert report["all"] == names
    assert report["star"] == names
    assert set(names) <= set(report["dir"])


def test_unknown_names_raise_and_submodules_still_import():
    report = fresh(
        "import json, plucker\n"
        "try:\n"
        "    plucker.no_such_name\n"
        "    raised = None\n"
        "except AttributeError as exc:\n"
        "    raised = str(exc)\n"
        "from plucker import reports, varieties\n"
        "print(json.dumps({'raised': raised, 'modules': [reports.__name__, varieties.__name__]}))"
    )
    assert report["raised"] == "module 'plucker' has no attribute 'no_such_name'"
    assert report["modules"] == ["plucker.reports", "plucker.varieties"]
