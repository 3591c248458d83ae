"""The package namespace: each public name is its defining module's object.

The package loads a name's module on first access, so these tests check
the names through every route a caller uses: ``from skconverse import
name``, ``from skconverse import *``, ``dir`` and, in a fresh interpreter,
the submodules as package attributes.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skconverse

#: module -> the names the package re-exports from it
PUBLIC = {
    "errors": "CapExceededError PreconditionError ShapeMismatchError",
    "probcore": "Alphabet Channel JointDist SubDist conditional_family conditional_product"
                " divergence entropy iid_extend load_dist marginal mutual_information"
                " save_dist tv_distance",
    "hyptest": "BetaCertificate beta_epsilon beta_epsilon_iid np_tail_bound"
               " renyi_beta_bound stein_scan",
    "smoothinfo": "SmoothingResult d_max d_max_smooth dmax_convergence_scan h_min"
                  " h_min_cond h_min_smooth",
    "structure": "Labeling Partition enum_partitions mcf mss",
    "bounds": "BoundReport CheckReport bc_bound bc_capacity_bound cit_bound cit_bound_best"
              " aux_capacity_bound aux_singleshot_bound ot_bounds ot_capacity_bound"
              " sc_necessary_check secure_transmission_check sk_capacity_formula",
    "protosim": "BCProtocol LocalRand OTProtocol Protocol SecurityReport check_converse"
                " eval_sk_security fuzz_converse ideal_bc_protocol ideal_ot_protocol"
                " interactive_independence_check leftover_hash leftover_hash_search"
                " acceptance_region_test measure_bc measure_ot reduce_bc_to_sk reduce_ot_to_sk",
}
NAMES = [(mod, name) for mod, names in PUBLIC.items() for name in names.split()]


def test_every_public_name_is_its_modules_object():
    star: dict = {}
    exec("from skconverse import *", star)
    listed = dir(skconverse)
    for mod, name in NAMES:
        ns: dict = {}
        exec(f"from skconverse import {name}", ns)
        home = getattr(importlib.import_module(f"skconverse.{mod}"), name)
        assert ns[name] is home, name
        assert star[name] is home, name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        skconverse.no_such_name
    with pytest.raises(ImportError):
        exec("from skconverse import no_such_name", {})


def test_submodules_resolve_as_package_attributes():
    # a fresh interpreter, where no submodule has been imported yet
    env = dict(os.environ, PYTHONPATH=str(Path(skconverse.__file__).parents[1]))
    code = (
        "import sys, skconverse as sk\n"
        "assert sorted(m for m in sys.modules if m.startswith('skconverse')) == "
        "['skconverse', 'skconverse.errors'], sorted(sys.modules)\n"
        "for name in ('probcore', 'hyptest', 'smoothinfo', 'structure', 'bounds',"
        " 'protosim', '_typeclasses', 'cli'):\n"
        "    assert getattr(sk, name) is sys.modules['skconverse.' + name], name\n"
        "    assert name in dir(sk), name\n"
        "print(sk.__version__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{skconverse.__version__}\n"
