"""Converse bounds for secret key agreement and secure computing.

Computes single-shot upper bounds on secret key, oblivious transfer, and
bit commitment length from explicit finite joint distributions, and
validates them against exactly evaluated small-alphabet protocols.

Importing the package loads only ``errors``.  Every other public name, and
each submodule, is loaded from its module on first access, so a caller
pays only for the modules it uses.
"""

import importlib

from .errors import CapExceededError, PreconditionError, ShapeMismatchError

__version__ = "0.1.0"

#: module -> the public names it defines, re-exported here
_EXPORTS = {
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
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "_typeclasses", "cli")
__all__ = ["CapExceededError", "PreconditionError", "ShapeMismatchError", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
