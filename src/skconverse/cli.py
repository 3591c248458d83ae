"""Command-line front door: parse inputs, dispatch, emit JSON/CSV reports.

Every run executes exactly one operation, the handler of a leaf command.
Reports embed the resolved parameter set and the artifact version; identical
configuration and seed give byte-identical output.  Exit status: 0 on success
(a failing necessary-condition verdict is still a successful run), 1 on
precondition or input problems, 2 on internal assertion failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import CapExceededError, PreconditionError

# Each handler imports the library functions it calls when it runs, so a run
# loads only its own verb's modules, and --help, --version and usage errors
# load no numpy.


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); map to precondition
        raise PreconditionError(message)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_params(args) -> dict:
    if not args.params:
        return {}
    from .probcore import read_json

    merged = read_json(args.params, "parameters JSON")
    if not isinstance(merged, dict):
        raise PreconditionError("malformed parameters JSON: expected an object")
    return merged


def _finite(val) -> float:
    """``val`` as a finite float: the type of every float flag and ``_num`` value."""
    if isinstance(val, bool):  # a JSON true/false, which float() reads as 1.0/0.0
        raise argparse.ArgumentTypeError(f"not a number: {val!r}")
    try:
        num = float(val)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"not a number: {val!r}") from None
    if not math.isfinite(num):
        raise argparse.ArgumentTypeError(f"not a finite number: {val!r}")
    return num


def _num(args, merged: dict, name: str, required: bool = True, default=None):
    """The float ``--name``, else its ``--params`` value, else ``default``.

    Takes ``name`` out of ``merged``, so that ``main`` can reject the keys
    that no read took.
    """
    val = merged.pop(name, None)
    if getattr(args, name, None) is not None:
        val = getattr(args, name)
    if val is None:
        val = default
    if val is None and required:
        raise PreconditionError(f"missing required parameter --{name}")
    try:
        return None if val is None else _finite(val)
    except argparse.ArgumentTypeError as exc:
        raise PreconditionError(f"parameter {name} is {exc}") from None


def _ns(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise PreconditionError(f"cannot parse n-list {text!r}") from None


_FLAG_HELP = {"g": "JSON function table (row-major list)", "n": "comma-separated n values"}


def build_parser(argv=None) -> _Parser:
    """The parser of every command, or only of the command that ``argv`` names.

    Given ``argv``, it builds the top parser and just the group and leaf
    whose names are ``argv[0]`` and ``argv[1]`` (the leaf alone for
    ``beta``), which parse that ``argv`` as the whole tree does.  If they
    name no leaf (no verb, an option first, a group's ``-h``, an unknown
    name), it builds the whole tree, so every help, usage and error text is
    the whole tree's.
    """
    path = None if argv is None else list(argv[:2])
    top = _Parser(prog="skconverse", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="verb", required=True)
    leaves = []

    def group(name, dest, help):
        """The subcommands of group ``name``, or None when ``argv`` names another."""
        if path is not None and path[:1] != [name]:
            return None
        return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    def command(parent, name, run, files=(), floats=(), flags=None, modes=None, help=None):
        """A leaf command: required string flags (``files``), finite float
        flags, ``--out``, ``--params``, the other ``flags`` and at most one of
        the ``modes`` (flag -> ``add_argument`` keywords); its handler ``run``
        and its name.  Not built when ``argv`` names another."""
        depth = 0 if parent is sub else 1
        if parent is None or path is not None and path[depth:depth + 1] != [name]:
            return
        p = parent.add_parser(name, help=help)
        for flag in files:
            p.add_argument(f"--{flag}", required=True, help=_FLAG_HELP.get(flag))
        for flag in floats:
            p.add_argument(f"--{flag}", type=_finite)
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--params", help="JSON file of parameter values")
        for flag, kw in (flags or {}).items():
            p.add_argument(flag, **kw)
        if modes:
            exclusive = p.add_mutually_exclusive_group()
            for flag, kw in modes.items():
                exclusive.add_argument(flag, **kw)
        p.set_defaults(run=run, command=p.prog.split(" ", 1)[1])
        leaves.append(p)

    switch = {"action": "store_true"}
    command(sub, "beta", _beta, ("p", "q"), ("eps",),
            help="optimal type-II error with certificate")

    ssub = group("smooth", "quantity", "smoothed entropy quantities")
    command(ssub, "hmin", _hmin, ("dist",), ("eps",))
    command(ssub, "dmax", _dmax, ("p", "q"), ("eps",))

    stsub = group("structure", "stat", "mcf / mss label tables")
    command(stsub, "mcf", _mcf, ("dist", "v1", "v2"))
    command(stsub, "mss", _mss, ("dist", "given", "target"), ("tol",))

    bsub = group("bound", "task", "converse bounds and checks")
    command(bsub, "sk", _bound_sk, ("dist",), ("eps", "eta", "delta", "eta1", "eta2"),
            flags={"--q": {"help": "alternative conditionally factorizing Q (needs --partition)"}},
            modes={"--partition": {}, "--all-partitions": switch,
                   "--capacity": switch | {"help": "capacity formula only"},
                   "--aux-channel": {"help": "auxiliary channel JSON for the two-party bound"}})
    for task in ("ot", "bc"):
        command(bsub, task, _two_party, ("dist",),
                ("eps", "delta1", "delta2", "xi"), flags={"--capacity": switch})
    command(bsub, "compute", _bound_compute, ("dist", "g"),
            ("eps", "delta", "xi", "zeta", "eta"), flags={"--partition": {}})
    command(bsub, "transmit", _bound_transmit, ("dist",),
            ("kappa", "eps", "delta", "xi", "zeta", "eta"))

    csub = group("scan", "what", "CSV convergence scans")
    for what in ("stein", "dmax"):
        command(csub, what, _kl_scan, ("p", "q", "n"), ("eps",))
    command(csub, "capacity", _capacity_scan, ("dist", "n"), ("eps", "eta"))

    psub = group("protocol", "action", "exact protocol evaluation")
    command(psub, "eval", _protocol_eval, ("dist", "protocol"))
    command(psub, "reduce", _protocol_reduce,
            flags={"--kind": {"choices": ["ot1", "ot2", "bc"], "required": True},
                   "--length": {"type": int, "default": 1}})
    command(psub, "fuzz", _protocol_fuzz, floats=("eta",),
            flags={"--count": {"type": int, "default": 500},
                   "--seed": {"type": int, "default": 20240913}})

    if path is not None and not leaves:
        return build_parser()
    return top


def _channel_from_json(path: str):
    from .probcore import Alphabet, Channel, _json_pmf, read_json

    obj = read_json(path, "channel JSON")
    try:
        in_vars = tuple((v["name"], Alphabet(tuple(v["symbols"]))) for v in obj["inputs"])
        out_vars = tuple((v["name"], Alphabet(tuple(v["symbols"]))) for v in obj["outputs"])
        rows = {tuple(int(i) for i in k.split(",")) if k else (): _json_pmf(row)
                for k, row in obj["rows"].items()}
    except PreconditionError:  # a ValueError that already names the problem
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed channel JSON: {exc}") from None
    return Channel(in_vars, out_vars, rows)


# ---------------------------------------------------------------------------
# handlers: (args, merged --params) -> (params, result) of a JSON report, or
# the text of a CSV scan.  Each loads its files and reads its values in a
# fixed order, so an input with two faults always reports the same one.


def _with_dist(rep, args):
    return rep.params | {"dist": args.dist}, rep.as_json()


def _beta(args, merged):
    from .hyptest import beta_epsilon
    from .probcore import load_dist

    P, Q = load_dist(args.p), load_dist(args.q)
    eps = _num(args, merged, "eps")
    cert = beta_epsilon(P, Q, eps)
    fields = ("beta", "log2_beta", "neg_log2_beta", "n_full", "gamma", "type1_error")
    return {"eps": eps, "p": args.p, "q": args.q}, {f: getattr(cert, f) for f in fields}


def _hmin(args, merged):
    from .probcore import load_dist
    from .smoothinfo import h_min_smooth

    eps = _num(args, merged, "eps")
    res = h_min_smooth(load_dist(args.dist), eps)
    return {"eps": eps, "dist": args.dist}, {"value": res.value, "removed_mass": res.removed_mass}


def _dmax(args, merged):
    from .probcore import load_dist
    from .smoothinfo import d_max_smooth

    eps = _num(args, merged, "eps")
    res = d_max_smooth(load_dist(args.p), load_dist(args.q), eps)
    return ({"eps": eps, "p": args.p, "q": args.q},
            {"value": res.value, "removed_mass": res.removed_mass})


def _mcf(args, merged):
    from .probcore import load_dist
    from .structure import mcf

    lab1, lab2 = mcf(load_dist(args.dist), args.v1, args.v2)
    return {"dist": args.dist, "v1": args.v1, "v2": args.v2}, {
        "labels_v1": lab1.as_table(),
        "labels_v2": lab2.as_table(),
        "num_labels": lab1.num_labels,
    }


def _mss(args, merged):
    from .probcore import load_dist
    from .structure import mss

    tol = _num(args, merged, "tol", default=1e-9)
    lab = mss(load_dist(args.dist), given=args.given, target=args.target, tol=tol)
    return ({"dist": args.dist, "given": args.given, "target": args.target, "tol": tol},
            {"labels": lab.as_table(), "num_labels": lab.num_labels})


def _bound_sk(args, merged):
    from .bounds import (aux_capacity_bound, aux_singleshot_bound, cit_bound,
                         cit_bound_best, sk_capacity_formula)
    from .probcore import load_dist
    from .structure import Partition

    if args.q and args.partition is None:
        raise PreconditionError("--q needs --partition")
    J = load_dist(args.dist)
    if args.capacity:
        value, pi = sk_capacity_formula(J)
        return {"dist": args.dist, "capacity": True}, {"value": value, "partition": str(pi)}
    eps = _num(args, merged, "eps")
    eta = _num(args, merged, "eta")
    if args.aux_channel:
        delta = _num(args, merged, "delta")
        eta1 = _num(args, merged, "eta1")
        eta2 = _num(args, merged, "eta2")
        ch = _channel_from_json(args.aux_channel)
        params, result = _with_dist(aux_singleshot_bound(J, ch, eps, delta, eta, eta1, eta2), args)
        return params, result | {"capacity_style": aux_capacity_bound(J, ch)}
    if args.partition is None:
        return _with_dist(cit_bound_best(J, eps, eta), args)
    pi = Partition.parse(args.partition, len(J.vars) - bool(J.eve))
    q = load_dist(args.q) if args.q else None
    return _with_dist(cit_bound(J, pi, eps, eta, q=q), args)


def _two_party(args, merged):
    """The handler of ``bound ot`` and ``bound bc``."""
    from .bounds import bc_bound, bc_capacity_bound, ot_bounds, ot_capacity_bound
    from .probcore import load_dist

    bound_fn, capacity_fn = ((ot_bounds, ot_capacity_bound) if args.task == "ot"
                             else (bc_bound, bc_capacity_bound))
    J = load_dist(args.dist)
    if args.capacity:
        return {"dist": args.dist, "capacity": True}, {"value": capacity_fn(J)}
    eps = _num(args, merged, "eps")
    d1 = _num(args, merged, "delta1")
    d2 = _num(args, merged, "delta2")
    xi = _num(args, merged, "xi")
    return _with_dist(bound_fn(J, eps, d1, d2, xi), args)


def _bound_compute(args, merged):
    from .bounds import sc_necessary_check
    from .probcore import load_dist, read_json
    from .structure import Partition

    J = load_dist(args.dist)
    table = read_json(args.g, "function JSON")
    if isinstance(table, dict):
        table = table.get("outputs")
    if not isinstance(table, list):
        raise PreconditionError('malformed function JSON: expected a list or {"outputs": [...]}')
    eps = _num(args, merged, "eps")
    delta = _num(args, merged, "delta")
    slacks = _slacks(args, merged, eps, delta)
    pi = None if args.partition is None else Partition.parse(args.partition, len(J.vars))
    return _with_dist(sc_necessary_check(J, table, eps, delta, partition=pi, **slacks), args)


def _bound_transmit(args, merged):
    from .bounds import secure_transmission_check
    from .probcore import load_dist

    J = load_dist(args.dist)
    kappa = _num(args, merged, "kappa")
    eps = _num(args, merged, "eps")
    delta = _num(args, merged, "delta")
    slacks = _slacks(args, merged, eps, delta)
    return _with_dist(secure_transmission_check(J, kappa, eps, delta, **slacks), args)


def _slacks(args, merged: dict, eps: float, delta: float) -> dict:
    from .bounds import even_slack_split

    xi = _num(args, merged, "xi", required=False)
    zeta = _num(args, merged, "zeta", required=False)
    eta = _num(args, merged, "eta", required=False)
    if xi is None and zeta is None and eta is None:
        return even_slack_split(eps, delta)
    if None in (xi, zeta, eta):
        raise PreconditionError("supply all of --xi --zeta --eta, or none")
    return {"xi": xi, "zeta": zeta, "eta": eta}


def _kl_scan(args, merged):
    """The handler of ``scan stein`` and ``scan dmax``, whose values trend to D(P||Q)."""
    from .probcore import divergence, load_dist

    if args.what == "stein":
        from .hyptest import stein_scan as scan_fn
        header = "n,neg_log_beta_over_n,kl_limit"
    else:
        from .smoothinfo import dmax_convergence_scan as scan_fn
        header = "n,dmax_eps_over_n,kl_limit"
    eps = _num(args, merged, "eps")
    ns = _ns(args.n)
    P, Q = load_dist(args.p), load_dist(args.q)
    limit = divergence(P, Q, kind="kl")
    return _scan_csv(header, scan_fn(P, Q, eps, ns), limit)


def _capacity_scan(args, merged):
    """Rows (n, (1/n) cit bound on the n-fold source) and the capacity limit."""
    from .bounds import sk_capacity_formula
    from .hyptest import beta_epsilon_iid
    from .probcore import conditional_product, fuse_vars, load_dist
    from .structure import Partition

    eps = _num(args, merged, "eps")
    ns = _ns(args.n)
    eta = _num(args, merged, "eta")
    J = load_dist(args.dist)
    if J.eve is not None:
        raise PreconditionError("capacity scan expects no eve variable")
    if len(J.vars) != 2:
        raise PreconditionError("capacity scan is implemented for two parties")
    cap, _ = sk_capacity_formula(J)
    pi = Partition((frozenset([1]), frozenset([2])), 2)
    fuse = lambda d: fuse_vars(d, [list(d.var_names)], ["AB"])
    pair = fuse(J)
    prod = fuse(conditional_product(J, pi, None))
    rows = []
    for n in ns:
        cert = beta_epsilon_iid(pair, prod, n, eps + eta)
        rows.append((n, (cert.neg_log2_beta + 2 * math.log2(1.0 / eta)) / n))
    return _scan_csv("n,cit_bound_over_n,capacity_limit", rows, cap)


def _scan_csv(header: str, rows, limit: float) -> str:
    """CSV of a convergence scan: one (n, value) row each, plus the limit."""
    lines = [header] + [f"{n},{v:.12g},{limit:.12g}" for n, v in rows]
    return "\n".join(lines) + "\n"


def _protocol_eval(args, merged):
    from .probcore import load_dist, read_json
    from .protosim import eval_sk_security, protocol_from_json

    J = load_dist(args.dist)
    proto = protocol_from_json(read_json(args.protocol, "protocol JSON"))
    return {"dist": args.dist, "protocol": args.protocol}, eval_sk_security(J, proto).as_json()


def _protocol_reduce(args, merged):
    from .bounds import _TOL
    from .protosim import (eval_sk_security, ideal_bc_protocol, ideal_ot_protocol,
                           reduce_bc_to_sk, reduce_ot_to_sk)

    l = args.length
    if args.kind == "bc":
        red = reduce_bc_to_sk(*ideal_bc_protocol(l))
    else:
        red = reduce_ot_to_sk(*ideal_ot_protocol(l), variant=1 if args.kind == "ot1" else 2)
    base, rep = red.base, eval_sk_security(red.dist, red.protocol)
    result = {"base": base.as_json(), "reduced": rep.as_json()}
    if args.kind == "bc":
        result["reduction_budget"] = {"key_error": base.eps + base.delta2,
                                      "secrecy": base.delta1}
        result["within_reduction_bound"] = bool(
            rep.eps_rec <= base.eps + base.delta2 + _TOL
            and rep.delta_sec <= base.delta1 + _TOL
        )
    else:
        budget = base.eps + base.delta1 + 2 * base.delta2
        result["reduction_budget"] = budget
        result["within_reduction_bound"] = bool(rep.eps <= budget + _TOL)
        result["used_fallback"] = red.used_fallback
    return {"kind": args.kind, "length": l}, result


def _protocol_fuzz(args, merged):
    from .protosim import fuzz_converse

    eta = _num(args, merged, "eta", default=0.05)
    rep = fuzz_converse(count=args.count, seed=args.seed, eta=eta)
    return {"count": args.count, "seed": args.seed, "eta": eta}, rep.as_json()


#: the empty rows of a result, as ``json.dumps(..., indent=2)`` writes them
_ROWS_KEY = '\n    "per_partition": []'


def _dumps(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``.

    A check report's ``per_partition`` rows, one per partition, are written
    here rather than by json's encoder: each row's label through
    ``encode_basestring_ascii`` and its two floats by ``repr``, in json's
    layout.  A row that is not a string label with two finite floats, or a
    placeholder that does not occur exactly once, leaves it to ``json.dumps``.
    """
    rows = doc["result"].get("per_partition")
    if not rows or not all(
        type(r["partition"]) is str and type(r["rhs"]) is float and type(r["slack"]) is float
        and math.isfinite(r["rhs"]) and math.isfinite(r["slack"]) and len(r) == 3
        for r in rows
    ):
        return json.dumps(doc, sort_keys=True, indent=2)
    text = json.dumps(doc | {"result": doc["result"] | {"per_partition": []}},
                      sort_keys=True, indent=2)
    if text.count(_ROWS_KEY) != 1:
        return json.dumps(doc, sort_keys=True, indent=2)
    quote = json.encoder.encode_basestring_ascii
    body = ",\n".join(
        f'      {{\n        "partition": {quote(r["partition"])},\n'
        f'        "rhs": {r["rhs"]!r},\n        "slack": {r["slack"]!r}\n      }}'
        for r in rows
    )
    return text.replace(_ROWS_KEY, f'\n    "per_partition": [\n{body}\n    ]')


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        merged = _load_params(args)
        report = args.run(args, merged)
        if merged:
            raise PreconditionError(
                f"--params keys not read by this {args.command} run: {', '.join(sorted(merged))}"
            )
        if isinstance(report, tuple):
            params, result = report
            doc = {"command": args.command, "version": __version__,
                   "params": params, "result": result}
            report = _dumps(doc)
        _emit(report, args.out)
        return 0
    except (PreconditionError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
