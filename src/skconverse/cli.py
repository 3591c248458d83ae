"""Command-line front door: parse inputs, dispatch, emit JSON/CSV reports.

Every run executes exactly one operation.  Reports embed the resolved
parameter set and the artifact version; identical configuration and seed
give byte-identical output.  Exit status: 0 on success (a failing
necessary-condition verdict is still a successful run), 1 on precondition
or input problems, 2 on internal assertion failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .bounds import (
    bc_bound,
    bc_capacity_bound,
    cit_bound,
    cit_bound_best,
    even_slack_split,
    aux_capacity_bound,
    aux_singleshot_bound,
    ot_bounds,
    ot_capacity_bound,
    sc_necessary_check,
    secure_transmission_check,
    sk_capacity_formula,
)
from .errors import CapExceededError, PreconditionError
from .hyptest import beta_epsilon, beta_epsilon_iid, stein_scan
from .probcore import (
    Channel,
    JointDist,
    conditional_product,
    divergence,
    fuse_vars,
    load_dist,
    read_json,
)
from .protosim import (
    eval_sk_security,
    fuzz_converse,
    ideal_bc_protocol,
    ideal_ot_protocol,
    measure_bc,
    measure_ot,
    protocol_from_json,
    reduce_bc_to_sk,
    reduce_ot_to_sk,
)
from .smoothinfo import d_max_smooth, dmax_convergence_scan, h_min_smooth
from .structure import Partition, mcf, mss


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


def _report(command: str, params: dict, result, out_path: str | None) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "params": params,
        "result": result,
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2), out_path)


def _load_params(args) -> dict:
    if not getattr(args, "params", None):
        return {}
    merged = read_json(args.params, "parameters JSON")
    if not isinstance(merged, dict):
        raise PreconditionError("malformed parameters JSON: expected an object")
    return merged


def _finite(val) -> float:
    """``val`` as a finite float: the type of every float flag and ``_num`` value."""
    try:
        num = float(val)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"not a number: {val!r}") from None
    if not math.isfinite(num):
        raise argparse.ArgumentTypeError(f"not a finite number: {val!r}")
    return num


def _num(args, merged: dict, name: str, required: bool = True):
    val = getattr(args, name, None)
    if val is None:
        val = merged.get(name)
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


def build_parser() -> _Parser:
    top = _Parser(prog="skconverse", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--params", help="JSON file of parameter values")

    p = sub.add_parser("beta", help="optimal type-II error with certificate")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--eps", type=_finite)
    add_out(p)

    smooth = sub.add_parser("smooth", help="smoothed entropy quantities")
    ssub = smooth.add_subparsers(dest="quantity", required=True)
    p = ssub.add_parser("hmin")
    p.add_argument("--dist", required=True)
    p.add_argument("--eps", type=_finite)
    add_out(p)
    p = ssub.add_parser("dmax")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--eps", type=_finite)
    add_out(p)

    structure = sub.add_parser("structure", help="mcf / mss label tables")
    stsub = structure.add_subparsers(dest="stat", required=True)
    p = stsub.add_parser("mcf")
    p.add_argument("--dist", required=True)
    p.add_argument("--v1", required=True)
    p.add_argument("--v2", required=True)
    add_out(p)
    p = stsub.add_parser("mss")
    p.add_argument("--dist", required=True)
    p.add_argument("--given", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--tol", type=_finite, default=1e-9)
    add_out(p)

    bound = sub.add_parser("bound", help="converse bounds and checks")
    bsub = bound.add_subparsers(dest="task", required=True)
    p = bsub.add_parser("sk")
    p.add_argument("--dist", required=True)
    p.add_argument("--eps", type=_finite)
    p.add_argument("--eta", type=_finite)
    p.add_argument("--partition")
    p.add_argument("--all-partitions", action="store_true")
    p.add_argument("--q", help="alternative conditionally factorizing Q")
    p.add_argument("--capacity", action="store_true", help="capacity formula only")
    p.add_argument("--aux-channel", help="auxiliary channel JSON for the two-party bound")
    p.add_argument("--delta", type=_finite)
    p.add_argument("--eta1", type=_finite)
    p.add_argument("--eta2", type=_finite)
    add_out(p)
    for task in ("ot", "bc"):
        p = bsub.add_parser(task)
        p.add_argument("--dist", required=True)
        p.add_argument("--eps", type=_finite)
        p.add_argument("--delta1", type=_finite)
        p.add_argument("--delta2", type=_finite)
        p.add_argument("--xi", type=_finite)
        p.add_argument("--capacity", action="store_true")
        add_out(p)
    p = bsub.add_parser("compute")
    p.add_argument("--dist", required=True)
    p.add_argument("--g", required=True, help="JSON function table (row-major list)")
    p.add_argument("--eps", type=_finite)
    p.add_argument("--delta", type=_finite)
    p.add_argument("--xi", type=_finite)
    p.add_argument("--zeta", type=_finite)
    p.add_argument("--eta", type=_finite)
    p.add_argument("--partition")
    add_out(p)
    p = bsub.add_parser("transmit")
    p.add_argument("--dist", required=True)
    p.add_argument("--kappa", type=_finite)
    p.add_argument("--eps", type=_finite)
    p.add_argument("--delta", type=_finite)
    p.add_argument("--xi", type=_finite)
    p.add_argument("--zeta", type=_finite)
    p.add_argument("--eta", type=_finite)
    add_out(p)

    scan = sub.add_parser("scan", help="CSV convergence scans")
    csub = scan.add_subparsers(dest="what", required=True)
    for what in ("stein", "dmax"):
        p = csub.add_parser(what)
        p.add_argument("--p", required=True)
        p.add_argument("--q", required=True)
        p.add_argument("--eps", type=_finite)
        p.add_argument("--n", required=True, help="comma-separated n values")
        add_out(p)
    p = csub.add_parser("capacity")
    p.add_argument("--dist", required=True)
    p.add_argument("--eps", type=_finite)
    p.add_argument("--eta", type=_finite)
    p.add_argument("--n", required=True)
    add_out(p)

    proto = sub.add_parser("protocol", help="exact protocol evaluation")
    psub = proto.add_subparsers(dest="action", required=True)
    p = psub.add_parser("eval")
    p.add_argument("--dist", required=True)
    p.add_argument("--protocol", required=True)
    add_out(p)
    p = psub.add_parser("reduce")
    p.add_argument("--kind", choices=["ot1", "ot2", "bc"], required=True)
    p.add_argument("--length", type=int, default=1)
    add_out(p)
    p = psub.add_parser("fuzz")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=20240913)
    p.add_argument("--eta", type=_finite, default=0.05)
    add_out(p)

    return top


def _parse_partition(text: str | None, m: int) -> Partition | None:
    return None if text is None else Partition.parse(text, m)


def _channel_from_json(path: str) -> Channel:
    from .probcore import Alphabet

    obj = read_json(path, "channel JSON")
    try:
        in_vars = tuple((v["name"], Alphabet(tuple(v["symbols"]))) for v in obj["inputs"])
        out_vars = tuple((v["name"], Alphabet(tuple(v["symbols"]))) for v in obj["outputs"])
        rows = {tuple(int(i) for i in k.split(",")) if k else (): row
                for k, row in obj["rows"].items()}
    except PreconditionError:  # a ValueError that already names the problem
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed channel JSON: {exc}") from None
    return Channel(in_vars, out_vars, rows)


def _dispatch(args) -> int:
    merged = _load_params(args)
    verb = args.verb

    if verb == "beta":
        P, Q = load_dist(args.p), load_dist(args.q)
        eps = _num(args, merged, "eps")
        cert = beta_epsilon(P, Q, eps)
        _report(
            "beta",
            {"eps": eps, "p": args.p, "q": args.q},
            {
                "beta": cert.beta,
                "log2_beta": cert.log2_beta,
                "neg_log2_beta": cert.neg_log2_beta,
                "n_full": cert.n_full,
                "gamma": cert.gamma,
                "type1_error": cert.type1_error,
            },
            args.out,
        )
        return 0

    if verb == "smooth":
        eps = _num(args, merged, "eps")
        if args.quantity == "hmin":
            res = h_min_smooth(load_dist(args.dist), eps)
            _report(
                "smooth hmin",
                {"eps": eps, "dist": args.dist},
                {"value": res.value, "removed_mass": res.removed_mass},
                args.out,
            )
        else:
            res = d_max_smooth(load_dist(args.p), load_dist(args.q), eps)
            _report(
                "smooth dmax",
                {"eps": eps, "p": args.p, "q": args.q},
                {"value": res.value, "removed_mass": res.removed_mass},
                args.out,
            )
        return 0

    if verb == "structure":
        J = load_dist(args.dist)
        if args.stat == "mcf":
            lab1, lab2 = mcf(J, args.v1, args.v2)
            _report(
                "structure mcf",
                {"dist": args.dist, "v1": args.v1, "v2": args.v2},
                {
                    "labels_v1": lab1.as_table(),
                    "labels_v2": lab2.as_table(),
                    "num_labels": lab1.num_labels,
                },
                args.out,
            )
        else:
            lab = mss(J, given=args.given, target=args.target, tol=args.tol)
            _report(
                "structure mss",
                {"dist": args.dist, "given": args.given, "target": args.target,
                 "tol": args.tol},
                {"labels": lab.as_table(), "num_labels": lab.num_labels},
                args.out,
            )
        return 0

    if verb == "bound":
        return _dispatch_bound(args, merged)

    if verb == "scan":
        eps = _num(args, merged, "eps")
        ns = _ns(args.n)
        if args.what == "capacity":
            eta = _num(args, merged, "eta")
            header = "n,cit_bound_over_n,capacity_limit"
            rows, limit = _capacity_scan(load_dist(args.dist), eps, eta, ns)
        else:
            P, Q = load_dist(args.p), load_dist(args.q)
            limit = divergence(P, Q, kind="kl")
            if args.what == "stein":
                header = "n,neg_log_beta_over_n,kl_limit"
                rows = stein_scan(P, Q, eps, ns)
            else:
                header = "n,dmax_eps_over_n,kl_limit"
                rows = dmax_convergence_scan(P, Q, eps, ns)
        _emit(_scan_csv(header, rows, limit), args.out)
        return 0

    if verb == "protocol":
        if args.action == "eval":
            J = load_dist(args.dist)
            proto = protocol_from_json(read_json(args.protocol, "protocol JSON"))
            rep = eval_sk_security(J, proto)
            _report(
                "protocol eval",
                {"dist": args.dist, "protocol": args.protocol},
                rep.as_json(),
                args.out,
            )
            return 0
        if args.action == "reduce":
            return _dispatch_reduce(args)
        rep = fuzz_converse(count=args.count, seed=args.seed, eta=args.eta)
        _report(
            "protocol fuzz",
            {"count": args.count, "seed": args.seed, "eta": args.eta},
            rep.as_json(),
            args.out,
        )
        return 0

    raise PreconditionError(f"unknown verb {verb!r}")


def _dispatch_bound(args, merged: dict) -> int:
    J = load_dist(args.dist)
    task = args.task
    if task == "sk":
        if args.capacity:
            value, pi = sk_capacity_formula(J)
            _report(
                "bound sk",
                {"dist": args.dist, "capacity": True},
                {"value": value, "partition": str(pi)},
                args.out,
            )
            return 0
        eps = _num(args, merged, "eps")
        eta = _num(args, merged, "eta")
        if args.aux_channel:
            delta = _num(args, merged, "delta")
            eta1 = _num(args, merged, "eta1")
            eta2 = _num(args, merged, "eta2")
            ch = _channel_from_json(args.aux_channel)
            rep = aux_singleshot_bound(J, ch, eps, delta, eta, eta1, eta2)
            result = rep.as_json()
            result["capacity_style"] = aux_capacity_bound(J, ch)
            _report("bound sk", rep.params | {"dist": args.dist}, result, args.out)
            return 0
        zs = [J.eve] if J.eve else []
        m = len(J.vars) - len(zs)
        if args.all_partitions or args.partition is None:
            rep = cit_bound_best(J, eps, eta)
        else:
            pi = _parse_partition(args.partition, m)
            q = load_dist(args.q) if args.q else None
            rep = cit_bound(J, pi, eps, eta, q=q)
        _report("bound sk", rep.params | {"dist": args.dist}, rep.as_json(), args.out)
        return 0

    if task in ("ot", "bc"):
        if args.capacity:
            value = ot_capacity_bound(J) if task == "ot" else bc_capacity_bound(J)
            _report(
                f"bound {task}",
                {"dist": args.dist, "capacity": True},
                {"value": value},
                args.out,
            )
            return 0
        eps = _num(args, merged, "eps")
        d1 = _num(args, merged, "delta1")
        d2 = _num(args, merged, "delta2")
        xi = _num(args, merged, "xi")
        fn = ot_bounds if task == "ot" else bc_bound
        rep = fn(J, eps, d1, d2, xi)
        _report(f"bound {task}", rep.params | {"dist": args.dist}, rep.as_json(), args.out)
        return 0

    if task == "compute":
        table = read_json(args.g, "function JSON")
        if isinstance(table, dict):
            table = table.get("outputs")
        if not isinstance(table, list):
            raise PreconditionError(
                'malformed function JSON: expected a list or {"outputs": [...]}'
            )
        eps = _num(args, merged, "eps")
        delta = _num(args, merged, "delta")
        slacks = _slacks(args, merged, eps, delta)
        pi = _parse_partition(args.partition, len(J.vars))
        rep = sc_necessary_check(J, table, eps, delta, partition=pi, **slacks)
        _report("bound compute", rep.params | {"dist": args.dist}, rep.as_json(), args.out)
        return 0

    if task == "transmit":
        kappa = _num(args, merged, "kappa")
        eps = _num(args, merged, "eps")
        delta = _num(args, merged, "delta")
        slacks = _slacks(args, merged, eps, delta)
        rep = secure_transmission_check(J, kappa, eps, delta, **slacks)
        _report("bound transmit", rep.params | {"dist": args.dist}, rep.as_json(), args.out)
        return 0

    raise PreconditionError(f"unknown bound task {task!r}")


def _slacks(args, merged: dict, eps: float, delta: float) -> dict:
    xi = _num(args, merged, "xi", required=False)
    zeta = _num(args, merged, "zeta", required=False)
    eta = _num(args, merged, "eta", required=False)
    if xi is None and zeta is None and eta is None:
        return even_slack_split(eps, delta)
    if None in (xi, zeta, eta):
        raise PreconditionError("supply all of --xi --zeta --eta, or none")
    return {"xi": xi, "zeta": zeta, "eta": eta}


def _dispatch_reduce(args) -> int:
    l = args.length
    if args.kind in ("ot1", "ot2"):
        J, otp = ideal_ot_protocol(l)
        base = measure_ot(J, otp)
        red = reduce_ot_to_sk(J, otp, variant=1 if args.kind == "ot1" else 2)
        rep = eval_sk_security(red.dist, red.protocol)
        budget = base.eps + base.delta1 + 2 * base.delta2
        result = {
            "base": base.as_json(),
            "reduced": rep.as_json(),
            "reduction_budget": budget,
            "within_reduction_bound": bool(rep.eps <= budget + 1e-12),
            "used_fallback": red.used_fallback,
        }
    else:
        J, bcp = ideal_bc_protocol(l)
        base = measure_bc(J, bcp)
        red = reduce_bc_to_sk(J, bcp)
        rep = eval_sk_security(red.dist, red.protocol)
        result = {
            "base": base.as_json(),
            "reduced": rep.as_json(),
            "reduction_budget": {"key_error": base.eps + base.delta2,
                             "secrecy": base.delta1},
            "within_reduction_bound": bool(
                rep.eps_rec <= base.eps + base.delta2 + 1e-12
                and rep.delta_sec <= base.delta1 + 1e-12
            ),
        }
    _report(
        "protocol reduce",
        {"kind": args.kind, "length": l},
        result,
        args.out,
    )
    return 0


def _capacity_scan(J: JointDist, eps: float, eta: float, ns: list[int]):
    """Rows (n, (1/n) cit bound on the n-fold source) and the capacity limit."""
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
    return rows, cap


def _scan_csv(header: str, rows, limit: float) -> str:
    """CSV of a convergence scan: one (n, value) row each, plus the limit."""
    lines = [header] + [f"{n},{v:.12g},{limit:.12g}" for n, v in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (PreconditionError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
