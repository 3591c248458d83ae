import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skconverse
from skconverse import Channel, Partition, cli, divergence, protosim, save_dist, stein_scan
from skconverse.bounds import aux_capacity_bound, aux_singleshot_bound, cit_bound
from skconverse.cli import main
from skconverse.probcore import conditional_product, load_dist
from skconverse.protosim import protocol_to_json, random_sk_instance
from support import (
    BIT,
    ber,
    disagreeing_keys,
    dsbs,
    random_channel_rows,
    random_dist,
)


def write_dist(tmp_path, J, name):
    path = tmp_path / name
    save_dist(J, path)
    return str(path)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # -h and --version exit through argparse
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_beta_verb(tmp_path, capsys):
    p = write_dist(tmp_path, ber(0.3), "p.json")
    q = write_dist(tmp_path, ber(0.5), "q.json")
    code, out, _ = run(capsys, ["beta", "--p", p, "--q", q, "--eps", "0.1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["version"]
    assert abs(doc["result"]["beta"] - 5 / 6) <= 1e-12


def test_bound_sk_verb(tmp_path, capsys):
    d = write_dist(tmp_path, dsbs(0.11), "d.json")
    code, out, _ = run(
        capsys,
        ["bound", "sk", "--dist", d, "--eps", "0.1", "--eta", "0.05",
         "--all-partitions"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] > 0
    assert doc["result"]["partition"] == "1|2"

    code, out, _ = run(capsys, ["bound", "sk", "--dist", d, "--capacity"])
    assert code == 0
    assert abs(json.loads(out)["result"]["value"] - 0.500084041835472) <= 1e-9


def test_bound_ot_bc_compute_transmit(tmp_path, capsys):
    rng = np.random.default_rng(3)
    d = write_dist(tmp_path, random_dist(rng, [3, 3], names=["X1", "X2"]), "j.json")
    code, out, _ = run(
        capsys,
        ["bound", "ot", "--dist", d, "--eps", "0.02", "--delta1", "0.02",
         "--delta2", "0.02", "--xi", "0.05"],
    )
    assert code == 0 and json.loads(out)["result"]["value"] > 0

    code, out, _ = run(capsys, ["bound", "bc", "--dist", d, "--capacity"])
    assert code == 0

    g = tmp_path / "g.json"
    g.write_text(json.dumps(["0", "1", "0", "1", "0", "1", "0", "1", "0"]))
    code, out, _ = run(
        capsys,
        ["bound", "compute", "--dist", d, "--g", str(g),
         "--eps", "0.02", "--delta", "0.02"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] in (True, False)

    m = write_dist(tmp_path, ber(0.5), "m.json")
    code, out, _ = run(
        capsys,
        ["bound", "transmit", "--dist", m, "--kappa", "4",
         "--eps", "0.02", "--delta", "0.02"],
    )
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_scan_verbs(tmp_path, capsys):
    p = write_dist(tmp_path, ber(0.3), "p.json")
    q = write_dist(tmp_path, ber(0.5), "q.json")
    code, out, _ = run(
        capsys, ["scan", "stein", "--p", p, "--q", q, "--eps", "0.1", "--n", "10,100"]
    )
    assert code == 0
    assert out.splitlines()[0] == "n,neg_log_beta_over_n,kl_limit"
    kl = divergence(ber(0.3), ber(0.5))
    rows = stein_scan(ber(0.3), ber(0.5), 0.1, [10, 100])
    assert out.splitlines()[1:] == [f"{n},{v:.12g},{kl:.12g}" for n, v in rows]

    code, out, _ = run(
        capsys, ["scan", "dmax", "--p", p, "--q", q, "--eps", "0.25", "--n", "10"]
    )
    assert code == 0
    assert out.splitlines()[0] == "n,dmax_eps_over_n,kl_limit"

    d = write_dist(tmp_path, dsbs(0.11), "d.json")
    code, out, _ = run(
        capsys,
        ["scan", "capacity", "--dist", d, "--eps", "0.1", "--eta", "0.05",
         "--n", "10,50"],
    )
    assert code == 0
    assert out.splitlines()[0] == "n,cit_bound_over_n,capacity_limit"


def test_structure_verbs(tmp_path, capsys):
    d = write_dist(tmp_path, dsbs(0.11), "d.json")
    code, out, _ = run(capsys, ["structure", "mcf", "--dist", d, "--v1", "X1", "--v2", "X2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["num_labels"] == 1

    code, out, _ = run(
        capsys, ["structure", "mss", "--dist", d, "--given", "X1", "--target", "X2"]
    )
    assert code == 0
    assert json.loads(out)["result"]["num_labels"] == 2


def test_bound_ot_bc_on_a_source_named_v0_v1(tmp_path, capsys):
    J = random_dist(np.random.default_rng(5), [3, 4], names=["X1", "X2"])
    renamed = skconverse.JointDist((("V0", J.vars[0][1]), ("V1", J.vars[1][1])), J.pmf)
    paths = [write_dist(tmp_path, D, f"{i}.json") for i, D in enumerate((J, renamed))]
    single = ["--eps", ".02", "--delta1", ".02", "--delta2", ".02", "--xi", ".05"]
    for verb in ("ot", "bc"):
        for args in (single, ["--capacity"]):
            results = []
            for path in paths:
                code, out, err = run(capsys, ["bound", verb, "--dist", path, *args])
                assert code == 0, err
                results.append(json.loads(out)["result"])
            assert results[0] == results[1]


def test_smooth_verbs(tmp_path, capsys):
    d = write_dist(tmp_path, ber(0.5), "d.json")
    code, out, _ = run(capsys, ["smooth", "hmin", "--dist", d, "--eps", "0.1"])
    assert code == 0
    p = write_dist(tmp_path, ber(0.6), "p.json")
    q = write_dist(tmp_path, ber(0.5), "q.json")
    code, out, _ = run(capsys, ["smooth", "dmax", "--p", p, "--q", q, "--eps", "0.2"])
    assert code == 0
    assert abs(json.loads(out)["result"]["value"] - (-0.3219280948873623)) <= 1e-12


def test_smooth_dmax_disjoint_supports(tmp_path, capsys):
    # no mass of P can be covered, so every positive target is out of reach
    p = write_dist(tmp_path, ber(1.0), "p.json")
    q = write_dist(tmp_path, ber(0.0), "q.json")
    for eps in ("0.5", "0.9999999999999"):
        code, out, _ = run(capsys, ["smooth", "dmax", "--p", p, "--q", q, "--eps", eps])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["value"] == float("inf") and result["removed_mass"] == 1.0


def test_protocol_verbs(tmp_path, capsys):
    J, proto = random_sk_instance([9, 0], m=2, rounds=1)
    d = write_dist(tmp_path, J, "j.json")
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(protocol_to_json(proto)))
    code, out, _ = run(capsys, ["protocol", "eval", "--dist", d, "--protocol", str(pfile)])
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["result"]["eps"] <= 1.0

    for kind in ("ot1", "ot2", "bc"):
        code, out, _ = run(capsys, ["protocol", "reduce", "--kind", kind, "--length", "1"])
        assert code == 0
        assert json.loads(out)["result"]["within_reduction_bound"] is True

    code, out, _ = run(capsys, ["protocol", "fuzz", "--count", "10", "--seed", "3"])
    assert code == 0
    assert json.loads(out)["result"]["ok"] is True


def test_protocol_eval_rejects_duplicate_key_symbols(tmp_path, capsys):
    # a repeated key symbol once reported 1.585 key bits for a shared bit
    J, p = disagreeing_keys()
    d = write_dist(tmp_path, J, "j.json")
    pfile = tmp_path / "p.json"
    doc = protocol_to_json(p)
    pfile.write_text(json.dumps(doc))
    assert run(capsys, ["protocol", "eval", "--dist", d, "--protocol", str(pfile)])[0] == 0
    pfile.write_text(json.dumps(dict(doc, key_symbols=["0", "0", "1"])))
    code, out, err = run(capsys, ["protocol", "eval", "--dist", d, "--protocol", str(pfile)])
    assert (code, out) == (1, "")
    assert err == "error: malformed protocol JSON: key symbols must be unique\n"


def test_determinism_byte_identical(tmp_path, capsys):
    d = write_dist(tmp_path, dsbs(0.2), "d.json")
    argv = ["bound", "sk", "--dist", d, "--eps", "0.1", "--eta", "0.05"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2

    _, f1, _ = run(capsys, ["protocol", "fuzz", "--count", "5", "--seed", "11"])
    _, f2, _ = run(capsys, ["protocol", "fuzz", "--count", "5", "--seed", "11"])
    assert f1 == f2


def _check_doc(rows, dist="d.json"):
    return {"command": "bound compute", "version": "0", "params": {"dist": dist, "eps": 0.1},
            "result": {"lhs": 1.0, "partition": "1|2", "passed": True, "per_partition": [
                {"partition": p, "rhs": r, "slack": s} for p, r, s in rows]}}


@pytest.mark.parametrize("rows", [
    [("1|2", 1e-7, 1.5e-05), ("1,2|3", 1e16, -0.0), ("1|2|3", 5e-324, -1e16)],
    [("1|2", 0.5, float("inf")), ("1,2|3", 0.5, 0.25)],  # json's own writer
    [("1|2", float("nan"), 0.25)],
    [("1|2", float("-inf"), 0.25)],
    [("1|2", 1, 0.25)],
    [],
])
@pytest.mark.parametrize("dist", ["d.json", 'a"per_partition": []"\\x\u00e9.json'])
def test_report_writer_matches_json_dumps(rows, dist):
    doc = _check_doc(rows, dist)
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
    # the placeholder twice: json's writer again
    doc["params"]["per_partition"] = []
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("argv, rows", [
    (["bound", "compute", "--g", "{g}", "--eps", "0.02", "--delta", "0.02"], 4),
    (["bound", "compute", "--g", "{g}", "--eps", "0.02", "--delta", "0.02",
      "--partition", "1,3|2"], 1),
    (["bound", "transmit", "--kappa", "1", "--eps", "0.02", "--delta", "0.02"], 0),
])
def test_check_reports_are_json_dumps_bytes(argv, rows, tmp_path, capsys):
    """Check reports read back and written by json give the same bytes, with
    a --dist path that holds quotes and the rows' placeholder text."""
    rng = np.random.default_rng(4)
    d = write_dist(tmp_path, random_dist(rng, [2, 3, 2]), 'q"per_partition": []".json')
    g = tmp_path / "g.json"
    g.write_text(json.dumps([str(i % 3) for i in range(12)]))
    code, out, _ = run(capsys, [a.format(g=g) for a in argv] + ["--dist", d])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["dist"] == d and len(doc["result"]["per_partition"]) == rows
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_output_file(tmp_path, capsys):
    d = write_dist(tmp_path, ber(0.3), "p.json")
    q = write_dist(tmp_path, ber(0.5), "q.json")
    outp = tmp_path / "report.json"
    code, _, _ = run(
        capsys, ["beta", "--p", d, "--q", q, "--eps", "0.1", "--out", str(outp)]
    )
    assert code == 0
    assert json.loads(outp.read_text())["command"] == "beta"


def test_error_exits(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    q = write_dist(tmp_path, ber(0.5), "q.json")
    code, _, err = run(capsys, ["beta", "--p", str(bad), "--q", q, "--eps", "0.1"])
    assert code == 1 and "malformed" in err

    code, _, err = run(capsys, ["beta", "--p", q, "--q", q, "--eps", "1.5"])
    assert code == 1 and "eps" in err

    code, _, err = run(capsys, ["nonsense"])
    assert code == 1

    code, _, err = run(capsys, ["beta", "--p", q, "--q", q])
    assert code == 1 and "--eps" in err

    # missing file
    code, _, err = run(capsys, ["beta", "--p", str(tmp_path / "nope.json"), "--q", q,
                                "--eps", "0.1"])
    assert code == 1


def test_non_finite_input_exits_one(tmp_path, capsys):
    # NaN fails every comparison, so each loader must reject it explicitly
    q = write_dist(tmp_path, ber(0.5), "q.json")
    bad = tmp_path / "bad.json"
    for token in ("NaN", "Infinity", "-Infinity", "1e999"):
        bad.write_text(
            '{"variables": [{"name": "X", "symbols": ["0", "1"]}], '
            f'"pmf": [{token}, 1.0]}}'
        )
        code, _, _ = run(capsys, ["beta", "--p", str(bad), "--q", q, "--eps", "0.1"])
        assert code == 1, token

    bad.write_text('{"eps": NaN}')
    code, _, _ = run(capsys, ["beta", "--p", q, "--q", q, "--params", str(bad)])
    assert code == 1

    d = write_dist(tmp_path, dsbs(0.11), "d.json")
    bad.write_text(
        '{"inputs": [{"name": "X1", "symbols": ["0", "1"]}], '
        '"outputs": [{"name": "U", "symbols": ["0", "1"]}], '
        '"rows": {"0": [NaN, 1.0], "1": [0.5, 0.5]}}'
    )
    code, _, _ = run(capsys, [
        "bound", "sk", "--dist", d, "--aux-channel", str(bad), "--eps", "0.1",
        "--eta", "0.2", "--delta", "0.1", "--eta1", "0.05", "--eta2", "0.05",
    ])
    assert code == 1

    bad.write_text('{"outputs": [0, NaN, 1, 0]}')
    code, _, _ = run(capsys, [
        "bound", "compute", "--dist", d, "--g", str(bad), "--eps", "0.1",
        "--delta", "0.1",
    ])
    assert code == 1

    J, proto = random_sk_instance([9, 0], m=2, rounds=1)
    obj = protocol_to_json(proto)
    table = obj["messages"]["1:1"]
    table[next(iter(table))] = {"0": 0.5, "1": 0.5}
    bad.write_text(json.dumps(obj).replace("0.5", "NaN", 1))
    code, _, _ = run(capsys, [
        "protocol", "eval", "--dist", write_dist(tmp_path, J, "j.json"),
        "--protocol", str(bad),
    ])
    assert code == 1

    # float flags and --params values must be finite; a length nonnegative
    transmit = ["bound", "transmit", "--dist", d, "--eps", "0.1", "--delta", "0.1"]
    bad.write_text(json.dumps({"kappa": "inf"}))
    for argv in (
        transmit + ["--kappa", "nan"],
        transmit + ["--kappa", "-inf"],
        transmit + ["--params", str(bad)],
        ["structure", "mss", "--dist", d, "--given", "X1", "--target", "X2",
         "--tol", "nan"],
        ["protocol", "fuzz", "--count", "4", "--eta", "nan"],
        ["protocol", "reduce", "--kind", "ot1", "--length", "-1"],
        ["protocol", "reduce", "--kind", "bc", "--length", "-1"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and err.startswith("error: "), argv


def test_malformed_json_inputs_exit_one(tmp_path, capsys):
    # each of these once escaped main() as a traceback
    d = write_dist(tmp_path, dsbs(0.11), "d.json")
    bad = tmp_path / "bad.json"
    for g in ({"table": [0, 1, 1, 0]}, 3):
        bad.write_text(json.dumps(g))
        code, _, err = run(capsys, [
            "bound", "compute", "--dist", d, "--g", str(bad), "--eps", "0.1",
            "--delta", "0.1",
        ])
        assert code == 1 and "malformed function JSON" in err

    bad.write_text(json.dumps([0.1]))
    code, _, err = run(capsys, ["beta", "--p", d, "--q", d, "--params", str(bad)])
    assert code == 1 and "malformed parameters JSON" in err
    for value in ("abc", [0.1]):
        bad.write_text(json.dumps({"eps": value}))
        code, _, err = run(capsys, ["beta", "--p", d, "--q", d, "--params", str(bad)])
        assert code == 1 and "not a number" in err
    for params, argv in [  # float() reads true/false as 1.0/0.0
        ({"eps": False}, ["beta", "--p", d, "--q", d]),
        ({"tol": True}, ["structure", "mss", "--dist", d, "--given", "X1", "--target", "X2"]),
    ]:
        bad.write_text(json.dumps(params))
        (name, value), = params.items()
        code, out, err = run(capsys, argv + ["--params", str(bad)])
        assert (code, out) == (1, ""), params
        assert err == f"error: parameter {name} is not a number: {value}\n", params

    bad.write_text(
        '{"inputs": [{"name": "X1", "symbols": ["0", "1"]}], '
        '"outputs": [{"name": "U", "symbols": ["0", "1"]}], '
        '"rows": {"a": [0.5, 0.5], "1": [0.5, 0.5]}}'
    )
    code, _, err = run(capsys, [
        "bound", "sk", "--dist", d, "--aux-channel", str(bad), "--eps", "0.1",
        "--eta", "0.2", "--delta", "0.1", "--eta1", "0.05", "--eta2", "0.05",
    ])
    assert code == 1 and "malformed channel JSON" in err

    bad.write_text(json.dumps([]))
    code, _, err = run(capsys, ["protocol", "eval", "--dist", d, "--protocol", str(bad)])
    assert code == 1 and "malformed protocol JSON" in err

    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    for argv, what in [
        (["smooth", "hmin", "--dist", str(bad), "--eps", "0.1"], f"JSON in {bad}"),
        (["beta", "--p", d, "--q", d, "--params", str(bad)], "parameters JSON"),
        (["bound", "compute", "--dist", d, "--g", str(bad), "--eps", "0.1", "--delta", "0.1"],
         "function JSON"),
        (["bound", "sk", "--dist", d, "--aux-channel", str(bad), "--eps", "0.1", "--eta", "0.2",
          "--delta", "0.1", "--eta1", "0.05", "--eta2", "0.05"], "channel JSON"),
        (["protocol", "eval", "--dist", d, "--protocol", str(bad)], "protocol JSON"),
    ]:
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert err == (f"error: malformed {what}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n"), argv


def test_function_table_object_form(tmp_path, capsys):
    d = write_dist(tmp_path, dsbs(0.11), "d.json")
    argv = ["bound", "compute", "--dist", d, "--eps", "0.02", "--delta", "0.02"]
    g = tmp_path / "g.json"
    g.write_text(json.dumps(["0", "1", "1", "0"]))
    code, listed, _ = run(capsys, argv + ["--g", str(g)])
    assert code == 0
    g.write_text(json.dumps({"outputs": ["0", "1", "1", "0"]}))
    code, wrapped, _ = run(capsys, argv + ["--g", str(g)])
    assert code == 0 and wrapped == listed


def test_fuzz_rejects_eta_outside_unit_interval(capsys):
    for eta in ("1.5", "0", "1"):
        code, out, err = run(capsys, ["protocol", "fuzz", "--count", "4", "--eta", eta])
        assert code == 1 and out == "" and "eta" in err, eta
    # arguments are checked before any instance is built
    for argv in (["--count", "0", "--eta", "1.5"], ["--count", "-3"], ["--count", "0"]):
        code, out, err = run(capsys, ["protocol", "fuzz"] + argv)
        assert code == 1 and out == "" and "count" in err, argv
    code, out, err = run(capsys, ["protocol", "fuzz", "--count", "1", "--seed", "-1"])
    assert code == 1 and out == "" and "seed" in err


def test_fuzz_report_distance_at_most_one(capsys):
    # the report once gave max_eps = 1.0000000000000009 here
    code, out, _ = run(capsys, ["protocol", "fuzz", "--count", "300", "--seed", "0"])
    assert code == 0
    assert json.loads(out)["result"]["max_eps"] == 1.0


def test_params_file_merging(tmp_path, capsys):
    p = write_dist(tmp_path, ber(0.3), "p.json")
    q = write_dist(tmp_path, ber(0.5), "q.json")
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"eps": 0.1}))
    code, out, _ = run(capsys, ["beta", "--p", p, "--q", q, "--params", str(params)])
    assert code == 0
    assert abs(json.loads(out)["result"]["beta"] - 5 / 6) <= 1e-12


def test_params_read_like_flags(tmp_path, capsys):
    # structure mss --tol and protocol fuzz --eta read --params like every
    # other float flag; the flag still wins
    d = write_dist(tmp_path, dsbs(0.1), "d.json")
    params = tmp_path / "params.json"
    mss = ["structure", "mss", "--dist", d, "--given", "X1", "--target", "X2"]
    params.write_text(json.dumps({"tol": 0.25}))
    for extra, tol in (([], 0.25), (["--tol", "1e-6"], 1e-6)):
        code, out, _ = run(capsys, mss + extra + ["--params", str(params)])
        assert code == 0 and json.loads(out)["params"]["tol"] == tol, extra

    fuzz = ["protocol", "fuzz", "--count", "3"]
    params.write_text(json.dumps({"eta": 0.2}))
    for extra, eta in (([], 0.2), (["--eta", "0.1"], 0.1)):
        code, out, _ = run(capsys, fuzz + extra + ["--params", str(params)])
        assert code == 0 and json.loads(out)["params"]["eta"] == eta, extra
    params.write_text(json.dumps({"eta": 1.5}))
    code, out, err = run(capsys, fuzz + ["--params", str(params)])
    assert (code, out) == (1, "") and "eta must lie in (0, 1)" in err


def test_params_not_read_exit_one(tmp_path, capsys):
    # a --params key that names no float flag of the command, or one that
    # the chosen mode does not read, exits 1 and writes no report
    d = write_dist(tmp_path, dsbs(0.1), "d.json")
    params = tmp_path / "params.json"
    unread = "error: --params keys not read by this "
    fuzz = ["protocol", "fuzz", "--count", "3"]
    cases = [
        ({"eta": 1.5, "count": 0}, fuzz, "error: eta must lie in (0, 1)\n"),
        ({"count": 0, "seed": 4}, fuzz, unread + "protocol fuzz run: count, seed\n"),
        ({"length": 2, "kind": "bc"}, ["protocol", "reduce", "--kind", "ot1"],
         unread + "protocol reduce run: kind, length\n"),
        ({"eta": 0.1}, ["protocol", "reduce", "--kind", "ot1"],
         unread + "protocol reduce run: eta\n"),
        ({"eta": 0.1, "delta": 0.2},
         ["bound", "sk", "--dist", d, "--partition", "1|2", "--eps", "0.1"],
         unread + "bound sk run: delta\n"),
    ]
    for task in ("ot", "bc", "sk"):
        cases.append(({"eps": 0.1}, ["bound", task, "--dist", d, "--capacity"],
                      unread + f"bound {task} run: eps\n"))
    out_path = tmp_path / "out.json"
    for values, argv, want in cases:
        params.write_text(json.dumps(values))
        code, out, err = run(capsys, argv + ["--params", str(params)])
        assert (code, out, err) == (1, "", want), argv
        code, _, _ = run(capsys, argv + ["--params", str(params), "--out", str(out_path)])
        assert code == 1 and not out_path.exists(), argv


def test_failing_check_is_still_exit_zero(tmp_path, capsys):
    # a violated necessary condition is a verdict, not a process error
    n = 8
    short, long = 1 << n, 1 << (2 * n)
    from skconverse import Alphabet, JointDist

    syms = tuple(f"s{i}" for i in range(short)) + tuple(f"l{i}" for i in range(long))
    pmf = [0.5 / short] * short + [0.5 / long] * long
    mix = JointDist((("Y", Alphabet(syms)),), pmf)
    d = write_dist(tmp_path, mix, "mix.json")
    code, out, _ = run(
        capsys,
        ["bound", "transmit", "--dist", d, "--kappa", "4", "--eps", "0",
         "--delta", "0", "--xi", "0.25", "--zeta", "0.2", "--eta", "0.2"],
    )
    assert code == 0
    assert json.loads(out)["result"]["passed"] is False


def fresh_modules(code, cwd=None):
    """The modules a fresh interpreter has loaded after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(Path(skconverse.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint(*sorted(sys.modules))"],
        env=env, cwd=cwd, capture_output=True, text=True, check=True)
    return set(proc.stdout.split("\n")[-2].split())


def test_import_leaves_thread_pool_out():
    # an import-cost guard: the CLI runs every scan serially, so loading it
    # must not pull in concurrent.futures and its thread machinery
    assert "concurrent.futures" not in fresh_modules("import skconverse.cli")


def test_parser_loads_no_library_module():
    # an import-cost guard: --help, --version and usage errors need neither
    # numpy nor any module but the front door's own
    loaded = fresh_modules("import skconverse.cli as cli\ncli.build_parser()")
    assert not loaded & {"numpy", "orjson"}
    assert {m for m in loaded if m.startswith("skconverse")} == {
        "skconverse", "skconverse.cli", "skconverse.errors"}


def test_beta_loads_only_its_modules(tmp_path):
    # an import-cost guard: a beta run loads no bounds, structure or protocols
    for name, pmf in (("p.json", [0.5, 0.5]), ("q.json", [0.25, 0.75])):
        (tmp_path / name).write_text(json.dumps(
            {"variables": [{"name": "X", "symbols": ["0", "1"]}], "pmf": pmf}))
    loaded = fresh_modules(
        "import skconverse.cli as cli\n"
        "assert cli.main(['beta', '--p', 'p.json', '--q', 'q.json', '--eps', '0.1']) == 0",
        cwd=tmp_path)
    assert "skconverse.hyptest" in loaded
    assert not loaded & {"skconverse.protosim", "skconverse.bounds", "skconverse.structure"}


def test_eval_on_mass_within_input_tolerance(tmp_path, capsys):
    J, proto = disagreeing_keys(1.0 + 5e-10)
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(protocol_to_json(proto)))
    code, out, _ = run(capsys, [
        "protocol", "eval", "--dist", write_dist(tmp_path, J, "j.json"),
        "--protocol", str(pfile),
    ])
    assert code == 0
    assert json.loads(out)["result"]["eps"] == 1.0


def _report_of(out):
    doc = json.loads(out)
    return [doc["params"], doc["result"]]


def _as_doc(value):
    # the report's JSON round trip: tuples become lists, floats stay exact
    return json.loads(json.dumps(value))


def test_bound_sk_aux_channel_report(tmp_path, capsys):
    rng = np.random.default_rng(5)
    J = random_dist(rng, [2, 2, 2], names=["X1", "X2", "Z"], eve="Z")
    d = write_dist(tmp_path, J, "j.json")
    rows = random_channel_rows(rng, 2, 2)
    chfile = tmp_path / "u.json"
    chfile.write_text(json.dumps({
        "inputs": [{"name": "Z", "symbols": ["0", "1"]}],
        "outputs": [{"name": "U", "symbols": ["0", "1"]}],
        "rows": {str(k[0]): [float(x) for x in r] for k, r in rows.items()},
    }))
    ch = Channel((("Z", BIT),), (("U", BIT),), rows)
    eps, delta, eta, eta2 = 0.05, 0.05, 0.3, 0.05
    # eta1 > 0 smooths the divergence term; eta1 = 0 takes the plain d_max
    for eta1 in (0.05, 0.0):
        code, out, _ = run(capsys, [
            "bound", "sk", "--dist", d, "--aux-channel", str(chfile),
            "--eps", str(eps), "--eta", str(eta), "--delta", str(delta),
            "--eta1", str(eta1), "--eta2", str(eta2),
        ])
        assert code == 0
        rep = aux_singleshot_bound(J, ch, eps, delta, eta, eta1, eta2)
        want = rep.as_json() | {"capacity_style": aux_capacity_bound(J, ch)}
        assert _report_of(out) == _as_doc([rep.params | {"dist": d}, want]), eta1


def test_bound_sk_supplied_q(tmp_path, capsys):
    rng = np.random.default_rng(8)
    J = random_dist(rng, [2, 2, 2], names=["X1", "X2", "X3"])
    pi = Partition.parse("1|2,3", 3)
    Q = conditional_product(J, pi, None)
    d = write_dist(tmp_path, J, "j.json")
    q = write_dist(tmp_path, Q, "q.json")
    code, out, _ = run(capsys, [
        "bound", "sk", "--dist", d, "--partition", "1|2,3", "--q", q,
        "--eps", "0.1", "--eta", "0.05",
    ])
    assert code == 0
    rep = cit_bound(J, pi, 0.1, 0.05, q=load_dist(q))
    assert _report_of(out) == _as_doc([rep.params | {"dist": d}, rep.as_json()])


def test_bound_compute_partial_slacks(tmp_path, capsys):
    d = write_dist(tmp_path, dsbs(0.11), "d.json")
    g = tmp_path / "g.json"
    g.write_text(json.dumps(["0", "1", "1", "0"]))
    code, out, err = run(capsys, [
        "bound", "compute", "--dist", d, "--g", str(g), "--eps", "0.02",
        "--delta", "0.02", "--xi", "0.01",
    ])
    assert (code, out) == (1, "")
    assert err == "error: supply all of --xi --zeta --eta, or none\n"


def test_bound_sk_modes_are_exclusive(tmp_path, capsys):
    # each of these once exited 0 with the best-partition report, the
    # conflicting input silently ignored
    d = write_dist(tmp_path, dsbs(0.11), "d.json")
    q = write_dist(tmp_path, dsbs(0.2), "q.json")
    sk = ["bound", "sk", "--dist", d, "--eps", "0.1", "--eta", "0.05"]
    code, out, err = run(capsys, sk + ["--q", q])
    assert (code, out, err) == (1, "", "error: --q needs --partition\n")
    for extra in (["--partition", "1|2", "--all-partitions"],
                  ["--capacity", "--all-partitions"],
                  ["--capacity", "--aux-channel", q],
                  ["--partition", "1|2", "--capacity"]):
        code, out, err = run(capsys, sk + extra)
        assert code == 1 and out == "" and "not allowed with argument" in err, extra


def test_non_numeric_pmf_entries_exit_one(tmp_path, capsys):
    # these once escaped main() as ValueError / TypeError tracebacks
    bad = tmp_path / "bad.json"
    # [true, 0], [true, 0.0] and [[0.5], [0.5]] once loaded as two-cell pmfs
    for pmf in (["x", 0.5], ["0.5", "0.5"], [True, False], [[0.5], 0.5], {"a": 1},
                [True, 0], [True, 0.0], [[0.5], [0.5]]):
        bad.write_text(json.dumps(
            {"variables": [{"name": "X", "symbols": ["0", "1"]}], "pmf": pmf}))
        code, out, err = run(capsys, ["smooth", "hmin", "--dist", str(bad), "--eps", "0.1"])
        assert (code, out, err) == (1, "", "error: pmf entries must be numbers\n"), pmf

    rng = np.random.default_rng(5)
    d = write_dist(tmp_path, random_dist(rng, [2, 2, 2], names=["X1", "X2", "Z"], eve="Z"),
                   "j.json")
    for row in (["x", 0.5], ["0.5", "0.5"], [True, 0], [[0.5], [0.5]]):
        bad.write_text(json.dumps({
            "inputs": [{"name": "Z", "symbols": ["0", "1"]}],
            "outputs": [{"name": "U", "symbols": ["0", "1"]}],
            "rows": {"0": row, "1": [0.5, 0.5]},
        }))
        code, out, err = run(capsys, [
            "bound", "sk", "--dist", d, "--aux-channel", str(bad), "--eps", "0.05",
            "--eta", "0.3", "--delta", "0.05", "--eta1", "0.05", "--eta2", "0.05",
        ])
        assert (code, out, err) == (1, "", "error: pmf entries must be numbers\n"), row


# ---------------------------------------------------------------------------
# input checks: each row is a call, its exit status and its stderr

INPUT_CHECKS = [
    (["scan", "stein", "--p", "{p}", "--q", "{p}", "--eps", "0.1", "--n", "1,x"],
     1, "error: cannot parse n-list '1,x'"),
    (["scan", "dmax", "--p", "{p}", "--q", "{p}", "--eps", "0.1", "--n", "10,0,-1"],
     1, "error: n must be >= 1"),
    (["scan", "capacity", "--dist", "{j2e}", "--eps", "0.1", "--eta", "0.05", "--n", "10"],
     1, "error: capacity scan expects no eve variable"),
    (["scan", "capacity", "--dist", "{j3}", "--eps", "0.1", "--eta", "0.05", "--n", "10"],
     1, "error: capacity scan is implemented for two parties"),
    (["bound", "sk", "--dist", "{j2}", "--aux-channel", "{ch}", "--eps", "0.1",
      "--delta", "0.05", "--eta", "0.3", "--eta1", "0.05", "--eta2", "0.05"],
     1, "error: alphabet symbols must be unique"),
    (["protocol", "eval", "--dist", "{j2e}", "--protocol", "{eve_twice}"],
     1, "error: malformed protocol JSON: eavesdropper variables must be unique"),
]


@pytest.mark.parametrize("argv, code, err", INPUT_CHECKS, ids=[e for _, _, e in INPUT_CHECKS])
def test_input_checks(argv, code, err, tmp_path, capsys):
    rng = np.random.default_rng(0)
    ch = tmp_path / "ch.json"  # an output alphabet with a repeated symbol
    ch.write_text(json.dumps({"inputs": [{"name": "X1", "symbols": ["0", "1"]}],
                              "outputs": [{"name": "U", "symbols": ["0", "0"]}],
                              "rows": {"0": [1.0, 0.0], "1": [0.0, 1.0]}}))
    eve_twice = tmp_path / "eve_twice.json"  # a protocol naming its eavesdropper twice
    keys = {f"obs={x}|rand=|tr=": "0" for x in "01"}
    eve_twice.write_text(json.dumps({"parties": 2, "obs_vars": [["X1"], ["X2"]],
                                     "eve_vars": ["X3", "X3"], "rounds": 0, "key_symbols": ["0"],
                                     "messages": {}, "keys": [keys, keys]}))
    files = {
        "p": write_dist(tmp_path, ber(0.3), "p.json"),
        "j2": write_dist(tmp_path, dsbs(0.1), "j2.json"),
        "j2e": write_dist(tmp_path, random_dist(rng, [2, 2, 2], eve="X3"), "j2e.json"),
        "j3": write_dist(tmp_path, random_dist(rng, [2, 2, 2]), "j3.json"),
        "ch": str(ch),
        "eve_twice": str(eve_twice),
    }
    assert run(capsys, [a.format(**files) for a in argv]) == (code, "", err + "\n")


def test_internal_assertion_exits_two(monkeypatch, capsys):
    def fault(**kwargs):
        raise AssertionError("distance 1.5 exceeds the mean of its masses")

    monkeypatch.setattr(protosim, "fuzz_converse", fault)  # the handler imports it per run
    assert run(capsys, ["protocol", "fuzz", "--count", "1"]) == (
        2, "", "internal assertion failed: distance 1.5 exceeds the mean of its masses\n"
    )


# ---------------------------------------------------------------------------
# the parser: a call builds only the parsers along its argv, with the whole
# tree's texts


def _paths(parser, path=()):
    """The argv path of ``parser`` and of every group and leaf below it."""
    yield list(path)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _paths(child, (*path, name))


_PATHS = list(_paths(cli.build_parser()))
_LEAVES = [p for p in _PATHS if not any(q[:-1] == p for q in _PATHS)]

PARSER_TEXTS = [path + ["-h"] for path in _PATHS] + [
    ["--version"],
    [],
    ["xx"],
    ["bound"],
    ["bound", "xx"],
    ["smooth", "beta"],
    ["--out", "x", "beta"],
    ["bound", "--out", "x", "sk"],
    ["beta", "--p", "p.json"],
    ["beta", "--bogus"],
    ["beta", "--version"],
    ["bound", "sk", "--dist", "d.json", "--capacity", "--all-partitions"],
    ["protocol", "reduce", "--kind", "ot3"],
]


@pytest.mark.parametrize("argv", PARSER_TEXTS, ids=lambda a: " ".join(a) or "(no verb)")
def test_parser_texts_are_the_whole_trees(argv, capsys, monkeypatch):
    path_build = run(capsys, argv)
    whole = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: whole())
    assert path_build == run(capsys, argv)
    assert path_build[1] or path_build[2]


def test_parsers_built_along_the_path(monkeypatch):
    made = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser()
    assert len(made) == len(_PATHS) == 22
    assert len(_LEAVES) == 16
    for leaf in _LEAVES:
        made.clear()
        cli.build_parser(leaf + ["--out", "x"])
        assert len(made) == 1 + len(leaf) <= 3, leaf


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    # the console script calls main() with no argument
    p = write_dist(tmp_path, ber(0.3), "p.json")
    q = write_dist(tmp_path, ber(0.5), "q.json")
    argv = ["beta", "--p", p, "--q", q, "--eps", "0.1"]
    given = run(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["skconverse", *argv])
    assert run(capsys, None) == given
    assert given[0] == 0 and json.loads(given[1])["command"] == "beta"


def test_bound_compute_row_cap_exits_one(tmp_path, capsys):
    # 12 parties: a report of 4,213,596 partition rows is refused
    d = tmp_path / "d.json"
    d.write_text(json.dumps({"variables": [{"name": f"X{i}", "symbols": ["0", "1"]}
                                           for i in range(1, 13)],
                             "pmf": [2.0 ** -12] * 4096}))
    g = tmp_path / "g.json"
    g.write_text(json.dumps([0] * 4096))
    argv = ["bound", "compute", "--dist", str(d), "--g", str(g), "--eps", ".02", "--delta", ".02"]
    assert run(capsys, argv) == (
        1, "", "error: 4213596 partition rows exceed the cap 1000000\n")
