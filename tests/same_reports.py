"""Report identity check: the CLI at a git revision and in the working tree
give the same bytes.

Run it on demand from the repository root (pytest does not collect it):

    python tests/same_reports.py REF

It unpacks ``src/`` at the revision REF with ``git archive`` into a
temporary directory and writes one set of inputs there: small hand-made
files, plus the inputs of every benchmark workload at seed 11 in full and
small form (``bench/workloads.py``).  Each call of a fixed corpus, which
covers every leaf command and its error exits and the parser's help, usage
and error texts, then runs once on REF's ``src`` and once on the working
tree's, in a fresh interpreter with ``PYTHONHASHSEED=0``, on the same input
paths, because reports embed the file names.  Their stdout, stderr and exit status are compared.  A
benchmark call's ``--out`` is dropped, so its report goes to stdout.

The script prints one line per call and a count of the calls that differ,
and exits 1 if any does.  It is not a gate: a correctness fix may change
bytes on purpose, and then the differing calls are the ones to explain.
The corpus takes a few minutes and about 0.5 GB (``protocol reduce
--kind ot2 --length 4``).
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH_SEED = 11

_RUN = "import sys; from skconverse.cli import main; sys.exit(main(sys.argv[1:]))"


def _bits(*names):
    return [{"name": n, "symbols": ["0", "1"]} for n in names]


def _lattice_style_pmf() -> list:
    """Eight parties, then Z: noisy copies of three correlated latent bits
    (party i of bit i mod 3, Z of bit 0), mixed with 3% uniform noise."""
    latent = [(u % 5 + 1) / 21 for u in range(8)]
    flip = [0.05 + 0.03 * i for i in range(9)]
    pmf = []
    for x in range(512):
        like = 0.0
        for u, w in enumerate(latent):
            for i in range(9):
                same = (x >> (8 - i) & 1) == (u >> (2 - i % 3 if i < 8 else 2) & 1)
                w *= 1 - flip[i] if same else flip[i]
            like += w
        pmf.append(0.97 * like + 0.03 / 512)
    return pmf


def _z_moved(pmf: list, to: int) -> list:
    """``_lattice_style_pmf`` with Z, its last of nine bits, moved to position ``to``."""
    return np.moveaxis(np.reshape(pmf, [2] * 9), 8, to).reshape(-1).tolist()


def _ternary_binary_pmf() -> list:
    """Two ternary parties, then six binary ones: the second party and the
    fourth copy the first and the third more often than not, over weights
    that vary from cell to cell."""
    x = np.indices([3, 3, 2, 2, 2, 2, 2, 2]).reshape(8, -1)
    w = (1 + 2 * (x[0] == x[1])) * (1 + (x[2] == x[3])) * (np.arange(576) % 5 + 1)
    return (w / w.sum()).tolist()


def write_inputs(base: Path) -> dict:
    """The hand-made input files, by short name -> path."""
    files = {
        # doubly symmetric binary source and its product of marginals
        "j2": {"variables": _bits("X1", "X2"), "pmf": [0.4, 0.1, 0.1, 0.4]},
        "j2prod": {"variables": _bits("X1", "X2"), "pmf": [0.25] * 4},
        # three parties, then two parties and an eavesdropper
        "j3": {"variables": _bits("X1", "X2", "X3"),
               "pmf": [0.2, 0.05, 0.05, 0.1, 0.1, 0.05, 0.05, 0.4]},
        "j2e": {"variables": _bits("X1", "X2", "Z"),
                "pmf": [0.3, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.4], "eve": "Z"},
        "p": {"variables": [{"name": "X", "symbols": ["a", "b", "c", "d"]}],
              "pmf": [0.4, 0.3, 0.2, 0.1]},
        "q": {"variables": [{"name": "X", "symbols": ["a", "b", "c", "d"]}],
              "pmf": [0.1, 0.2, 0.3, 0.4]},
        "m": {"variables": [{"name": "M", "symbols": [f"m{i}" for i in range(8)]}],
              "pmf": [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]},
        "g": [0, 1, 1, 0],
        "ch": {"inputs": _bits("X1"), "outputs": _bits("U"),
               "rows": {"0": [0.9, 0.1], "1": [0.2, 0.8]}},
        "proto": {
            "parties": 2, "obs_vars": [["X1"], ["X2"]], "eve_vars": [], "rounds": 1,
            "randomness": [None, {"symbols": ["0", "1"], "probs": [0.5, 0.5]}],
            "key_symbols": ["0", "1"],
            "messages": {"1:1": {"obs=0|rand=|tr=": {"0": 0.9, "1": 0.1},
                                 "obs=1|rand=|tr=": "1"}},
            # party 2 speaks no message: its round-1 symbol is "-"
            "keys": [{f"obs={x}|rand=|tr={t},-": x for x in "01" for t in "01"},
                     {f"obs={x}|rand={r}|tr={t},-": t if r == "0" else x
                      for x in "01" for r in "01" for t in "01"}],
        },
        # three parties, the third observing two variables, and an
        # eavesdropper; party 1 draws a coin of bias 1/3 and party 2 keys on a
        # 0.3/0.7 coin, factors whose products round in the order they are taken
        "j5e": {"variables": _bits("X1", "X2", "X3", "Y3", "Z"),
                "pmf": [(i % 7 + 1) / 122 for i in range(32)], "eve": "Z"},
        "proto3": {
            "parties": 3, "obs_vars": [["X1"], ["X2"], ["X3", "Y3"]], "eve_vars": ["Z"],
            "rounds": 1,
            "randomness": [{"symbols": ["0", "1"], "probs": [1 / 3, 2 / 3]}, None, None],
            "key_symbols": ["0", "1"],
            "messages": {
                "1:1": {f"obs={x}|rand={r}|tr=": str(int(x) ^ int(r))
                        for x in "01" for r in "01"},
                "1:3": {f"obs={x},{y}|rand=|tr={t},-": str(int(x) ^ int(y) ^ int(t))
                        for x in "01" for y in "01" for t in "01"},
            },
            "keys": [
                {f"obs={x}|rand={r}|tr={t},-,{u}": x
                 for x in "01" for r in "01" for t in "01" for u in "01"},
                {f"obs={x}|rand=|tr={t},-,{u}": {"0": 0.3, "1": 0.7} if x == t else x
                 for x in "01" for t in "01" for u in "01"},
                {f"obs={x},{y}|rand=|tr={t},-,{u}": str(int(x) ^ int(u))
                 for x in "01" for y in "01" for t in "01" for u in "01"},
            ],
        },
        # eight symmetric parties, whose Q^pi ratio rows have many exact ties:
        # independent uniform bits, and copies of one uniform bit, each
        # flipped with probability 0.1
        "iu8": {"variables": _bits(*(f"X{i}" for i in range(1, 9))), "pmf": [2.0 ** -8] * 256},
        "nc8": {"variables": _bits(*(f"X{i}" for i in range(1, 9))),
                "pmf": [0.5 * math.prod(0.9 if (x >> 7 - i & 1) == x >> 7 else 0.1
                                        for i in range(1, 8)) for x in range(256)]},
        "g8": [bin(x).count("1") % 2 for x in range(256)],
        # eight parties whose partition scans span many chunks, so that the
        # testing bound screens rows: noisy copies of three latent bits with
        # an eavesdropper, and two independent groups of four parties
        "lat8e": {"variables": _bits(*(f"X{i}" for i in range(1, 9)), "Z"),
                  "pmf": _lattice_style_pmf(), "eve": "Z"},
        # the same source with Z first and in the middle, which Q^pi's
        # z-first layout orders differently from J's
        "lat8e_zfirst": {"variables": _bits("Z", *(f"X{i}" for i in range(1, 9))),
                         "pmf": _z_moved(_lattice_style_pmf(), 0), "eve": "Z"},
        "lat8e_zmid": {"variables": _bits(*(f"X{i}" for i in range(1, 5)), "Z",
                                          *(f"X{i}" for i in range(5, 9))),
                       "pmf": _z_moved(_lattice_style_pmf(), 4), "eve": "Z"},
        # 576 cells: a chunk of 113 partitions has its betas found in
        # blocks of 56, 56 and 1 rows
        "t2b6": {"variables": [{"name": f"X{i}", "symbols": ["0", "1", "2"]} for i in (1, 2)]
                 + _bits(*(f"X{i}" for i in range(3, 9))), "pmf": _ternary_binary_pmf()},
        "g576": [bin(x).count("1") % 2 for x in range(576)],
        "grp8": {"variables": _bits(*(f"X{i}" for i in range(1, 9))),
                 "pmf": [((x >> 4) % 5 + 1) * ((x & 15) % 3 + 1) / 1426 for x in range(256)]},
        # X1 = "c" has no mass, and "b"'s law of X2 is a third of "a"'s, so
        # the minimum sufficient statistic merges them
        "j34": {"variables": [{"name": "X1", "symbols": ["a", "b", "c"]},
                              {"name": "X2", "symbols": ["0", "1", "2", "3"]}],
                "pmf": [0.125, 0.25, 0.0625, 0.3125] + [w / 3 for w in (0.125, 0.25, 0.0625,
                                                                        0.3125)] + [0.0] * 4},
        # inputs in another order than j2e's, and a row keyed outside their range
        "ch2": {"inputs": _bits("Z", "X1"), "outputs": [{"name": "U", "symbols": ["0", "1", "2"]}],
                "rows": {"0,0": [0.7, 0.2, 0.1], "0,1": [0.1, 0.3, 0.6], "1,0": [0.5, 0.5, 0.0],
                         "1,1": [0.2, 0.2, 0.6], "2,0": [1.0, 0.0, 0.0]}},
        "g3": ["b", "a", "10", "b", "a", "10", "a", "b"],
        "params": {"eps": 0.1, "eta": 0.05},
        "params_unread": {"eps": 0.1, "eta": 0.05, "count": 3},
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = str(base / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    paths["nan"] = str(base / "nan.json")
    Path(paths["nan"]).write_text('{"variables": [{"name": "X", "symbols": ["a", "b"]}], '
                                  '"pmf": [NaN, 1.0]}')
    paths["missing"] = str(base / "missing.json")
    for name, raw in EDGE_DISTS.items():
        paths[name] = str(base / f"{name}.json")
        Path(paths[name]).write_bytes(raw)
    return paths


_X = '[{"name": "X", "symbols": ["a", "b"]}]'


def _edge(body: str) -> bytes:
    """A two-symbol distribution file whose pmf array reads ``[body]``."""
    return f'{{"variables": {_X}, "pmf": [{body}]}}'.encode()


#: distribution files with unusual pmf spellings or placement, by name ->
#: bytes: each is read by the fast pmf parse or by json, with one outcome
EDGE_DISTS = {
    "e_long": _edge("0.2500000000000000000000000001, 0.7499999999999999999999999999"),
    "e_halfway": _edge("0.25000000000000002775557561562891351059079170227050781250, 0.75"),
    "e_subnormal": _edge("5e-324, 1.0"),
    "e_ints": _edge("1, 0"),
    "e_minus_zero": _edge("-0, 1.0E0"),
    "e_2p53": _edge("9007199254740993, -9007199254740992"),
    "e_2p63": _edge("9223372036854775808, 0"),
    "e_2p64": _edge("18446744073709551616, 0"),
    "e_infinity": _edge("Infinity, 0"),
    "e_1e400": _edge("1e400, 0"),
    "e_true": _edge("true, 0"),
    "e_null": _edge("null, 1.0"),
    "e_string": _edge('"0.5", 0.5'),
    "e_nested": _edge("[0.5], [0.5]"),
    "e_empty": _edge(""),
    "e_leading_zero": _edge("01, 0"),
    "e_trailing_point": _edge("1., 0"),
    "e_leading_point": _edge(".5, 0.5"),
    "e_plus": _edge("+1, 0"),
    "e_trailing_comma": _edge("0.5, 0.5,"),
    "e_nested_key": ('{"meta": {"pmf": [1.0, 0.0]}, "variables": ' + _X
                     + ', "pmf": [0.25, 0.75]}').encode(),
    "e_quoted_key": ('{"a\\"pmf": [1.0, 0.0], "variables": ' + _X
                     + ', "pmf": [0.25, 0.75]}').encode(),
    "e_escaped_key": ('{"variables": ' + _X + ', "\\u0070mf": [0.25, 0.75]}').encode(),
    "e_escaped_marker": ('{"variables": ' + _X + ', "pmf": "\\u0000skconverse pmf\\u0000", '
                         '"x": {"pmf": [0.25, 0.75]}}').encode(),
    "e_duplicate": ('{"variables": ' + _X + ', "pmf": [1.0, 0.0], "pmf": [0.25, 0.75]}').encode(),
    "e_eve_first": ('{"eve": "X", "pmf": [0.25, 0.75], "variables": ' + _X + "}").encode(),
    "e_whitespace": ('\r\n{\t"variables"\n:' + _X
                     + ' ,\r"pmf"\n\t: \r[\n0.25\r,\t0.75 \n]\r\n}\n').encode(),
    "e_bom": b"\xef\xbb\xbf" + _edge("0.25, 0.75"),
    "e_garbage": _edge("0.25, 0.75") + b" x",
    "e_truncated": _edge("0.25, 0.75")[:-1],
    "e_truncated_array": _edge("0.25, 0.75")[:-8],
    "e_not_utf8": b"\xff" + _edge("0.25, 0.75"),
}


def corpus(f: dict) -> list[list[str]]:
    """The hand-made calls on the input paths ``f``."""
    ok = [
        ["beta", "--p", f["p"], "--q", f["q"], "--eps", "0.1"],
        ["smooth", "hmin", "--dist", f["m"], "--eps", "0.1"],
        ["smooth", "dmax", "--p", f["p"], "--q", f["q"], "--eps", "0.2"],
        ["structure", "mcf", "--dist", f["j2e"], "--v1", "X1", "--v2", "Z"],
        ["structure", "mss", "--dist", f["j3"], "--given", "X1", "--target", "X2",
         "--tol", "0"],
        ["bound", "sk", "--dist", f["j3"], "--eps", "0.1", "--eta", "0.05"],
        ["bound", "sk", "--dist", f["j2e"], "--eps", "0.1", "--eta", "0.05",
         "--all-partitions"],
        ["bound", "sk", "--dist", f["j2"], "--eps", "0.1", "--eta", "0.05",
         "--partition", "1|2", "--q", f["j2prod"]],
        ["bound", "sk", "--dist", f["j3"], "--capacity"],
        ["bound", "sk", "--dist", f["j2"], "--params", f["params"], "--partition", "1|2"],
        ["bound", "sk", "--dist", f["j2"], "--aux-channel", f["ch"], "--eps", "0.1",
         "--delta", "0.05", "--eta", "0.3", "--eta1", "0.05", "--eta2", "0.05"],
        ["bound", "ot", "--dist", f["j2"], "--eps", ".02", "--delta1", ".02",
         "--delta2", ".02", "--xi", ".05"],
        ["bound", "ot", "--dist", f["j2"], "--capacity"],
        ["bound", "bc", "--dist", f["j2"], "--eps", ".02", "--delta1", ".02",
         "--delta2", ".02", "--xi", ".05"],
        ["bound", "bc", "--dist", f["j2"], "--capacity"],
        ["bound", "compute", "--dist", f["j2"], "--g", f["g"], "--eps", ".02",
         "--delta", ".02"],
        ["bound", "compute", "--dist", f["j2"], "--g", f["g"], "--eps", ".02",
         "--delta", ".02", "--xi", ".05", "--zeta", ".1", "--eta", ".1", "--partition", "1|2"],
        ["bound", "transmit", "--dist", f["m"], "--kappa", "1", "--eps", ".02",
         "--delta", ".02"],
        ["scan", "stein", "--p", f["p"], "--q", f["q"], "--eps", "0.1", "--n", "1,10,100"],
        ["scan", "dmax", "--p", f["p"], "--q", f["q"], "--eps", "0.25", "--n", "1,10,200"],
        ["scan", "capacity", "--dist", f["j2"], "--eps", "0.1", "--eta", "0.05",
         "--n", "1,10,50"],
        ["protocol", "eval", "--dist", f["j2"], "--protocol", f["proto"]],
        ["protocol", "eval", "--dist", f["j5e"], "--protocol", f["proto3"]],
        ["protocol", "fuzz", "--count", "300", "--seed", "0"],
        ["protocol", "fuzz", "--count", "300", "--seed", "1", "--eta", "0.1"],
    ]
    rewritten = [["bound", kind, "--dist", f["j34"], *args] for kind in ("ot", "bc") for args in (
        ["--eps", ".02", "--delta1", ".02", "--delta2", ".02", "--xi", ".05"], ["--capacity"])]
    rewritten += [
        ["bound", "sk", "--dist", f["j2e"], "--aux-channel", f["ch2"], "--eps", "0.1",
         "--delta", "0.05", "--eta", "0.3", "--eta1", "0.05", "--eta2", "0.05"],
        ["bound", "compute", "--dist", f["j3"], "--g", f["g3"], "--eps", ".02", "--delta", ".02"],
    ]
    screened = [["bound", "sk", "--dist", f[d], "--eps", "0.1", "--eta", "0.05",
                 "--all-partitions"] for d in ("lat8e", "grp8", "lat8e_zfirst", "lat8e_zmid")]
    screened += [["bound", "sk", "--dist", f[d], "--eps", "0.1", "--eta", "0.05", "--partition",
                  "1,4,7|2,5,8|3,6"] for d in ("lat8e", "lat8e_zfirst", "lat8e_zmid")]
    blocked = [
        ["bound", "sk", "--dist", f["t2b6"], "--eps", "0.1", "--eta", "0.05", "--all-partitions"],
        ["bound", "compute", "--dist", f["t2b6"], "--g", f["g576"], "--eps", ".02",
         "--delta", ".02"],
    ]
    symmetric = [call for d in ("iu8", "nc8") for call in (
        ["bound", "sk", "--dist", f[d], "--eps", "0.1", "--eta", "0.05", "--all-partitions"],
        ["bound", "compute", "--dist", f[d], "--g", f["g8"], "--eps", ".02", "--delta", ".02"],
    )]
    # OT at length 5 is left out: a run cap of 10^7, as in earlier revisions,
    # admits its 4.2·10^6 runs, which then take several GB
    lengths = {"ot1": [-1, 0, 1, 2, 3, 4, 6, 7, 8], "ot2": [-1, 0, 1, 2, 3, 4, 6, 7],
               "bc": list(range(-1, 8))}
    reduce = [["protocol", "reduce", "--kind", kind, "--length", str(length)]
              for kind, ls in lengths.items() for length in ls]
    errors = [
        ["beta", "--p", f["nan"], "--q", f["q"], "--eps", "0.1"],
        ["beta", "--p", f["missing"], "--q", f["q"], "--eps", "0.1"],
        ["beta", "--p", f["p"], "--q", f["q"], "--eps", "nan"],
        ["beta", "--p", f["p"], "--q", f["m"], "--eps", "0.1"],
        ["bound", "sk", "--dist", f["j2"], "--q", f["j2prod"], "--eps", "0.1", "--eta", "0.05"],
        ["bound", "sk", "--dist", f["j2"], "--params", f["params_unread"]],
        ["bound", "ot", "--dist", f["j2"], "--eps", ".02", "--delta1", ".02",
         "--delta2", ".02", "--xi", "0"],
        ["bound", "compute", "--dist", f["j2"], "--g", f["p"], "--eps", ".02", "--delta", ".02"],
        ["scan", "stein", "--p", f["p"], "--q", f["q"], "--eps", "0.1", "--n", "1,x"],
        ["scan", "capacity", "--dist", f["j2e"], "--eps", "0.1", "--eta", "0.05", "--n", "10"],
        ["scan", "capacity", "--dist", f["j3"], "--eps", "0.1", "--eta", "0.05", "--n", "10"],
        ["protocol", "eval", "--dist", f["p"], "--protocol", f["proto"]],
        ["protocol", "fuzz", "--count", "0"],
        ["protocol", "fuzz", "--eta", "1"],
        ["structure", "mss", "--dist", f["j2"], "--given", "X1", "--target", "X1"],
    ]
    edge = [["smooth", "hmin", "--dist", f[name], "--eps", "0.1"] for name in EDGE_DISTS]
    return ok + rewritten + symmetric + screened + blocked + reduce + errors + edge + parser_texts()


#: the leaf commands of each command group
GROUPS = {"smooth": ["hmin", "dmax"], "structure": ["mcf", "mss"],
          "bound": ["sk", "ot", "bc", "compute", "transmit"],
          "scan": ["stein", "dmax", "capacity"], "protocol": ["eval", "reduce", "fuzz"]}


def parser_texts() -> list[list[str]]:
    """Calls that end in argparse's help, version, usage or error text:
    ``-h`` of the top parser, every group and every leaf, and bad verbs."""
    paths = [[], ["beta"]] + [[group, *leaf] for group, leaves in GROUPS.items()
                              for leaf in [[]] + [[name] for name in leaves]]
    return [path + ["-h"] for path in paths] + [
        ["--version"], [], ["bound", "xx"], ["xx"], ["--out", "x", "beta"], ["beta", "--bogus"],
    ]


def bench_corpus(base: Path) -> list[list[str]]:
    """Every benchmark workload's calls at BENCH_SEED, full and small, without ``--out``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    calls = []
    for name in workloads.BUILDERS:
        for small in (False, True):
            where = base / f"{name}-{'small' if small else 'full'}"
            for call in workloads.build(name, BENCH_SEED, str(where), small=small):
                argv = list(call.argv)
                if "--out" in argv:
                    at = argv.index("--out")
                    del argv[at:at + 2]
                calls.append(argv)
    return calls


def unpack_src(ref: str, dest: Path) -> Path:
    """``src/`` at the revision ``ref``, unpacked under ``dest``."""
    tar = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return dest / "src"


def run_call(src: Path, argv: list[str], cwd: Path) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=cwd, env=env,
                          capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/same_reports.py REF", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="skconverse-reports-") as tmp:
        tmp = Path(tmp)
        ref_src = unpack_src(argv[0], tmp / "ref")
        inputs = tmp / "inputs"
        inputs.mkdir()
        calls = corpus(write_inputs(inputs)) + bench_corpus(inputs)
        differ = 0
        for argv_ in calls:
            ref = run_call(ref_src, argv_, inputs)
            new = run_call(ROOT / "src", argv_, inputs)
            parts = [what for what, a, b in zip(("stdout", "stderr", "exit"), ref, new)
                     if a != b]
            label = " ".join(a.replace(str(inputs) + os.sep, "") for a in argv_)
            print(f"{'DIFF ' + ','.join(parts) if parts else 'same'}  [exit {new[2]}]  {label}",
                  flush=True)
            if "stderr" in parts:
                print(f"    ref:  {ref[1].decode(errors='replace').strip()[-300:]}")
                print(f"    tree: {new[1].decode(errors='replace').strip()[-300:]}")
            differ += bool(parts)
        print(f"{len(calls)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
