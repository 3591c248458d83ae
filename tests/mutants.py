"""Mutation check: every mutant below must make the tier-1 suite fail.

Run it on demand from the repository root (pytest does not collect it):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant replaces one or more texts in one source file, every occurrence
of each.  It is applied to a fresh copy of the repository in a temporary
directory, and the tier-1 suite runs there, stopping at its first failure.
The script prints one line per mutant and exits 1 if any mutant survives or
no longer applies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: name -> (file, [(text, replacement), ...]); each text must occur
MUTANTS = {
    "cit-slack-sign": ("src/skconverse/bounds.py", [(
        "return (neg_log2_beta + num_blocks * math.log2(1.0 / eta))",
        "return (neg_log2_beta - num_blocks * math.log2(1.0 / eta))",
    )]),
    "no-tie-tolerance": ("src/skconverse/bounds.py", [(
        "if val < best_val - _TOL:",
        "if val < best_val:",
    )]),
    "no-distance-clip": ("src/skconverse/probcore.py", [(
        "    return min(dist, 1.0)\n",
        "    return dist\n",
    )]),
    "skipped-partition": ("src/skconverse/structure.py", [(
        "[s == 0:]  # no one-block partition",
        "[2 * (s == 0):]  # no one-block partition",
    )]),
    "binding-max-includes-committed-key": ("src/skconverse/protosim.py", [(
        "        scores[k[j]] = 0.0",
        "        pass",
    )]),
    "column-cached-without-transcript": ("src/skconverse/protosim.py", [(
        "_first_seen(x2 * n_nodes + runs.node, ",
        "_first_seen(x2 * n_nodes, ",
    )]),
    "no-pre-walk-bound": ("src/skconverse/protosim.py", [(
        "    if least > DEFAULT_CELL_CAP:\n",
        "    if False:\n",
    )]),
    "no-run-cap": ("src/skconverse/protosim.py", [(
        "    if support * n_pts > STATE_CAP:\n",
        "    if False:\n",
    )]),
    "region-q-law-is-p-law": ("src/skconverse/protosim.py", [(
        "_region_test(p, l, eta, p_law, q_law, rep)",
        "_region_test(p, l, eta, p_law, p_law, rep)",
    )]),
    "party-left-out-of-table": ("src/skconverse/protosim.py", [
        ("    table = [0]\n", "    table = [0, 0]\n"),
        ("    for b in blocks:  # the sets", "    for b in blocks[1:]:  # the sets"),
    ]),
    "converse-rows-misaligned": ("src/skconverse/protosim.py", [(
        "rep.eps, eta, scan)",
        "rep.eps, eta, ((k, lambda *a, q=q: q(*a)[::-1]) for k, q in scan))",
    )]),
    "zero-mass-row-takes-runs": ("src/skconverse/protosim.py", [(
        "    taken = weights > 0\n",
        "    taken = weights >= 0\n",
    )]),
    "no-key-check-on-plain-symbol": ("src/skconverse/protosim.py", [(
        "if sym not in key_index:",
        "if sym not in key_index and len(branches) > 1:",
    )]),
    "message-branches-first-symbol-first": ("src/skconverse/protosim.py", [(
        "for sym, pw in reversed(branches)])",
        "for sym, pw in branches])",
    )]),
    "one-branch-probability-left-out": ("src/skconverse/protosim.py", [(
        "np.array([pw for _, pw in flat])",
        "np.array([1.0] + [pw for _, pw in flat][1:])",
    )]),
    "no-pmf-sum-test": ("src/skconverse/protosim.py", [(
        " or abs(sum(probs) - 1.0) > SUM_TOL:",
        ":",
    )]),
    "cit-value-minus-3": ("src/skconverse/bounds.py", [(
        " / (num_blocks - 1)\n",
        " / (num_blocks - 1) - 3\n",
    )]),
    "capacity-screen-no-margin": ("src/skconverse/bounds.py", [(
        "found = _least_kl(J, h, 1e-9 * max(1.0, h[1 << np.arange(m)].sum()))",
        "found = _least_kl(J, h, 0.0)",
    )]),
    "screen-skips-a-winner": ("src/skconverse/bounds.py", [(
        "<= best + 1e-6 * max(1.0, abs(best))",
        "<= best - 1e-6 * max(1.0, abs(best))",
    )]),
    "no-xi-check": ("src/skconverse/bounds.py", [(
        "    if xi <= 0:\n",
        "    if False:\n",
    )]),
    "iid-beta-one-class-short": ("src/skconverse/hyptest.py", [(
        "np.logaddexp2.accumulate(logq_sorted[:b])",
        "np.logaddexp2.accumulate(logq_sorted[:b - 1])",
    )]),
    "no-tie-repair": ("src/skconverse/probcore.py", [(
        "    if changed.all():\n",
        "    if True:\n",
    )]),
    "nested-pmf-read": ("src/skconverse/probcore.py", [(
        "    if not ours or _count_strings(doc, _PMF_MARKER) != 1:\n",
        "    if not isinstance(doc, dict):\n",
    )]),
    "no-2^63-guard": ("src/skconverse/probcore.py", [(
        "    if max(-out.min(), out.max()) >= 2.0 ** 63:\n",
        "    if False:\n",
    )]),
    "reader-no-end-check": ("src/skconverse/probcore.py", [(
        "    if start != end + 1:\n",
        "    if not chunks:\n",
    )]),
    "marginals-in-j-order": ("src/skconverse/probcore.py", [(
        "cond.sum(axis=other, keepdims=True)",
        "np.ascontiguousarray(cond).sum(axis=other, keepdims=True)",
    )]),
    "masses-on-contiguous-copy": ("src/skconverse/probcore.py", [(
        "np.array([arr[zi].sum() for zi in np.ndindex(*arr.shape[: len(z_names)])])",
        "np.ascontiguousarray(arr).reshape(math.prod(arr.shape[: len(z_names)]), -1).sum(axis=1)",
    )]),
    "cells-mass-ungathered": ("src/skconverse/probcore.py", [(
        "out *= scale if cells is None else scale[cells]",
        "out *= scale if cells is None else scale[:out.shape[1]]",
    )]),
    "store-slots-kept-when-emptied": ("src/skconverse/probcore.py", [(
        "slot[:], filled, new = -1, 0, keys",
        "filled, new = 0, keys",
    )]),
    "path-parser-no-whole-tree": ("src/skconverse/cli.py", [(
        "        return build_parser()\n",
        "        return top\n",
    )]),
    "true-pmf-entry-read": ("src/skconverse/probcore.py", [(
        "not all(type(v) in (int, float) for v in values)",
        "not all(isinstance(v, (int, float)) for v in values)",
    )]),
    "log2-zero-is-minus-inf": ("src/skconverse/probcore.py", [(
        "where=pmf > 0",
        "where=pmf >= 0",
    )]),
    "waterfill-empty-support": ("src/skconverse/smoothinfo.py", [(
        "    if not ps.size:\n"
        "        raise PreconditionError(\"min-entropy of an identically zero function\")\n",
        "",
    )]),
    "params-bool-read-as-number": ("src/skconverse/cli.py", [(
        "    if isinstance(val, bool):",
        "    if False:",
    )]),
    "ratio-mask-after-subtract": ("src/skconverse/hyptest.py", [(
        "    zero = logp <= LOG2_ZERO\n"
        "    ratio = np.subtract(logp, logq, out=logp if logq.ndim == 1 else logq)\n",
        "    ratio = np.subtract(logp, logq, out=logp if logq.ndim == 1 else logq)\n"
        "    zero = logp <= LOG2_ZERO\n",
    )]),
    "beta-sums-grouped-by-wrong-length": ("src/skconverse/hyptest.py", [(
        "rows = (b == n).nonzero()[0]",
        "rows = (b <= n).nonzero()[0]",
    )]),
    "beta-block-drops-its-last-row": ("src/skconverse/hyptest.py", [(
        "q = q_rows[lo:lo + step]",
        "q = q_rows[lo:lo + step - 1]",
    )]),
    "channel-inputs-einsummed-reversed": ("src/skconverse/probcore.py", [(
        "W, in_axes + outs",
        "W, in_axes[::-1] + outs",
    )]),
    "channel-row-of-negative-key-kept": ("src/skconverse/probcore.py", [(
        "all(0 <= k < n for",
        "all(k < n for",
    )]),
    "channel-missing-row-named-last": ("src/skconverse/probcore.py", [(
        "tuple(missing[0].tolist())",
        "tuple(missing[-1].tolist())",
    )]),
    "conditional-rows-over-wrong-masses": ("src/skconverse/probcore.py", [(
        "flat[pos] / masses[pos, None]",
        "flat[pos] / masses[pos][::-1, None]",
    )]),
    "pushforward-counts-cells": ("src/skconverse/probcore.py", [(
        "np.bincount([idx[lab] for lab in labels], weights=J.pmf)",
        "np.bincount([idx[lab] for lab in labels])",
    )]),
    "duplicated-diagonal-reversed": ("src/skconverse/bounds.py", [(
        "p_dup[np.arange(k), np.arange(k)] = arr",
        "p_dup[np.arange(k), np.arange(k)[::-1]] = arr",
    )]),
    "sc-check-reports-last-tie": ("src/skconverse/bounds.py", [(
        "worst = int(np.argmin(slack))",
        "worst = len(slack) - 1 - int(np.argmin(slack[::-1]))",
    )]),
    "statistic-name-not-primed": ("src/skconverse/structure.py", [(
        "    while name in J.var_names:\n",
        "    if False:\n",
    )]),
    "leftover-length-uncapped": ("src/skconverse/protosim.py", [(
        "out_len = min(nbits, max(0, ",
        "out_len = (max(0, ",
    )]),
    "fuzz-converse-violation-uncounted": ("src/skconverse/protosim.py", [(
        "conv_bad += 1",
        "conv_bad += 0",
    )]),
    "fuzz-region-violations-counted-once": ("src/skconverse/protosim.py", [(
        "region_bad += sum(not t.ok for t in region_tests)",
        "region_bad += any(not t.ok for t in region_tests)",
    )]),
    "fuzz-relation-violation-uncounted": ("src/skconverse/protosim.py", [(
        "relation_bad += 1",
        "relation_bad += 0",
    )]),
    "fuzz-delta-sec-relation-dropped": ("src/skconverse/protosim.py", [(
        " or rep.delta_sec > rep.eps + _TOL:",
        ":",
    )]),
}

_SKIP = shutil.ignore_patterns(
    ".git", ".bench_work", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info"
)


def run_mutant(name: str) -> str:
    """'killed', 'survived' or 'does not apply'."""
    rel, edits = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="skconverse-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        path = copy / rel
        source = path.read_text()
        for text, replacement in edits:
            if text not in source:
                return "does not apply"
            source = source.replace(text, replacement)
        path.write_text(source)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return "survived" if proc.returncode == 0 else "killed"


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for name in names or MUTANTS:
        verdict = run_mutant(name)
        print(f"{name}: {verdict}", flush=True)
        bad += verdict != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
