"""Self-check of the pipeline benchmark at tiny sizes (a few seconds).

Run from the repository root:

    python3 perfbench/selfcheck.py

It builds a tiny wide-vocab fixture (V=42, d=8) and runs that workload
through the same code as ``run.py``, untraced and traced, then confirms that

* every metric printed is declared in ``BENCHMARK.json`` with the same unit,
  and every declared metric is printed;
* a clean run has no failed operation;
* a corrupted output is reported as a failed operation: one token of a
  decoded line changed, or one lexicon probability changed.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

TINY_WIDE = {"types": 40, "vocab": 42, "d": 8,
             "fixture_corpus": 80, "corpus": 40, "min_len": 4, "max_len": 7,
             "merges": 10, "align_iterations": 2,
             "train_lengths": (4, 5, 6, 7), "dev_lengths": (5,),
             "mrt_lengths": (5,),
             "mrt_dev_lengths": (5,), "max_sample_len": 4,
             "decode_lengths": (4, 6), "ml_epochs": 1, "model_seeds": (11, 12),
             "reps": {"preprocess": 1, "align": 1, "train": 1, "mrt": 1,
                      "decode": 1, "ensemble": 1, "checkpoint": 1}}


def change_decoded_token(stage, outputs):
    """Replace the first word of the first decoded line with another word
    (``<unk>`` if the output has only one), keeping the line length."""
    if stage != "decode":
        return False
    path = outputs[0]
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    words = lines[0].split()
    others = sorted({w for line in lines for w in line.split()} - {words[0]})
    words[0] = others[0] if others else "<unk>"
    lines[0] = " ".join(words)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return True


def change_lexicon_probability(stage, outputs):
    """Halve the probability on the first line of the lexicon table."""
    if stage != "align":
        return False
    path = outputs[0]
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    f_tok, e_tok, p = lines[0].split("\t")
    lines[0] = f"{f_tok}\t{e_tok}\t{float(p) / 2!r}"
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return True


def once(corrupt):
    """``corrupt`` applied to the first operation it changes, and no other:
    a run repeats every stage (warm-up round included), and exactly that one
    operation must fail."""
    done = []

    def hook(stage, outputs):
        if not done and corrupt(stage, outputs):
            done.append(stage)
    return hook


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {key: {m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    fx_root = os.path.join(run.WORK, "selfcheck", "fixtures")
    shutil.rmtree(fx_root, ignore_errors=True)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    problems = []

    def expect(condition, message):
        print(("ok    " if condition else "FAIL  ") + message, flush=True)
        if not condition:
            problems.append(message)

    try:
        run.build_fixtures(["wide-vocab"], fx_root, {"wide-vocab": TINY_WIDE})

        def tiny(trace, corrupt=None):
            result, _ = run.run_workload("wide-vocab", 1, 0.1, trace, fx_root,
                                         sizes=TINY_WIDE, corrupt=corrupt)
            return result

        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny(trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == declared[key],
                   f"--trace {trace} prints exactly the {key} metrics of "
                   f"BENCHMARK.json with their units")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"--trace {trace}: clean run has no failed operation")

        for corrupt, what in ((change_decoded_token, "a decoded token"),
                              (change_lexicon_probability, "a lexicon probability")):
            result = tiny(0, once(corrupt))
            expect(result["failed"] == 1,
                   f"changing {what} fails exactly one operation "
                   f"(failed={result['failed']})")
    finally:
        shutil.rmtree(os.path.join(run.WORK, "selfcheck"), ignore_errors=True)
    print("self-check " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
