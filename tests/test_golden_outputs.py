"""Byte-identity of the user-visible outputs.

Each case runs one CLI invocation in-process from the repository root and
hashes what it writes (stdout plus every output file, in a fixed order).
The digests in ``golden_digests.json`` pin the outputs: a refactor must
leave them unchanged, and a change that alters digits has to regenerate the
file and say which digits changed and why.

Regenerate the digests with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from copulascore.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")

# name -> (argv with {out} placeholders, output files under {out})
CASES = {}
for _h in ("equal", "lex"):
    CASES[f"compare-{_h}"] = (
        ["compare", "--scores", "fixtures/synthetic_scores.csv", "--hypothesis", _h,
         "--cumdiff", "{out}/cum.csv"],
        ["cum.csv"],
    )
    CASES[f"compare-{_h}-bartlett"] = (
        ["compare", "--scores", "fixtures/synthetic_scores.csv", "--hypothesis", _h,
         "--hac-lags", "4", "--hac-weights", "bartlett"],
        [],
    )
    CASES[f"compare-densities-{_h}"] = (
        ["compare", "--scores", "fixtures/synthetic_densities.csv", "--format", "densities",
         "--hypothesis", _h, "--cumdiff", "{out}/cum.csv"],
        ["cum.csv"],
    )
    CASES[f"matrix-{_h}"] = (
        ["compare", "--matrix", "fixtures/synthetic_model_scores", "--hypothesis", _h,
         "--out", "{out}/matrix.csv"],
        ["matrix.csv"],
    )
CASES["simulate-ii-300"] = (
    ["simulate", "--setting", "ii", "--n", "300", "--reps", "200", "--seed", "1",
     "--out", "{out}/results"],
    ["results.csv", "results.json"],
)
CASES["simulate-i-400-recursive"] = (
    ["simulate", "--setting", "i", "--n", "400", "--reps", "60", "--seed", "5",
     "--hac-lags", "8", "--hac-weights", "bartlett", "--variance-mode", "recursive",
     "--out", "{out}/results"],
    ["results.csv", "results.json"],
)
for _base in ("independence", "comonotone", "countermonotone", "gaussian:0.5"):
    for _d in ("ur", "lr"):
        CASES[f"cxls-{_base}-{_d}"] = (
            ["cxls-demo", "--base", _base, "--direction", _d, "--samples", "2000",
             "--seed", "7", "--out", "{out}/mixture.csv"],
            ["mixture.csv"],
        )


def run_case(name: str, out: Path) -> str:
    argv_tmpl, files = CASES[name]
    argv = [a.replace("{out}", str(out)) for a in argv_tmpl]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    assert rc == 0
    h = hashlib.sha256(stdout.getvalue().encode("utf-8"))
    for f in files:
        h.update((out / f).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert run_case(name, tmp_path) == expected[name]


if __name__ == "__main__":
    import tempfile

    digests = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            digests[name] = run_case(name, Path(d))
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
