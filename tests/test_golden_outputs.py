"""Byte-identity of the user-visible outputs.

Each case runs one CLI invocation in-process from the repository root and
hashes what it writes (stdout plus every output file, in a fixed order).
The digests in ``golden_digests.json`` pin the outputs: a refactor must
leave them unchanged, and a change that alters digits has to regenerate the
file and say which digits changed and why.

The twelve acceptance tables that the ``conftest.py`` session cache
computes, nine under ``one-step`` and three under ``recursive``, are pinned
too, by a digest of their exact ``FreqRow`` values.  A table only counts
rejections, so a draw that moves a score difference in the last bit can
leave it unchanged; the raw differences of ``_experiment_diffs`` are pinned
by the digest of their bytes at a few shapes (``DIFF_CASES``).

Regenerate the digests with

    PYTHONPATH=src python tests/test_golden_outputs.py

which also prints the cases whose digest changed.  The byte-identity check
of the full acceptance study runs

    PYTHONPATH=src python tests/test_golden_outputs.py --tables DIR

on two commits and compares the directories with ``diff -r``: it writes the
``simulate`` stdout, CSV and JSON of all 18 acceptance-seed tables (settings
i-v at n = 150, 300 and 600, and the ``recursive`` tables of settings i, ii
and iv at n = 300) to DIR and leaves the digests alone.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from conftest import ALPHA, MASTER_SEED, REPS, _get

from copulascore.cli import main
from copulascore.sim_harness import SETTINGS, VARIANCE_MODES, DgpSpec, _experiment_diffs

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
        ["compare", "--scores", "fixtures/synthetic_densities.csv", "--hypothesis", _h,
         "--cumdiff", "{out}/cum.csv"],
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

# name -> (DgpSpec arguments, setting, reps, seed, variance mode) of the
# _experiment_diffs digests: both modes, windows of one and of two or three
# superblocks, dimensions 2, 5 and 9, burn-ins 0, 1 and the default
DIFF_CASES = {
    "diffs-ii-300": (dict(n=300), "ii", 20, 1, "one-step"),
    "diffs-iii-1100-dim2-burn0": (dict(n=1100, dim=2, burn_in=0), "iii", 6, 2, "one-step"),
    "diffs-v-700-dim9-burn1-recursive": (dict(n=700, dim=9, burn_in=1), "v", 5, 3, "recursive"),
    "diffs-iv-1030-dim2-burn1-recursive": (dict(n=1030, dim=2, burn_in=1), "iv", 4, 4, "recursive"),
    "diffs-i-300-dim9-burn0-recursive": (dict(n=300, dim=9, burn_in=0), "i", 7, 5, "recursive"),
}

# the (setting, n, variance mode) keys of the acceptance tables in the session cache
CACHED_TABLES = (
    [("i", 150, "one-step")]
    + [(s, n, "one-step") for s in ("ii", "iii", "iv", "v") for n in (150, 300)]
    + [(s, 300, "recursive") for s in ("i", "ii", "iv")]
)


def table_stem(setting: str, n: int, mode: str) -> str:
    """The --tables file stem and the test id of one table; "table-" + stem
    is its digest key."""
    return f"{setting}-{n}" + ("" if mode == VARIANCE_MODES[0] else f"-{mode}")


def _main_stdout(argv: list[str]) -> str:
    """Run the CLI in-process from the repository root; returns its stdout."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    assert rc == 0
    return stdout.getvalue()


def run_case(name: str, out: Path) -> str:
    argv_tmpl, files = CASES[name]
    argv = [a.replace("{out}", str(out)) for a in argv_tmpl]
    h = hashlib.sha256(_main_stdout(argv).encode("utf-8"))
    for f in files:
        h.update((out / f).read_bytes())
    return h.hexdigest()


def diffs_digest(name: str) -> str:
    """Digest of the bytes of one case's (d_m, d_c) in C order."""
    spec, setting, reps, seed, mode = DIFF_CASES[name]
    h = hashlib.sha256()
    for d in _experiment_diffs(DgpSpec(**spec), SETTINGS[setting], reps, seed, mode):
        h.update(np.ascontiguousarray(d).tobytes())
    return h.hexdigest()


def table_digest(rows) -> str:
    """Digest of one table's ``FreqRow`` values; JSON writes each float
    exactly, so any change in a rejection frequency changes the digest."""
    text = json.dumps([asdict(row) for row in rows])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_acceptance_tables(out: Path) -> None:
    """Write stdout, CSV and JSON of ``simulate`` at the acceptance seed for
    every setting at n = 150, 300 and 600, and of the ``recursive`` tables
    of the session cache, to ``out``."""
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    tables = [(s, n, VARIANCE_MODES[0]) for s in sorted(SETTINGS) for n in (150, 300, 600)]
    for setting, n, mode in tables + [t for t in CACHED_TABLES if t[2] != VARIANCE_MODES[0]]:
        prefix = out / table_stem(setting, n, mode)
        argv = ["simulate", "--setting", setting, "--n", str(n), "--reps", str(REPS),
                "--alpha", str(ALPHA), "--seed", str(MASTER_SEED), "--variance-mode", mode,
                "--out", str(prefix)]
        Path(f"{prefix}.stdout").write_text(_main_stdout(argv), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert run_case(name, tmp_path) == expected[name]


@pytest.mark.parametrize("name", sorted(DIFF_CASES))
def test_diffs_digest(name):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert diffs_digest(name) == expected[name]


@pytest.mark.parametrize(
    "setting,n,mode", CACHED_TABLES,
    ids=[table_stem(*key) for key in CACHED_TABLES],
)
def test_acceptance_table_digest(setting, n, mode, freq):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    key = f"table-{table_stem(setting, n, mode)}"
    assert table_digest(freq(setting, n, mode).values()) == expected[key]


def regenerate_digests() -> None:
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    digests = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            digests[name] = run_case(name, Path(d))
    for name in DIFF_CASES:
        digests[name] = diffs_digest(name)
    for key in CACHED_TABLES:
        digests[f"table-{table_stem(*key)}"] = table_digest(_get(*key).values())
    digests = dict(sorted(digests.items()))
    for name, digest in digests.items():
        if name not in old:
            print(f"added: {name}")
        elif digest != old[name]:
            print(f"changed: {name}")
    for name in sorted(old.keys() - digests.keys()):
        print(f"removed: {name}")
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate the golden digests, or write the acceptance tables."
    )
    parser.add_argument("--tables", type=Path, metavar="DIR",
                        help="write the 18 acceptance-seed simulate tables to DIR instead")
    args = parser.parse_args()
    if args.tables is None:
        regenerate_digests()
    else:
        write_acceptance_tables(args.tables)
        print(f"wrote 18 tables to {args.tables}")
