"""Rewrite bench/golden.json: exit code and stdout digest of each call in
the fixed CLI corpus, as the checked-out code produces them.

    python3 bench/record_golden.py

Run it only when a change to the CLI output is intended; the benchmark
fails any cli_reduce run whose corpus output differs from this file.
"""

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    ppsn = run.import_ppsn()
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    try:
        golden = {}
        for name, argv in workloads.golden_corpus(run.WORKDIR):
            code, out, _ = workloads.run_cli(ppsn, argv)
            golden[name] = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
