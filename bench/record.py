"""Record reference.json: the default seed's outputs from the current code.

    python3 bench/record.py

Run it only on a commit whose outputs are known good; the gate then holds
every later commit to them (slopes to 3 decimals, spectra to 1e-10 |j|, CLI
artifacts byte for byte on the same platform).
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402


def main():
    ff = run.import_package()
    reference = {}
    for name, wl_class in workloads.WORKLOADS.items():
        workdir = HERE / ".work" / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = wl_class(ff, workloads.DEFAULT_SEED, str(workdir))
            run.set_threads(wl_class.threads)
            outs = [wl.run(i, lambda: None) for i in range(len(wl.items))]
            for i, out in enumerate(outs):
                error = wl.check(i, out, None)
                if error is not None:
                    raise SystemExit(f"{name} item {i} fails the gate: {error}")
            reference[name] = wl.record(outs)
        finally:
            run.set_threads(None)
            shutil.rmtree(workdir, ignore_errors=True)
    reference["cli"]["platform"] = run.platform_fingerprint()
    reference["seed"] = workloads.DEFAULT_SEED
    reference["src_sha256"] = run.source_digest()
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    shutil.rmtree(HERE / ".work", ignore_errors=True)


if __name__ == "__main__":
    main()
