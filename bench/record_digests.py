"""Regenerate scan_digests.json: class-code digests of scan-regions.

    python3 bench/record_digests.py

Records the first GROUPS scans of every seed in SEEDS.  Run it only when a
change is meant to alter region-scan class codes: a scan-regions run fails
every scan whose codes differ from the committed digest of its seed and group.
The file is rewritten only once every scan has passed its other checks.
"""
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(21)
#: more than a 20-second run gets through on a 2-vCPU machine
GROUPS = 24


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for seed in SEEDS:
            groups = workloads.scan_regions(seed, workdir, run.nproc(), digests=[])
            digests[str(seed)] = []
            for group in itertools.islice(groups, GROUPS):
                bad, info = group.check(group.run())
                if bad:
                    print(f"seed {seed}: {info['error']}; digests not written",
                          file=sys.stderr)
                    return 1
                digests[str(seed)].append(info["digest"])
    Path(workloads.DIGEST_FILE).write_text(
        json.dumps({"groups": GROUPS, "digests": digests}, indent=1) + "\n")
    print(f"wrote {GROUPS} digests for each of {len(SEEDS)} seeds to "
          f"{workloads.DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
