"""Set-up time of a fresh process: import webfem, load the config, build the case.

Usage: python3 perfbench/setup_probe.py CONFIG.json
Prints {"setup_s": seconds} measured from the first statement of this script.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from webfem import cli

    cfg = cli.load_config(argv[0])
    cli._build_case(cfg)
    cli._study_from_config(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main(sys.argv[1:])
