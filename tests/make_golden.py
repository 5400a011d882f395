"""Rewrite the golden report trees under ``tests/golden``.

Each tree holds the report files that ``run_sweep`` writes for one
config, byte for byte; ``tests/test_cli.py`` compares a fresh sweep with
it. After a change that alters the reports on purpose, run

    PYTHONPATH=src python tests/make_golden.py

and review the diff under ``tests/golden``. pytest does not collect this
file.
"""

import shutil
from pathlib import Path

from gearboxopt.cli import load_config, run_sweep

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# each golden tree's name and the config swept into it
GOLDEN_CONFIGS = {"u12": ROOT / "configs" / "u12.yaml",
                  "scale": ROOT / "bench" / "scale.yaml"}


def main() -> None:
    for name, config in GOLDEN_CONFIGS.items():
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        run_sweep(load_config(config), out_dir=GOLDEN / name)


if __name__ == "__main__":
    main()
