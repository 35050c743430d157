"""Paper Table 3: top-10 feature sets for BLAST (255-combination sweep).

Run: ``python jobs/table3_sweep_blast.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/table3_sweep_blast.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import table3


def main() -> None:
    run_job("table3_sweep_blast", lambda spark: to_markdown(table3(spark)))


if __name__ == "__main__":
    main()
