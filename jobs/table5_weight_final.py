"""Paper Table 5: BLAST vs BCl1 vs BCl2 per dataset.

Run: ``python jobs/table5_weight_final.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/table5_weight_final.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import table5


def main() -> None:
    run_job("table5_weight_final", lambda spark: to_markdown(table5(spark)))


if __name__ == "__main__":
    main()
