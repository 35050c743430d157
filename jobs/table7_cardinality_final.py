"""Paper Table 7: RCNP vs CNP1 vs CNP2 per dataset.

Run: ``python jobs/table7_cardinality_final.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/table7_cardinality_final.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import table7


def main() -> None:
    run_job("table7_cardinality_final", lambda spark: to_markdown(table7(spark)))


if __name__ == "__main__":
    main()
