"""Paper Table 2: quality of the input block collections.

Run: ``python jobs/table2_blocks.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/table2_blocks.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import table2


def main() -> None:
    run_job("table2_blocks", lambda spark: to_markdown(table2(spark)))


if __name__ == "__main__":
    main()
