"""Paper Table 1: dataset characteristics of the Clean-Clean analogs (plus Table 1b for the Dirty scalability analogs).

Run: ``python jobs/table1_datasets.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/table1_datasets.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import table1, table1b


def main() -> None:
    run_job(
        "table1_datasets",
        lambda spark: to_markdown(table1(spark)) + "\n\n" + to_markdown(table1b(spark)),
    )


if __name__ == "__main__":
    main()
