"""Paper Figures 11/13/14 as a table: effect of training-set size.

Run: ``python jobs/section54_training_size.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/section54_training_size.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import section54


def main() -> None:
    run_job("section54_training_size", lambda spark: to_markdown(section54(spark)))


if __name__ == "__main__":
    main()
