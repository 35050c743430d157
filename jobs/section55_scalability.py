"""Paper Figures 17/18 as a table: scalability over the Dirty analogs.

Run: ``python jobs/section55_scalability.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/section55_scalability.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import section55


def main() -> None:
    run_job("section55_scalability", lambda spark: to_markdown(section55(spark)))


if __name__ == "__main__":
    main()
