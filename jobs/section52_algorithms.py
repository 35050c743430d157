"""Paper Figures 5/6 as a table: all 8 pruning algorithms, [21] features, 500 labels.

Run: ``python jobs/section52_algorithms.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/section52_algorithms.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import section52


def main() -> None:
    run_job("section52_algorithms", lambda spark: to_markdown(section52(spark)))


if __name__ == "__main__":
    main()
