"""Paper Table 6: BLAST's logistic-regression models over the D100K analog.

Run: ``python jobs/table6_models.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/table6_models.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import table6


def main() -> None:
    run_job("table6_models", lambda spark: to_markdown(table6(spark)))


if __name__ == "__main__":
    main()
