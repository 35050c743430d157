"""Paper Table 4: top-10 feature sets for RCNP (255-combination sweep).

Run: ``python jobs/table4_sweep_rcnp.py`` (or spark-submit). Prints the reproduced
table as markdown and writes it to ``results/table4_sweep_rcnp.md``.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _common import run_job, to_markdown

from repro.eval.tables import table4


def main() -> None:
    run_job("table4_sweep_rcnp", lambda spark: to_markdown(table4(spark)))


if __name__ == "__main__":
    main()
