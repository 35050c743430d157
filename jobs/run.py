"""Regenerate the paper's results tables: ``python jobs/run.py [NAME ...]``.

Each NAME is a key of ``repro.eval.tables.RESULTS`` (``table1``…``table7``,
``section52``, ``section54``, ``section55``); with none, every entry runs in
registry order. All names run in one process, so they share the per-dataset
blocking + feature artifacts. Each table is printed as markdown and written
to ``results/<NAME>.md``.
"""
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from jobs._common import get_session  # noqa: E402
from repro.eval.harness import to_markdown  # noqa: E402
from repro.eval.tables import RESULTS  # noqa: E402

RESULTS_DIR = ROOT / "results"


def main(names: list[str]) -> None:
    """Run each named registry entry (all of them when ``names`` is empty)."""
    names = names or list(RESULTS)
    if unknown := [n for n in names if n not in RESULTS]:
        sys.exit(f"unknown result(s): {' '.join(unknown)}; choose from {' '.join(RESULTS)}")
    spark = get_session("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    for name in names:
        md = "\n\n".join(to_markdown(df) for df in RESULTS[name](spark))
        print(md)
        out = RESULTS_DIR / f"{name}.md"
        out.write_text(md + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
