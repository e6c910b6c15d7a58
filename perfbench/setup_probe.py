"""One fresh-process set-up of a workload, timed from outside by run.py.

Imports daecont from ``src/`` of the checkout, then for every problem
source given on the command line parses and builds it, reduces it when it
is semi-linear, and runs the fixed-frame transform.

    python3 perfbench/setup_probe.py SRC_DIR SOURCE [SOURCE ...]
"""

import sys
from pathlib import Path


def main(argv):
    src_dir, sources = argv[0], argv[1:]
    sys.path.insert(0, src_dir)
    from daecont import fixtures
    from daecont.probfile import build_problem, parse_problem
    from daecont.semilinear import SemiLinearDae, reduce_semilinear
    from daecont.transform import fixed_frame_first, fixed_frame_second

    for source in sources:
        path = Path(source)
        text = path.read_text() if path.exists() else fixtures.PROBLEMS[source]
        problem = build_problem(parse_problem(text))
        if isinstance(problem, SemiLinearDae):
            problem = reduce_semilinear(problem)
        (fixed_frame_first if problem.order == 1 else fixed_frame_second)(problem)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
