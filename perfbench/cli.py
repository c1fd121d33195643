"""``repro-flow`` with the planted slowdown of ``planted.py`` installed.

Runs ``repro.cli.main`` on the given arguments, exactly as the
``repro-flow`` console script does; with ``PERFBENCH_PLANT`` unset it
wraps nothing.  ``service.py`` starts ``serve`` and ``worker`` this way.
"""

import sys

import planted

if __name__ == "__main__":
    planted.install_from_env()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
