"""Benchmark harness configuration.

Each ``bench_*.py``/``test_fig*`` wraps one paper experiment: the benchmark
measures the wall-clock of the full sweep, prints the reproduced
table/figure series (run pytest with ``-s`` to see it), and asserts the
qualitative shape the paper reports, so the suite doubles as a regression
gate for the reproduction.  Wall-clock A/B comparisons across commits are
the job of the repo's benchmark, ``perfbench/`` (see its README).
"""

collect_ignore_glob: list = []
