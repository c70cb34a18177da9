"""Time one fresh process's set-up for a workload and print it in seconds.

Set-up is the import of the package, the workload's config build and its
first calls at the workload's sizes.  ``run.py`` starts this script with
``PYTHONPATH`` pointing at the checkout's ``src/``.
"""

import sys
import time

start = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402  (imports bfamily; part of set-up)

WORKLOADS[sys.argv[1]].warm_up()
print(repr(time.perf_counter() - start))
