"""Set-up probe: import mcctensor and build the fixed objects, then exit.

Run as a fresh process with the sources on PYTHONPATH; the caller times it
from spawn to exit.
"""

import workloads

workloads.Fixed()
