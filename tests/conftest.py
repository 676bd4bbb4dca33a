"""Test-session set-up: one BLAS thread.

The oracle tests make many small dense eigh/svd calls.  With a second BLAS
thread on a busy host they run several times slower than on one thread
(a stacked 20-mode SVD in ``test_eta_seminorm_cap``: seconds against about
0.3 s), so the suite pins one thread unless the caller set a count.  This
must run before numpy is imported, which is why it lives here.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
