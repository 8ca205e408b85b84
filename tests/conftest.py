"""Test-wide settings.

Property tests draw their examples deterministically, so a failure replays
when the same selection of tests is rerun (hypothesis also draws on numeric
constants it reads from the local modules loaded, so a different selection
can draw different examples).  No example database is kept, and hypothesis'
cache of those constants goes to the temporary directory, so no .hypothesis/
directory is written into the checkout.  Numerical examples take as long as
their grids need, hence no deadline.
"""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "s2xs2-hypothesis"))
settings.register_profile("s2xs2", derandomize=True, deadline=None, database=None)
settings.load_profile("s2xs2")
