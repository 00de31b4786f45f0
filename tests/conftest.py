"""Test-session settings shared by every test module.

The one ``hypothesis`` profile makes every property deterministic: examples
come from a fixed derivation (``derandomize``), nothing is read from or
written to an example database, and no example fails for its wall time. A
property sets only its example count. Hypothesis also caches the constants
it reads from the source in its home directory, whatever the profile, so
the home is a temporary directory removed when pytest exits, not
``.hypothesis/`` in the checkout.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("hcransim", derandomize=True, database=None, deadline=None)
settings.load_profile("hcransim")

HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    # After the terminal summary, where Hypothesis writes failure patches.
    shutil.rmtree(HYPOTHESIS_HOME, ignore_errors=True)
