import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchenv  # noqa: E402

benchenv.use_checkout_sources()
