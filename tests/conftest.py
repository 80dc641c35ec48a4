import os
import sys

from hypothesis import Phase, settings

sys.path.insert(0, os.path.dirname(__file__))

# `--hypothesis-profile=mutation` (tests/mutation_gate.py): a mutant only has to
# make a test fail, so the failing example is not shrunk
settings.register_profile("mutation", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
