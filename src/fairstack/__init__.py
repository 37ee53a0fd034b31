"""Fair representation learning with adversarial stacked auto-encoders.

Import names from their modules, e.g. ``from fairstack.training import
train_stack``. The package root binds nothing else, so ``import fairstack``
loads no numpy: :mod:`fairstack.cli` must set the BLAS thread variables
before numpy starts.
"""

__version__ = "0.1.0"
