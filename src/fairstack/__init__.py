"""Fair representation learning with adversarial stacked auto-encoders.

The names below resolve on first access (PEP 562), so ``import fairstack``
loads no submodule and no numpy: :mod:`fairstack.cli` must set the BLAS
thread variables before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("ConfigError", "ExperimentConfig", "config_hash", "load_config"),
    "data": ("Dataset", "DatasetError", "batches", "load_adult", "load_german",
             "make_folds", "make_synthetic", "standardize", "train_val_test_split"),
    "downstream": ("CVResult", "ForestSpec", "MLPPredictor", "ProbeSpec",
                   "cross_validate", "train_logreg", "train_probe"),
    "forest": ("DecisionTree", "RandomForest", "train_forest"),
    "metrics": ("FairnessReport", "PredictionBatch", "UndefinedMetricError", "accuracy",
                "delta_dp", "delta_eo", "delta_eopp", "evaluate", "threshold_predictions"),
    "model": ("CRITERIA", "Level", "LevelSpec", "ModelFormatError", "SpecError",
              "StackSpec", "TrainedStack", "build", "encode", "spec_hash",
              "stacked_spec", "vanilla_spec"),
    "nn": ("BCE_EPS", "MLP", "Adam", "DenseLayer", "DimensionError"),
    "training": ("DivergenceError", "EpochRecord", "TrainConfig", "TrainLog", "train_stack"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:   # a submodule the eager imports used to bind
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
