"""Fair representation learning with adversarial stacked auto-encoders."""

from .config import ConfigError, ExperimentConfig, config_hash, load_config
from .data import (Dataset, DatasetError, batches, load_adult, load_german,
                   make_folds, make_synthetic, standardize,
                   train_val_test_split)
from .downstream import (CVResult, ForestSpec, MLPPredictor, ProbeSpec,
                         cross_validate, train_logreg, train_probe)
from .forest import DecisionTree, RandomForest, train_forest
from .metrics import (FairnessReport, PredictionBatch, UndefinedMetricError,
                      accuracy, delta_dp, delta_eo, delta_eopp, evaluate,
                      threshold_predictions)
from .model import (CRITERIA, Level, LevelSpec, ModelFormatError, SpecError,
                    StackSpec, TrainedStack, build, encode, spec_hash,
                    stacked_spec, vanilla_spec)
from .nn import BCE_EPS, MLP, Adam, DenseLayer, DimensionError
from .training import (DivergenceError, EpochRecord, TrainConfig, TrainLog,
                       train_stack)

__version__ = "0.1.0"

__all__ = [
    "Adam", "BCE_EPS", "CRITERIA", "ConfigError", "CVResult", "Dataset",
    "DatasetError", "DecisionTree", "DenseLayer", "DimensionError",
    "DivergenceError", "EpochRecord", "ExperimentConfig", "FairnessReport",
    "ForestSpec", "Level", "LevelSpec", "MLP", "MLPPredictor",
    "ModelFormatError", "PredictionBatch", "ProbeSpec", "RandomForest",
    "SpecError", "StackSpec", "TrainConfig", "TrainLog", "TrainedStack",
    "UndefinedMetricError", "accuracy", "batches", "build", "config_hash",
    "cross_validate", "delta_dp", "delta_eo", "delta_eopp", "encode",
    "evaluate", "load_adult", "load_config", "load_german", "make_folds",
    "make_synthetic", "spec_hash", "stacked_spec", "standardize",
    "threshold_predictions", "train_forest", "train_logreg", "train_probe",
    "train_stack", "train_val_test_split", "vanilla_spec",
]
