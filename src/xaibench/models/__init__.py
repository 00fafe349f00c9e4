from .training import (  # noqa: F401
    MODEL_KINDS,
    TrainedModel,
    default_grids,
    load_model,
    save_model,
    stratified_kfold,
    train,
)
from .tree import DecisionTreeClassifier, RegressionTree  # noqa: F401
from .gbt import GradientBoostedTrees  # noqa: F401
from .knn import KNearestNeighbors  # noqa: F401
from .mlp import MultilayerPerceptron  # noqa: F401
