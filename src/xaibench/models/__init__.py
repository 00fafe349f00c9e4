from .training import (  # noqa: F401
    MODEL_KINDS,
    TrainedModel,
    default_grids,
    fit_pool,
    stratified_kfold,
    train,
)
from .tree import DecisionTreeClassifier  # noqa: F401
from .gbt import GradientBoostedTrees  # noqa: F401
from .knn import KNearestNeighbors  # noqa: F401
from .mlp import MultilayerPerceptron  # noqa: F401
