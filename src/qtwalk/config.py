"""Training settings, apart from ``skipgram`` so they need no numpy."""

import math
from dataclasses import dataclass
from enum import Enum


class Mode(Enum):
    CLASSIC = "classic"
    STRUCTURED = "structured"


class SoftmaxMode(Enum):
    NEGATIVE_SAMPLING = "neg"
    FULL_SOFTMAX = "full"


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 100
    window: int = 5
    epochs: int = 5
    negatives: int = 5
    learning_rate: float = 0.025
    min_count: int = 1
    seed: int = 0
    mode: Mode = Mode.CLASSIC
    softmax_mode: SoftmaxMode = SoftmaxMode.NEGATIVE_SAMPLING

    def __post_init__(self):
        for name, value in (("dim", self.dim), ("window", self.window),
                            ("negatives", self.negatives),
                            ("min_count", self.min_count)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name, value in (("epochs", self.epochs), ("seed", self.seed)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
