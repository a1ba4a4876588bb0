"""Classifiers with exact analytic backprop, plus an Adam optimizer.

Two architectures: a linear map and a one-hidden-layer ReLU network with
300 units ("mlp-300"). Three heads describe how logits become per-class
probabilities:

* softmax     -- k logits, stabilized softmax;
* sigmoid     -- one logit f, probabilities (1 - s(f), s(f)); used for the
                 binary bag task, where the logistic loss coincides with
                 2-class cross-entropy over these probabilities;
* cumulative  -- k logits through softmax, consumed downstream as running
                 sums p(y <= j) for the ordinal tasks (monotone by
                 construction).

All arithmetic is float64: the verification suites compare against
enumeration oracles at 1e-9 tolerances.

Checkpoints are a JSON document: schema version, architecture descriptor,
head, dimensions, and the raw parameter arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

ARCHITECTURES = ("linear", "mlp-300")
HEADS = ("softmax", "sigmoid", "cumulative")

HIDDEN_UNITS = 300
CHECKPOINT_SCHEMA = 1

# Optimizer defaults: adaptive moments with zero weight decay; the step
# size depends on the architecture (the linear model trains on a much
# larger rate).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DEFAULT_LR = {"linear": 2e-1, "mlp-300": 1e-3}


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class Classifier:
    """A linear or mlp-300 classifier over float64 parameters.

    Parameters are a list of (weight, bias) layers; forward caches nothing
    by itself, the explicit cache returned by ``forward_cached`` feeds
    ``backward``.
    """

    def __init__(self, arch: str, head: str, d: int, k: int, layers):
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}")
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
        self.arch = arch
        self.head = head
        self.d = int(d)
        self.k = int(k)
        self.layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in layers]

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, arch: str, head: str, d: int, k: int, seed: int = 0) -> "Classifier":
        """Seeded Glorot-uniform initialization (Philox counter-based stream)."""
        if head == "sigmoid" and k != 2:
            raise ValueError("the sigmoid head is binary: k must be 2")
        out_dim = 1 if head == "sigmoid" else k
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        if arch == "linear":
            layers = [(_glorot_uniform(rng, d, out_dim), np.zeros(out_dim))]
        elif arch == "mlp-300":
            layers = [
                (_glorot_uniform(rng, d, HIDDEN_UNITS), np.zeros(HIDDEN_UNITS)),
                (_glorot_uniform(rng, HIDDEN_UNITS, out_dim), np.zeros(out_dim)),
            ]
        else:
            raise ValueError(f"unknown architecture {arch!r}")
        return cls(arch, head, d, k, layers)

    @property
    def out_dim(self) -> int:
        return 1 if self.head == "sigmoid" else self.k

    def parameters(self) -> list[np.ndarray]:
        """Flat list [W1, b1, W2, b2, ...]; arrays are the live buffers."""
        out = []
        for w, b in self.layers:
            out.append(w)
            out.append(b)
        return out

    def copy_parameters(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def load_parameters(self, params: list[np.ndarray]) -> None:
        own = self.parameters()
        if len(own) != len(params):
            raise ValueError("parameter list length mismatch")
        for dst, src in zip(own, params):
            if dst.shape != src.shape:
                raise ValueError(f"parameter shape mismatch {dst.shape} vs {src.shape}")
            dst[...] = src

    # -- forward / heads ---------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.d:
            raise ValueError(f"input dimension {x.shape[1]} != model dimension {self.d}")
        return x

    def forward(self, x) -> np.ndarray:
        """Logits, shape (n, out_dim); a single vector input gives (out_dim,)."""
        single = np.asarray(x).ndim == 1
        logits, _ = self.forward_cached(self._check_input(np.asarray(x)))
        return logits[0] if single else logits

    def forward_cached(self, x: np.ndarray):
        """Logits plus the activation cache consumed by ``backward``."""
        x = self._check_input(x)
        if self.arch == "linear":
            w, b = self.layers[0]
            return x @ w + b, {"x": x}
        w1, b1 = self.layers[0]
        w2, b2 = self.layers[1]
        pre = x @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ w2 + b2
        return logits, {"x": x, "pre": pre, "hidden": hidden}

    def backward(self, dlogits: np.ndarray, cache: dict) -> list[np.ndarray]:
        """Exact parameter gradients from per-logit upstream gradients.

        Returns arrays aligned with ``parameters()``. The cache must come
        from the forward pass on the same batch.
        """
        x = cache["x"]
        dlogits = np.asarray(dlogits, dtype=np.float64)
        if dlogits.shape != (x.shape[0], self.out_dim):
            raise ValueError("upstream gradient shape does not match the cached batch")
        if self.arch == "linear":
            return [x.T @ dlogits, dlogits.sum(axis=0)]
        w2, _ = self.layers[1]
        hidden = cache["hidden"]
        dw2 = hidden.T @ dlogits
        db2 = dlogits.sum(axis=0)
        dhidden = dlogits @ w2.T
        dhidden[cache["pre"] <= 0.0] = 0.0
        return [x.T @ dhidden, dhidden.sum(axis=0), dw2, db2]

    def probabilities(self, logits: np.ndarray) -> np.ndarray:
        """Per-class probabilities (n, k) from logits (n, out_dim); the sigmoid
        head turns its single logit f into (1-s(f), s(f))."""
        if self.head == "sigmoid":
            # softmax over (0, f) == logistic sigmoid of the single logit
            logits = np.concatenate([np.zeros_like(logits), logits], axis=1)
        return softmax(logits)

    def predict_proba(self, x) -> np.ndarray:
        """Per-class probabilities (n, k); sigmoid head returns (1-s, s) pairs."""
        logits = self.forward(x)
        probs = self.probabilities(np.atleast_2d(logits))
        return probs[0] if logits.ndim == 1 else probs

    def predict_cumulative(self, x) -> np.ndarray:
        """Running-sum probabilities (n, k+1) for the ordinal tasks."""
        probs = np.atleast_2d(self.predict_proba(x))
        cum = np.concatenate([np.zeros((probs.shape[0], 1)), np.cumsum(probs, axis=1)], axis=1)
        cum[:, -1] = 1.0
        return cum[0] if np.asarray(x).ndim == 1 else cum

    def predict(self, x) -> np.ndarray:
        """Hard labels: argmax class in 1..k, or {0,1} for the sigmoid head.

        Ties go to the lowest class index.
        """
        logits = np.atleast_2d(self.forward(x))
        if self.head == "sigmoid":
            labels = (logits[:, 0] >= 0.0).astype(np.int64)
        else:
            labels = logits.argmax(axis=1) + 1
        return labels[0] if np.asarray(x).ndim == 1 else labels

    # -- serialization -----------------------------------------------------

    def save(self, path, extra: dict | None = None) -> None:
        doc = {
            "schema_version": CHECKPOINT_SCHEMA,
            "arch": self.arch,
            "head": self.head,
            "d": self.d,
            "k": self.k,
            "layers": [{"weight": w.tolist(), "bias": b.tolist()} for w, b in self.layers],
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path) -> "Classifier":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        version = doc.get("schema_version")
        if version != CHECKPOINT_SCHEMA:
            raise ValueError(f"unsupported checkpoint schema {version!r}")
        layers = [(np.array(layer["weight"]), np.array(layer["bias"])) for layer in doc["layers"]]
        return cls(doc["arch"], doc["head"], doc["d"], doc["k"], layers)


@dataclass
class AdamState:
    """First/second moment buffers and step counter for one parameter list."""

    lr: float
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_model(cls, model: Classifier, lr: float | None = None) -> "AdamState":
        state = cls(lr=DEFAULT_LR[model.arch] if lr is None else float(lr))
        state.m = [np.zeros_like(p) for p in model.parameters()]
        state.v = [np.zeros_like(p) for p in model.parameters()]
        return state


def adam_step(model: Classifier, grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected adaptive-moment update, in place.

    Aborts on non-finite gradients rather than poisoning the moments.
    """
    params = model.parameters()
    if len(grads) != len(params):
        raise ValueError("gradient list length mismatch")
    state.step += 1
    t = state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter {i} at step {t}")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / (1.0 - state.beta1**t)
        v_hat = state.v[i] / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
