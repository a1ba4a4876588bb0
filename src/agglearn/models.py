"""Classifiers with exact analytic backprop, plus an Adam optimizer.

Two architectures: a linear map and a one-hidden-layer ReLU network with
300 units ("mlp-300"), both one loop over (weight, bias) layers with a
ReLU between layers. Three heads describe how logits become per-class
probabilities:

* softmax     -- k logits, stabilized softmax;
* sigmoid     -- one logit f, probabilities (1 - s(f), s(f)); used for the
                 binary bag task, where the logistic loss coincides with
                 2-class cross-entropy over these probabilities;
* cumulative  -- k logits through softmax, consumed downstream as running
                 sums p(y <= j) for the ordinal tasks (monotone by
                 construction).

All arithmetic is float64: the verification suites compare against
enumeration oracles at 1e-9 tolerances. Passes without a gradient run their
rows in chunks of ``STACK_CELLS`` activation cells, so scoring a whole split
holds one chunk's hidden layer, not n x 300.

Checkpoints are a JSON document: schema version, architecture descriptor,
head, dimensions, and the raw parameter arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .posteriors import parse_int, seeded_rng, to_cumulative

ARCHITECTURES = ("linear", "mlp-300")
HEADS = ("softmax", "sigmoid", "cumulative")

HIDDEN_UNITS = 300
CHECKPOINT_SCHEMA = 1

# Cells of the widest activation per stacked chunk (``group_stacks``) and per row
# chunk of a no-gradient forward (``chunk_rows``): 512 KB of float64.
STACK_CELLS = 2**16

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


def _layer_dims(arch: str, d: int, out_dim: int) -> list[int]:
    """Unit counts from input to output: [d, out] or [d, HIDDEN_UNITS, out]."""
    return [d, HIDDEN_UNITS, out_dim] if arch == "mlp-300" else [d, out_dim]


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
        self.d = parse_int(d, "d", 1)
        self.k = parse_int(k, "k", 1)
        if head == "sigmoid" and self.k != 2:
            raise ValueError("the sigmoid head is binary: k must be 2")
        self.arch = arch
        self.head = head
        self.layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in layers]
        dims = _layer_dims(arch, self.d, self.out_dim)
        if len(self.layers) != len(dims) - 1:
            raise ValueError(f"{arch} needs {len(dims) - 1} layers, got {len(self.layers)}")
        for i, ((w, b), fan_in, fan_out) in enumerate(zip(self.layers, dims, dims[1:])):
            if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise ValueError(
                    f"layer {i}: weight {w.shape} and bias {b.shape} do not fit "
                    f"{fan_in} inputs and {fan_out} outputs"
                )

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, arch: str, head: str, d: int, k: int, seed: int = 0) -> "Classifier":
        """Seeded Glorot-uniform initialization (``seeded_rng``'s Philox stream)."""
        dims = _layer_dims(arch, parse_int(d, "d", 1), 1 if head == "sigmoid" else parse_int(k, "k", 1))
        rng = seeded_rng(seed)
        layers = [
            (_glorot_uniform(rng, fan_in, fan_out), np.zeros(fan_out)) for fan_in, fan_out in zip(dims, dims[1:])
        ]
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
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.d:
            raise ValueError(f"input dimension {x.shape[-1]} != model dimension {self.d}")
        return x

    def chunk_rows(self) -> int:
        """Rows per STACK_CELLS chunk: the cell bound over the widest activation."""
        return max(1, STACK_CELLS // max(*_layer_dims(self.arch, self.d, self.out_dim), self.k))

    def group_stacks(self, xs):
        """Yield (indices, (G, m, d) stack) over (m, d) groups: equal sizes in input
        order, chunked by STACK_CELLS. A stacked forward repeats each group's own
        GEMM, so it gives the per-group bits; a flat (G*m, d) GEMM would not."""
        sizes = [len(x) for x in xs]
        for m in dict.fromkeys(sizes):
            idx = [i for i, size in enumerate(sizes) if size == m]
            step = max(1, self.chunk_rows() // m)
            for chunk in (idx[lo : lo + step] for lo in range(0, len(idx), step)):
                yield chunk, np.stack([xs[i] for i in chunk])

    def forward(self, x) -> np.ndarray:
        """Logits (n, out_dim) or (G, m, out_dim); a vector input gives (out_dim,).
        Rows (axis -2) run in ``chunk_rows`` chunks, one ``forward_cached`` each, so
        a stack's group g gets the bits of x[g] alone."""
        x = np.asarray(x, dtype=np.float64)
        rows = self.chunk_rows()
        if x.ndim < 2 or x.shape[-2] <= rows:
            logits, _ = self.forward_cached(x)
            return logits[0] if x.ndim == 1 else logits
        logits = np.empty(x.shape[:-1] + (self.out_dim,))
        for lo in range(0, x.shape[-2], rows):
            logits[..., lo : lo + rows, :] = self.forward_cached(x[..., lo : lo + rows, :])[0]
        return logits

    def forward_cached(self, x: np.ndarray):
        """Logits plus the cache ``backward`` consumes: the input of each layer.
        Each layer fills one new array; bias and ReLU apply to it in place."""
        x = self._check_input(x)
        inputs = []
        for w, b in self.layers:
            if inputs:  # x is this pass's own array here, never the caller's input
                np.maximum(x, 0.0, out=x)
            inputs.append(x)
            x = x @ w
            x += b
        return x, inputs

    def backward(self, dlogits: np.ndarray, cache: list) -> list[np.ndarray]:
        """Exact parameter gradients from per-logit upstream gradients.

        Returns arrays aligned with ``parameters()``. The cache must come from the
        forward pass on the same batch; a ReLU input max(pre, 0) is 0 iff pre <= 0.
        """
        dout = np.asarray(dlogits, dtype=np.float64)
        if dout.shape != (cache[0].shape[0], self.out_dim):
            raise ValueError("upstream gradient shape does not match the cached batch")
        grads = []
        for i in range(len(cache) - 1, -1, -1):
            x = cache[i]
            grads[:0] = (x.T @ dout, dout.sum(axis=0))
            if i:
                dout = dout @ self.layers[i][0].T
                dout[x <= 0.0] = 0.0
        return grads

    def probabilities(self, logits: np.ndarray) -> np.ndarray:
        """Per-class probabilities (..., k) from logits (..., out_dim); the
        sigmoid head turns its single logit f into (1-s(f), s(f))."""
        if self.head != "sigmoid":
            return softmax(logits)
        # softmax over (0, f), its two-column max and sum taken elementwise: the same bits
        top = np.maximum(logits, 0.0)
        exp = np.exp(np.concatenate([0.0 - top, logits - top], axis=-1))
        return exp / (exp[..., :1] + exp[..., 1:])

    def predict_proba(self, x) -> np.ndarray:
        """Per-class probabilities (n, k) or (G, m, k); sigmoid head gives (1-s, s) pairs."""
        return self.probabilities(self.forward(x))

    def predict_cumulative(self, x) -> np.ndarray:
        """Running-sum probabilities (n, k+1) for the ordinal tasks."""
        return to_cumulative(self.predict_proba(x))

    def predict(self, x) -> np.ndarray:
        """Hard labels: argmax class in 1..k, or {0,1} for the sigmoid head.

        Argmax ties go to the lowest class index. The sigmoid head predicts 1
        when f >= 0, i.e. p(1) >= 1/2, so f = 0 gives 1: the same threshold as
        the p(z=1) >= 1/2 rule of ``evaluation.group_accuracy_mil``.
        """
        logits = np.atleast_2d(self.forward(x))
        if self.head == "sigmoid":
            labels = (logits[..., 0] >= 0.0).astype(np.int64)
        else:
            labels = logits.argmax(axis=-1) + 1
        return labels[0] if np.asarray(x).ndim == 1 else labels

    # -- serialization -----------------------------------------------------

    def save(self, path, extra: dict | None = None) -> None:
        """Write the checkpoint plus ``extra``; an own field's key in it, or bad label_names, fail before the file opens."""
        doc = {
            "schema_version": CHECKPOINT_SCHEMA,
            "arch": self.arch,
            "head": self.head,
            "d": self.d,
            "k": self.k,
            "layers": [{"weight": w.tolist(), "bias": b.tolist()} for w, b in self.layers],
        }
        if own := sorted(doc.keys() & (extra or {}).keys()):
            raise ValueError(f"extra key {own[0]!r} names a checkpoint field")
        doc.update(extra or {})
        if not valid_label_names(doc.get("label_names")):
            raise ValueError("label_names must be null or a list of distinct strings")
        text = json.dumps(doc)  # a value JSON cannot encode fails here, before the file opens
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "Classifier":
        return load_checkpoint(path)[0]


def valid_label_names(names, k: int | None = None) -> bool:
    """Whether ``names`` is a class-name order as the pipeline records it: None or k (if given) distinct strings."""
    return names is None or (isinstance(names, list) and all(isinstance(n, str) for n in names)
                             and len(set(names)) == len(names) == (k or len(names)))


def load_checkpoint(path) -> tuple[Classifier, dict]:
    """The classifier at ``path`` and its whole document (extra keys such as
    ``label_names``); a malformed one raises ValueError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("schema_version") != CHECKPOINT_SCHEMA:
            raise ValueError(f"not a JSON object of checkpoint schema {CHECKPOINT_SCHEMA}")
        if not valid_label_names(doc.get("label_names")):
            raise ValueError("label_names must be null or a list of distinct strings")
        layers = [(np.array(layer["weight"]), np.array(layer["bias"])) for layer in doc["layers"]]
        return Classifier(doc["arch"], doc["head"], doc["d"], doc["k"], layers), doc
    except KeyError as exc:
        raise ValueError(f"checkpoint {path} lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None


@dataclass
class AdamState:
    """First/second moment buffers and step counter for one parameter list."""

    lr: float
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
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[i] / (1.0 - ADAM_BETA2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
