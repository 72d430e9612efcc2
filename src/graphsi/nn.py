"""Self-contained GNN forward pass on masked node features.

Supports GCN and GIN convolutions, ReLU between conv layers (none after
the last), sum or mean pooling, and a linear readout. An mlp2 readout
(one hidden ReLU layer) is also accepted; it exists for the deep-readout
audit and the sparse exact solver refuses to run on it.

All arithmetic is float64. 32-bit accumulation loses the tight
invariance tolerances on deeper stacks. The forwards take one realized
feature matrix (n, d0) or a stack of them (B, n, d0); each matrix of a
stack gets the same bits it would get alone. The conv layers broadcast
over the stack. The readout runs once per forward on the pooled rows as
a (B, 1, d) stack: NumPy computes each (1, d) @ (d, c) slice with the
vector-matrix kernel that a lone (d,) row gets, whereas one
(B, d) @ (d, c) product uses the matrix-matrix kernel and rounds
differently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, as_matrix, as_vector, read_json
from .graph import Graph


class DimensionMismatch(ParseError):
    """Model and input widths disagree; message names the offending layer."""


@dataclass(frozen=True)
class GcnLayer:
    weight: np.ndarray  # d_in x d_out
    bias: np.ndarray  # d_out

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class GinLayer:
    epsilon: float
    w1: np.ndarray  # d_in x d_hidden
    b1: np.ndarray
    w2: np.ndarray  # d_hidden x d_out
    b2: np.ndarray

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]


@dataclass(frozen=True)
class LinearReadout:
    weight: np.ndarray  # d_in x d_out
    bias: np.ndarray

    kind = "linear"

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class Mlp2Readout:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    kind = "mlp2"

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]


@dataclass(frozen=True, eq=False)
class GnnModel:
    """Immutable model: conv stack, pooling, readout.

    Attributes:
        layers: conv layers, at least one; widths chain consistently
        pooling: "sum" or "mean"
        readout: LinearReadout or Mlp2Readout
    """

    layers: tuple
    pooling: str
    readout: object

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def d_in(self) -> int:
        return self.layers[0].d_in

    @property
    def d_out(self) -> int:
        return self.readout.d_out

    @property
    def width(self) -> int:
        """Widest per-node vector in the conv stack: input, hidden or output."""
        return max(max(layer.weight.shape) if isinstance(layer, GcnLayer)
                   else max(layer.w1.shape + layer.w2.shape) for layer in self.layers)

    def to_json_dict(self) -> dict:
        layers = []
        for layer in self.layers:
            if isinstance(layer, GcnLayer):
                layers.append({"kind": "gcn", "weight": layer.weight.tolist(),
                               "bias": layer.bias.tolist()})
            else:
                layers.append({"kind": "gin", "epsilon": layer.epsilon,
                               "mlp": {"w1": layer.w1.tolist(), "b1": layer.b1.tolist(),
                                       "w2": layer.w2.tolist(), "b2": layer.b2.tolist()}})
        if isinstance(self.readout, LinearReadout):
            readout = {"kind": "linear", "weight": self.readout.weight.tolist(),
                       "bias": self.readout.bias.tolist()}
        else:
            readout = {"kind": "mlp2", "w1": self.readout.w1.tolist(),
                       "b1": self.readout.b1.tolist(), "w2": self.readout.w2.tolist(),
                       "b2": self.readout.b2.tolist()}
        return {"activation": "relu", "layers": layers,
                "pooling": self.pooling, "readout": readout}


def _parse_mlp(obj, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if not isinstance(obj, dict):
        raise ParseError(f"{name} must be an object with keys w1, b1, w2, b2")
    missing = {"w1", "b1", "w2", "b2"} - obj.keys()
    if missing:
        raise ParseError(f"{name} is missing keys: {sorted(missing)}")
    w1 = as_matrix(obj["w1"], f"{name}.w1")
    b1 = as_vector(obj["b1"], f"{name}.b1", w1.shape[1])
    w2 = as_matrix(obj["w2"], f"{name}.w2")
    b2 = as_vector(obj["b2"], f"{name}.b2", w2.shape[1])
    if w2.shape[0] != w1.shape[1]:
        raise ParseError(f"{name}: w2 input width {w2.shape[0]} != w1 output width {w1.shape[1]}")
    return w1, b1, w2, b2


def model_from_json(obj) -> GnnModel:
    """Build a GnnModel from a parsed weight-file object.

    Schema: {"activation": "relu", "layers": [...], "pooling": "sum"|"mean",
    "readout": {...}}. Layer widths must chain; activation must be "relu".
    """
    if not isinstance(obj, dict):
        raise ParseError("weights JSON must be an object")
    missing = {"activation", "layers", "pooling", "readout"} - obj.keys()
    if missing:
        raise ParseError(f"weights JSON is missing keys: {sorted(missing)}")
    if obj["activation"] != "relu":
        raise ParseError(f"unsupported activation {obj['activation']!r}; only 'relu' is supported")
    if obj["pooling"] not in ("sum", "mean"):
        raise ParseError(f"pooling must be 'sum' or 'mean', got {obj['pooling']!r}")
    raw_layers = obj["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ParseError("layers must be a non-empty list")

    layers = []
    for idx, raw in enumerate(raw_layers):
        name = f"layers[{idx}]"
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ParseError(f"{name} must be an object with a 'kind' field")
        kind = raw["kind"]
        try:
            if kind == "gcn":
                if {"weight", "bias"} - raw.keys():
                    raise ParseError(f"{name} (gcn) needs 'weight' and 'bias'")
                weight = as_matrix(raw["weight"], f"{name}.weight")
                bias = as_vector(raw["bias"], f"{name}.bias", weight.shape[1])
                layers.append(GcnLayer(weight=weight, bias=bias))
            elif kind == "gin":
                if {"epsilon", "mlp"} - raw.keys():
                    raise ParseError(f"{name} (gin) needs 'epsilon' and 'mlp'")
                eps = raw["epsilon"]
                if not isinstance(eps, (int, float)) or isinstance(eps, bool) or not np.isfinite(eps):
                    raise ParseError(f"{name}.epsilon must be a finite number")
                w1, b1, w2, b2 = _parse_mlp(raw["mlp"], f"{name}.mlp")
                layers.append(GinLayer(epsilon=float(eps), w1=w1, b1=b1, w2=w2, b2=b2))
            else:
                raise ParseError(f"{name} has unknown kind {kind!r}")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"malformed {name}: {exc}") from exc
    for idx in range(1, len(layers)):
        if layers[idx].d_in != layers[idx - 1].d_out:
            raise DimensionMismatch(
                f"layers[{idx}] input width {layers[idx].d_in} != "
                f"layers[{idx - 1}] output width {layers[idx - 1].d_out}")

    raw_readout = obj["readout"]
    if not isinstance(raw_readout, dict) or "kind" not in raw_readout:
        raise ParseError("readout must be an object with a 'kind' field")
    if raw_readout["kind"] == "linear":
        if {"weight", "bias"} - raw_readout.keys():
            raise ParseError("linear readout needs 'weight' and 'bias'")
        weight = as_matrix(raw_readout["weight"], "readout.weight")
        bias = as_vector(raw_readout["bias"], "readout.bias", weight.shape[1])
        readout = LinearReadout(weight=weight, bias=bias)
    elif raw_readout["kind"] == "mlp2":
        w1, b1, w2, b2 = _parse_mlp(raw_readout, "readout")
        readout = Mlp2Readout(w1=w1, b1=b1, w2=w2, b2=b2)
    else:
        raise ParseError(f"readout has unknown kind {raw_readout['kind']!r}")
    if readout.d_in != layers[-1].d_out:
        raise DimensionMismatch(
            f"readout input width {readout.d_in} != last layer output width {layers[-1].d_out}")
    return GnnModel(layers=tuple(layers), pooling=obj["pooling"], readout=readout)


def load_model(path) -> GnnModel:
    """Load a model from a weight JSON file. Raises ParseError on any defect."""
    return model_from_json(read_json(path, "weights"))


def ensure_model(source) -> GnnModel:
    """A GnnModel from a GnnModel, a parsed JSON object, or a file path."""
    if isinstance(source, GnnModel):
        return source
    if isinstance(source, dict):
        return model_from_json(source)
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        return load_model(os.fspath(source))
    raise ParseError(f"cannot interpret {type(source).__name__} as a model")


def default_baseline(g: Graph) -> np.ndarray:
    """Componentwise mean of the node features."""
    return g.features.mean(axis=0)


def ensure_baseline(spec, graph: Graph) -> np.ndarray:
    """Masking vector from "mean", an array-like, or a JSON file of numbers."""
    if spec is None or (isinstance(spec, str) and spec == "mean"):
        return default_baseline(graph)
    if isinstance(spec, (str, bytes)) or hasattr(spec, "__fspath__"):
        spec = read_json(os.fspath(spec), "baseline")
    return as_vector(spec, "baseline", graph.d0)


def masked_features(g: Graph, baseline: np.ndarray, coalitions) -> np.ndarray:
    """Stack (B, n, d0) of realized matrices X^(T), one per coalition T in
    the sequence: row i of X^(T) is x_i when i is in T, else the baseline."""
    bits = np.array(coalitions, dtype=np.uint64)
    keep = (bits[:, None] >> np.arange(g.n, dtype=np.uint64)) & np.uint64(1)
    return np.where(keep[:, :, None] == 1, g.features, baseline)


# Bytes of the widest float64 intermediate of one forward chunk: a (B, n, width)
# masked stack (64 rows at n=64, width 16) or a ball chunk's bits or layer-0 rows,
# whose count sets the ball values' bits. Chunks far past the CPU cache run slower.
_CHUNK_BYTES = 512 * 1024


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _rowwise(x: np.ndarray, weight: np.ndarray, flat: bool) -> np.ndarray:
    """x @ weight; with flat, one 2-D product over all leading axes of x."""
    if not flat:
        return x @ weight
    return (x.reshape(-1, x.shape[-1]) @ weight).reshape(*x.shape[:-1], weight.shape[1])


def _gin_mlp(layer: GinLayer, agg: np.ndarray, flat: bool) -> np.ndarray:
    return _rowwise(_relu(_rowwise(agg, layer.w1, flat) + layer.b1), layer.w2, flat) + layer.b2


def _conv_stack(model: GnnModel, adj: np.ndarray, a_hat: np.ndarray,
                x: np.ndarray, keep: list[int] | None = None) -> np.ndarray:
    """Last-layer node embeddings of x, (n, d) or (B, n, d), through every
    conv layer of model (a ball forward passes every layer after its first).

    keep, when given, holds per layer the number of leading rows that layer
    computes; every row they read must lie among the rows the layer before
    kept (all rows of x before the first). The row-wise weight products
    then run as one 2-D (B*rows, d) product each: on a (B, rows, d) stack
    NumPy calls one small kernel per matrix. Without keep every matrix of a
    stack keeps the bits of a lone forward, so nothing is flattened: NumPy
    uses its vector-matrix kernel for a lone 1-row matrix, and the
    matrix-matrix kernel for a flattened stack.
    """
    if x.shape[-1] != model.d_in:
        raise DimensionMismatch(
            f"layers[0] expects input width {model.d_in}, features have {x.shape[-1]}")
    h = x
    flat = keep is not None
    last = len(model.layers) - 1
    for idx, layer in enumerate(model.layers):
        rows, cols = (keep[idx] if keep else None), h.shape[-2]
        if isinstance(layer, GcnLayer):
            h = _rowwise(a_hat[..., :rows, :cols] @ h, layer.weight, flat) + layer.bias
        else:
            agg = (1.0 + layer.epsilon) * h[..., :rows, :] + adj[..., :rows, :cols] @ h
            h = _gin_mlp(layer, agg, flat)
        if idx != last:
            h = _relu(h)
    return h


def _apply_readout(readout, pooled: np.ndarray) -> np.ndarray:
    if isinstance(readout, LinearReadout):
        return pooled @ readout.weight + readout.bias
    return _relu(pooled @ readout.w1 + readout.b1) @ readout.w2 + readout.b2


def forward_graph(model: GnnModel, g: Graph, x: np.ndarray) -> np.ndarray:
    """Graph-level output (logits) for a realized feature matrix (n, d0),
    or one row of logits per matrix of a (B, n, d0) stack."""
    h = _conv_stack(model, *g.matrices, x)
    pooled = h.sum(axis=-2) if model.pooling == "sum" else h.mean(axis=-2)
    # One-row matrices keep the vector-matrix kernel (module docstring).
    return _apply_readout(model.readout, pooled[..., None, :])[..., 0, :]


def forward_node(model: GnnModel, g: Graph, x: np.ndarray, i: int) -> np.ndarray:
    """Node i's embedding after the last conv layer, before pooling: a
    vector for one matrix, one row per matrix of a stack."""
    if not (0 <= i < g.n):
        raise IndexError(f"node index {i} out of range for n={g.n}")
    h = _conv_stack(model, *g.matrices, x)
    return h[..., i, :].copy()  # a view would pin the whole stack


def _table_hops(model: GnnModel) -> int:
    """Hops of model's node table balls: one fewer than its layers when the
    last, linear as no activation follows it, is a GCN layer after another."""
    return model.num_layers - (model.num_layers > 1 and isinstance(model.layers[-1], GcnLayer))


def _forward_ball(model: GnnModel, g: Graph, baseline: np.ndarray, nodes: np.ndarray,
                  keep: list[int], local, w: np.ndarray) -> np.ndarray:
    """Node games of the balls, (balls, len(local)): row b holds the
    embedding of center nodes[b, 0] after the last conv layer, projected on
    w, the readout column (divided by n under mean pooling). Where
    _table_hops drops a GCN last layer it holds the center r's row game
    c_r ReLU(h_r) . (W_L w), with h_r its embedding after the layer before
    and c_r = sum_i A_hat[i, r] over the graph, the weight with which h_r
    reaches the pooled value (the bias adds n (b_L . w), which no ball
    holds). In column L, bit j of L keeps the features of nodes[b, j] and
    the ball's other nodes take the baseline.

    nodes is a (balls, h) array of balls that share keep; each row with keep
    is a center's graph.ball_layouts entry at _table_hops(model) hops (the
    ball by hop distance, and per conv layer the leading rows it computes).
    The conv layers run on the full graph's adjacency and A_hat restricted
    to each ball, so degrees stay those of the full graph. A layer's row r
    hops from the center reads the previous layer's rows within r + 1 hops,
    so layer l computes only keep[l] rows, each exact because all it reads
    lies in the ball; the last computes the center alone. Layer 0 is read
    off the bits of L (_affine_layer); no masked feature stack is built.
    Every later conv layer passes _conv_stack on keep[1:]. Up to its output
    a node game's last layer is linear, so w is folded into its weights
    (_projected) and no d-wide embedding of it is formed. The ball
    matrices, layer 0's coefficients and the projected last layer are built
    once for all codes.
    """
    adj, a_hat = (matrix[nodes[:, None, :, None], nodes[:, None, None, :]]
                  for matrix in g.matrices)  # (balls, 1, h, h)
    if _table_hops(model) < model.num_layers:  # c_r (W_L w) per row ball, after the layers before
        last = np.multiply.outer(g.matrices[1].sum(axis=0)[nodes[:, 0]],
                                 model.layers[-1].weight @ w)[..., None]  # (balls, d, 1)
        layers = model.layers[:-1]
    else:
        last, layers = None, model.layers[:-1] + (_projected(model.layers[-1], w),)
    coef = _affine_layer(layers[0], adj, a_hat, g.features[nodes], baseline, keep[0])
    after = replace(model, layers=layers[1:])
    rows = max(1, _CHUNK_BYTES // (8 * len(nodes) * max(nodes.shape[1], keep[0] * model.width)))
    values = np.empty((len(nodes), len(local)))
    for start in range(0, len(local), rows):
        values[:, start:start + rows] = _ball_chunk(layers[0], after, last, keep, adj, a_hat,
                                                    coef, local[start:start + rows])
    return values


def _ball_chunk(first: GcnLayer | GinLayer, after: GnnModel, last: np.ndarray | None,
                keep: list[int], adj: np.ndarray, a_hat: np.ndarray, coef: np.ndarray,
                codes) -> np.ndarray:
    """_forward_ball on one chunk of codes; its temporaries die before the next chunk's."""
    balls, m = len(coef), coef.shape[1] - 1
    codes = np.asarray(codes, dtype="<u8")
    bits = np.empty((len(codes), m + 1))
    bits[:, :m] = np.unpackbits(codes.view(np.uint8).reshape(-1, 8), axis=1,
                                bitorder="little")[:, :m]
    bits[:, m] = 1.0  # layer 0's constants; a uint64 code has no bit 64 to hold them
    h = (bits @ coef.reshape(balls, m + 1, -1)).reshape(balls, len(codes), *coef.shape[2:])
    h = h if isinstance(first, GcnLayer) else _gin_mlp(first, h, flat=True)
    if after.layers:  # every conv layer after layer 0, trimmed
        np.maximum(h, 0.0, out=h)
        h = _conv_stack(after, adj, a_hat, h, keep[1:])
    if last is None:
        return h[..., 0, 0]
    np.maximum(h, 0.0, out=h)  # a row game: (balls, B, d) @ (balls, d, 1)
    return (h[..., 0, :] @ last)[..., 0]


def _projected(layer: GcnLayer | GinLayer, w: np.ndarray) -> GcnLayer | GinLayer:
    """layer with its output projected on w: the same layer with one output
    column, its last weight matrix times w and its last bias dotted with w."""
    col = w[:, None]
    if isinstance(layer, GcnLayer):
        return GcnLayer(weight=layer.weight @ col, bias=layer.bias @ col)
    return GinLayer(epsilon=layer.epsilon, w1=layer.w1, b1=layer.b1,
                    w2=layer.w2 @ col, b2=layer.b2 @ col)


def _affine_layer(layer: GcnLayer | GinLayer, adj: np.ndarray, a_hat: np.ndarray, x: np.ndarray,
                  baseline: np.ndarray, rows: int) -> np.ndarray:
    """Coefficients (balls, m + 1, rows, d) of conv layer 0 of a ball forward
    on its leading rows, from the (balls, 1, m, m) ball matrices and the
    (balls, m, d0) ball features. Layer 0's aggregation (a GCN layer's
    output) is one product of these with a (B, m + 1) matrix, which ball
    nodes keep their features (0 or 1) and then ones, with no add after it.

    With C = (1 + eps) I + A (GIN) or A_hat (GCN) over a ball, row r of
    C X(T) is (sum_j C_rj) baseline + sum_j bit_j C_rj (x_j - baseline).
    The coefficients of the bits and, as row m, the constant term (plus the
    GCN bias) form the matrix. GCN folds its weight into the deltas and the
    baseline first.
    """
    balls, m = x.shape[:2]
    gcn = isinstance(layer, GcnLayer)
    if gcn:
        c = a_hat[:, 0, :rows]
        base, delta = baseline @ layer.weight, (x - baseline) @ layer.weight
    else:
        c = adj[:, 0, :rows] + (1.0 + layer.epsilon) * np.eye(rows, m)
        base, delta = baseline, x - baseline
    coef = np.empty((balls, m + 1, rows, delta.shape[-1]))
    np.multiply(c.transpose(0, 2, 1)[..., None], delta[:, :, None, :], out=coef[:, :m])
    coef[:, m] = c.sum(axis=2)[..., None] * base + (layer.bias if gcn else 0.0)
    return coef
