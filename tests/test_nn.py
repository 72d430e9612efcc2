import dataclasses
import json

import numpy as np
import pytest

import graphsi.nn
from graphsi.errors import ParseError
from graphsi.generate import generate_instance, random_graph, random_model
from graphsi.graph import khop_neighborhoods, make_graph
from graphsi.nn import (
    DimensionMismatch,
    GcnLayer,
    GnnModel,
    LinearReadout,
    default_baseline,
    forward_graph,
    forward_node,
    load_model,
    masked_features,
    model_from_json,
)

from oracles import gnn_forward_oracle


def identity_model(d: int) -> GnnModel:
    return GnnModel(
        layers=(GcnLayer(weight=np.eye(d), bias=np.zeros(d)),),
        pooling="sum",
        readout=LinearReadout(weight=np.eye(d), bias=np.zeros(d)),
    )


# -- forward pass ------------------------------------------------------------


def test_single_isolated_node_passes_through():
    # self-loop normalization of a lone node is the identity
    g = make_graph(1, [], [[1.5, -2.0]])
    out = forward_graph(identity_model(2), g, g.features)
    np.testing.assert_allclose(out, [1.5, -2.0], atol=1e-15)


def test_zero_weights_yield_readout_bias():
    g = random_graph("er", 5, 3, seed=1, edge_prob=0.5)
    bias = np.array([0.25, -1.0])
    model = GnnModel(
        layers=(GcnLayer(weight=np.zeros((3, 4)), bias=np.zeros(4)),),
        pooling="sum",
        readout=LinearReadout(weight=np.zeros((4, 2)), bias=bias),
    )
    np.testing.assert_array_equal(forward_graph(model, g, g.features), bias)


def test_two_node_hand_computed_gcn():
    # A+I = [[1,1],[1,1]], degrees 2 -> A_hat = [[.5,.5],[.5,.5]]
    # A_hat @ H = [[2,3],[2,3]]; @ W + b = [[8.5,-2.25],[8.5,-2.25]]
    g = make_graph(2, [(0, 1)], [[1.0, 2.0], [3.0, 4.0]])
    model = GnnModel(
        layers=(GcnLayer(weight=np.array([[1.0, -1.0], [2.0, 0.0]]),
                         bias=np.array([0.5, -0.25])),),
        pooling="sum",
        readout=LinearReadout(weight=np.eye(2), bias=np.zeros(2)),
    )
    np.testing.assert_allclose(forward_node(model, g, g.features, 0),
                               [8.5, -2.25], atol=1e-12)
    np.testing.assert_allclose(forward_graph(model, g, g.features),
                               [17.0, -4.5], atol=1e-12)


def test_isolated_node_embedding_is_its_features():
    g = make_graph(3, [(0, 1)], [[1.0], [2.0], [7.0]])
    np.testing.assert_allclose(forward_node(identity_model(1), g, g.features, 2),
                               [7.0], atol=1e-15)


@pytest.mark.parametrize("pooling", ["sum", "mean"])
def test_pooled_node_embeddings_equal_graph_forward(pooling):
    g, base = generate_instance("er", 6, 3, 11, "gin", 2, 4, edge_prob=0.5)
    model = GnnModel(layers=base.layers, pooling=pooling, readout=base.readout)
    embeds = np.stack([forward_node(model, g, g.features, i) for i in range(g.n)])
    pooled = embeds.sum(axis=0) if pooling == "sum" else embeds.mean(axis=0)
    expected = pooled @ model.readout.weight + model.readout.bias
    np.testing.assert_allclose(forward_graph(model, g, g.features),
                               expected, atol=1e-12)


@pytest.mark.parametrize("kind,layers", [("gcn", 1), ("gcn", 2), ("gin", 1),
                                         ("gin", 3)])
def test_node_embedding_ignores_masking_outside_receptive_field(kind, layers, rng):
    g, model = generate_instance("er", 6, 3, 29, kind, layers, 4, edge_prob=0.4)
    hoods = khop_neighborhoods(g, layers).hoods
    baseline = default_baseline(g)
    for _ in range(25):
        t = int(rng.integers(0, 1 << g.n))
        for i in range(g.n):
            full, trimmed = forward_node(
                model, g, masked_features(g, baseline, [t, t & hoods[i]]), i)
            np.testing.assert_allclose(full, trimmed, atol=1e-9)


def test_relabeling_leaves_graph_output_unchanged(rng):
    g, model = generate_instance("er", 7, 3, 5, "gin", 2, 4, edge_prob=0.4)
    perm = [int(x) for x in rng.permutation(g.n)]
    relabeled = make_graph(
        g.n,
        [(perm[a], perm[b]) for a, b in g.edges],
        np.asarray(g.features)[np.argsort(perm)],
    )
    np.testing.assert_allclose(forward_graph(model, g, g.features),
                               forward_graph(model, relabeled, relabeled.features),
                               atol=1e-12)


@pytest.mark.parametrize("kind,readout,layers,pooling", [
    ("gcn", "linear", 1, "sum"),
    ("gcn", "linear", 3, "mean"),
    ("gin", "linear", 2, "sum"),
    ("gcn", "mlp2", 2, "sum"),
    ("gin", "mlp2", 2, "mean"),
])
def test_forward_matches_scalar_arithmetic_oracle(kind, readout, layers, pooling):
    g = random_graph("er", 6, 3, seed=17, edge_prob=0.5)
    base = random_model(kind, 3, layers, 4, seed=91, readout=readout)
    model = GnnModel(layers=base.layers, pooling=pooling, readout=base.readout)
    got = forward_graph(model, g, g.features)
    want = gnn_forward_oracle(model.to_json_dict(), g.n, g.edges,
                              g.features.tolist())
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("readout,d_out", [("linear", 1), ("linear", 3), ("mlp2", 2)])
@pytest.mark.parametrize("pooling", ["sum", "mean"])
@pytest.mark.parametrize("kind", ["gcn", "gin"])
def test_stacked_forward_equals_each_matrix_alone(kind, pooling, readout, d_out):
    g = random_graph("er", 9, 3, seed=23, edge_prob=0.4)
    model = dataclasses.replace(
        random_model(kind, 3, 2, 16, seed=47, d_out=d_out, readout=readout), pooling=pooling)
    rng = np.random.Generator(np.random.Philox(8))
    masks = [int(t) for t in rng.choice(1 << g.n, size=40, replace=False)]
    x = masked_features(g, default_baseline(g), masks)
    stacked = forward_graph(model, g, x)
    assert stacked.shape == (len(masks), d_out)
    for row, matrix in zip(stacked, x):
        assert (row == forward_graph(model, g, matrix)).all()  # no tolerance


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gcn", "gin"])
def test_one_node_stack_rows_equal_lone_forwards(kind, layers):
    # a 1-node matrix is one row, which a flattened stack product would round differently
    for seed in range(10):
        g = random_graph("path", 1, 3, seed=seed)
        model = random_model(kind, 3, layers, 16, seed=seed)
        # the mean baseline of one node is its own row, so shift it
        x = masked_features(g, default_baseline(g) + 1.0, [0b0, 0b1])
        for row, matrix in zip(forward_graph(model, g, x), x):
            assert (row == forward_graph(model, g, matrix)).all()  # no tolerance


def test_readout_runs_once_per_forward(monkeypatch):
    g, model = generate_instance("er", 8, 3, 31, "gin", 2, 4, edge_prob=0.4)
    calls = []
    real = graphsi.nn._apply_readout

    def counting(readout, pooled):
        calls.append(pooled.shape)
        return real(readout, pooled)

    monkeypatch.setattr(graphsi.nn, "_apply_readout", counting)
    x = masked_features(g, default_baseline(g), range(64))
    for matrices in (g.features, x[:1], x[:7], x):
        calls.clear()
        forward_graph(model, g, matrices)
        assert len(calls) == 1


# -- baseline and masking ----------------------------------------------------


def test_default_baseline_is_feature_mean():
    g = make_graph(2, [(0, 1)], [[1.0, 3.0], [3.0, 1.0]])
    np.testing.assert_array_equal(default_baseline(g), [2.0, 2.0])
    g1 = make_graph(1, [], [[5.0]])
    np.testing.assert_array_equal(default_baseline(g1), [5.0])
    g3 = make_graph(3, [], [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
    np.testing.assert_array_equal(default_baseline(g3), [1.0, 2.0])


def test_masked_features_replaces_dropped_rows():
    g = make_graph(3, [(0, 1), (1, 2)], [[1.0], [2.0], [3.0]])
    b = np.array([9.0])
    np.testing.assert_array_equal(masked_features(g, b, [0b010, 0b111, 0]),
                                  [[[9.0], [2.0], [9.0]], g.features,
                                   [[9.0], [9.0], [9.0]]])
    assert masked_features(g, b, []).shape == (0, 3, 1)


# -- serialization and validation --------------------------------------------


def test_model_json_round_trip():
    g = random_graph("er", 5, 3, seed=3, edge_prob=0.5)
    for kind, readout in (("gcn", "linear"), ("gin", "mlp2")):
        model = random_model(kind, 3, 2, 4, seed=7, readout=readout)
        back = model_from_json(json.loads(json.dumps(model.to_json_dict())))
        np.testing.assert_array_equal(forward_graph(model, g, g.features),
                                      forward_graph(back, g, g.features))


def valid_doc():
    return {
        "activation": "relu",
        "layers": [{"kind": "gcn", "weight": [[1.0, 0.0], [0.0, 1.0]],
                    "bias": [0.0, 0.0]}],
        "pooling": "sum",
        "readout": {"kind": "linear", "weight": [[1.0], [1.0]], "bias": [0.0]},
    }


def test_model_from_json_accepts_valid_doc():
    model = model_from_json(valid_doc())
    assert model.num_layers == 1 and model.d_out == 1


def break_doc(mutate):
    doc = valid_doc()
    mutate(doc)
    return doc


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("activation"),
    lambda d: d.update(activation="tanh"),
    lambda d: d.update(pooling="max"),
    lambda d: d.update(layers=[]),
    lambda d: d["layers"].__setitem__(0, {"kind": "sage"}),
    lambda d: d["layers"][0].pop("bias"),
    lambda d: d["layers"][0].update(weight=[[1.0, float("inf")], [0.0, 1.0]]),
    lambda d: d["layers"][0].update(bias=[0.0, 0.0, 0.0]),
    lambda d: d.update(readout={"kind": "softmax"}),
    lambda d: d.update(layers=[{"kind": "gin", "epsilon": True,
                                "mlp": {"w1": [[1.0]], "b1": [0.0],
                                        "w2": [[1.0]], "b2": [0.0]}}]),
    lambda d: d.update(layers=[{"kind": "gin", "epsilon": 0.0,
                                "mlp": {"w1": [[1.0]], "b1": [0.0],
                                        "w2": [[1.0]]}}]),
    lambda d: d["layers"][0].update(bias=[10 ** 400, 0.0]),
    lambda d: d["layers"][0].update(bias=["0", 0.0]),
    lambda d: d["readout"].update(weight=[[True], [1.0]]),
], ids=["no-activation", "tanh", "max-pool", "no-layers", "unknown-kind",
        "no-bias", "inf-weight", "bias-length", "unknown-readout",
        "bool-epsilon", "mlp-missing-key", "int-beyond-float", "string-bias",
        "bool-weight"])
def test_model_from_json_rejects_malformed(mutate):
    with pytest.raises(ParseError):
        model_from_json(break_doc(mutate))


def test_width_chain_mismatch_names_the_layer():
    doc = valid_doc()
    doc["layers"].append({"kind": "gcn", "weight": [[1.0], [1.0], [1.0]],
                          "bias": [0.0]})
    with pytest.raises(DimensionMismatch, match=r"layers\[1\]"):
        model_from_json(doc)
    doc = valid_doc()
    doc["readout"] = {"kind": "linear", "weight": [[1.0]], "bias": [0.0]}
    with pytest.raises(DimensionMismatch, match="readout"):
        model_from_json(doc)


def test_feature_width_mismatch_at_forward():
    g = make_graph(2, [(0, 1)], [[1.0], [2.0]])  # d0 = 1, model wants 2
    with pytest.raises(DimensionMismatch, match=r"layers\[0\]"):
        forward_graph(model_from_json(valid_doc()), g, g.features)


def test_forward_node_rejects_bad_index():
    g = make_graph(2, [(0, 1)], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(IndexError):
        forward_node(identity_model(2), g, g.features, 2)


def test_load_model_wraps_io_and_syntax(tmp_path):
    p = tmp_path / "w.json"
    p.write_text("[broken")
    with pytest.raises(ParseError):
        load_model(p)
    with pytest.raises(ParseError):
        load_model(tmp_path / "absent.json")
    p.write_text(json.dumps(valid_doc()))
    assert load_model(p).pooling == "sum"


def test_dimension_mismatch_is_a_parse_error():
    assert issubclass(DimensionMismatch, ParseError)
