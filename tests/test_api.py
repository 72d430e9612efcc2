"""The public surface: `graphsi.__all__` is pinned, so no export goes missing unnoticed."""

import graphsi

PUBLIC_API = [
    "BudgetExceeded", "GameOracle", "GnnModel", "Graph", "GraphGame",
    "GraphInteractionExplainer", "InteractionSet", "InteractionValues",
    "NeighborhoodIndex", "NodeGame", "NonlinearReadout", "ParseError",
    "bernoulli_numbers", "build_interaction_set", "convert_mi",
    "default_baseline", "efficiency_check", "forward_graph", "forward_node",
    "graph_from_json", "graph_stats", "graphshapiq_approx", "graphshapiq_exact",
    "khop_neighborhoods", "load_graph", "load_model", "make_graph",
    "mi_to_ksii", "mi_to_sii", "mi_to_stii", "mi_to_sv", "model_from_json",
    "moebius_transform",
]


def test_all_is_pinned_and_resolves():
    assert len(PUBLIC_API) == 33
    assert graphsi.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(graphsi, name) is not None, name
